// NicDevice: the common VIA NIC datapath, specialized by NicProfile into
// the three implementation models (M-VIA / Berkeley VIA / cLAN).
//
// The datapath is event-driven over the shared engine. FIFO Resources model
// the NIC processing engine, the PCI DMA bus, and (inside fabric) the wire,
// so fragment streams pipeline exactly as on real hardware: latency is the
// sum of stage traversals, streaming bandwidth the bottleneck stage rate.
//
// Send path    : post -> doorbell -> pickup (immediate / firmware scan /
//                host-kernel inline) -> translate -> fragment -> DMA -> wire
// Receive path : wire -> NIC processing -> descriptor match -> translate ->
//                DMA -> completion write (-> interrupt if a waiter sleeps)
// Reliability  : per-VI go-back-N at fragment granularity with cumulative
//                ACKs; ReliableReception acks only after memory placement.
//
// One fragment builder makes every packet the NIC originates: packetTo()
// fills the fields all of them share, messageHeader() a message's header,
// fragment() each fragment's box and framing around the payload its path
// built (written once, then immutable), launch() keeps the retransmit and
// probe header copies, which share that payload, and counts the fragment,
// transmit() is the one hand-off of a box to the fabric (acks and RTO
// resends use it too), and finishSend() completes a send or files it to
// wait for its ack. The three send paths vary only what the
// implementations vary:
//   - NIC pickup (cLAN, BVIA; sends and RDMA writes): timing starts at
//     doorbell discovery on the NIC, bytes are gathered from the
//     descriptor's segments per fragment; Wire record and NicTx span.
//   - Host inline (M-VIA): the caller's kernel builds each fragment and is
//     charged for it, bytes come from a snapshot taken at the doorbell
//     trap, one Payload of the whole message that each fragment slices;
//     NicTx span, no Wire record. Events run during each charge: a
//     teardown or break seen after one stops the send, which completes
//     Aborted (ConnectionLost when broken), as postSend completes a send
//     posted on a dead connection.
//   - RDMA read response: timing starts at the request's arrival, bytes
//     come from the registered region; neither record.
// On the receive side the frame's box moves on from the fabric through
// handleRx(), handleData() and acceptFragment() into the placement event
// that writes its payload to memory, so no receive hop copies a packet.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fabric/packet.hpp"
#include "fabric/topology.hpp"
#include "mem/host_memory.hpp"
#include "mem/memory_registry.hpp"
#include "mem/tlb.hpp"
#include "nic/profile.hpp"
#include "nic/work.hpp"
#include "obs/span.hpp"
#include "simcore/engine.hpp"
#include "simcore/process.hpp"
#include "simcore/resource.hpp"
#include "simcore/trace.hpp"

namespace vibe::nic {

using fabric::NodeId;
using fabric::Packet;
using fabric::PacketPtr;
using fabric::ViEndpointId;

struct NicStats {
  std::uint64_t sendsPosted = 0;
  std::uint64_t recvsPosted = 0;
  std::uint64_t fragsTx = 0;
  std::uint64_t fragsRx = 0;
  std::uint64_t bytesTx = 0;
  std::uint64_t bytesRx = 0;
  std::uint64_t acksTx = 0;
  std::uint64_t acksRx = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rxCorrupted = 0;  // frames failing the CRC check, dropped
  std::uint64_t rxDroppedNoDescriptor = 0;
  std::uint64_t rxDroppedBadEndpoint = 0;
  std::uint64_t rxOutOfOrderDropped = 0;
  std::uint64_t protocolErrors = 0;
};

/// One NicStats counter and the metric name it publishes under.
struct NicStatField {
  const char* metric;
  std::uint64_t NicStats::*member;
};

/// Every NicStats counter, in declaration order: the one list that
/// metric publishing and run witnesses iterate.
inline constexpr NicStatField kNicStatFields[] = {
    {"nic.sends_posted", &NicStats::sendsPosted},
    {"nic.recvs_posted", &NicStats::recvsPosted},
    {"nic.frags_tx", &NicStats::fragsTx},
    {"nic.frags_rx", &NicStats::fragsRx},
    {"nic.bytes_tx", &NicStats::bytesTx},
    {"nic.bytes_rx", &NicStats::bytesRx},
    {"nic.acks_tx", &NicStats::acksTx},
    {"nic.acks_rx", &NicStats::acksRx},
    {"nic.retransmits", &NicStats::retransmits},
    {"nic.rx_corrupted", &NicStats::rxCorrupted},
    {"nic.rx_dropped_no_descriptor", &NicStats::rxDroppedNoDescriptor},
    {"nic.rx_dropped_bad_endpoint", &NicStats::rxDroppedBadEndpoint},
    {"nic.rx_out_of_order_dropped", &NicStats::rxOutOfOrderDropped},
    {"nic.protocol_errors", &NicStats::protocolErrors},
};

class NicDevice {
 public:
  struct Handlers {
    /// A work request finished; called in engine-event context.
    std::function<void(ViEndpointId, Completion&&)> completion;
    /// Connection-management packet arrived for the provider to interpret.
    std::function<void(Packet&&)> control;
    /// The connection on this endpoint entered an error state.
    std::function<void(ViEndpointId, WorkStatus)> connectionError;
  };

  NicDevice(sim::Engine& engine, fabric::Topology& net, NodeId node,
            const NicProfile& profile, mem::MemoryRegistry& registry,
            mem::HostMemory& memory);

  NicDevice(const NicDevice&) = delete;
  NicDevice& operator=(const NicDevice&) = delete;

  void setHandlers(Handlers h) { handlers_ = std::move(h); }

  /// Attaches a tracer; the datapath emits Doorbell/Wire/Rx/Completion/
  /// Reliability/Translation records while one is attached.
  void setTracer(sim::Tracer* tracer) { tracer_ = tracer; }
  /// The attached tracer (nullptr when none); layers built on top of the
  /// provider emit into the same stream so one digest covers the whole run.
  sim::Tracer* tracer() const { return tracer_; }

  /// Attaches a span profiler: the datapath emits stage-attributed spans
  /// (Doorbell, NicTx, Rx, Reassembly, Completion, EndToEnd) while one is
  /// attached. nullptr detaches; emission is fully skipped when detached.
  void setSpanProfiler(obs::SpanProfiler* spans) { spans_ = spans; }

  NodeId nodeId() const { return node_; }
  const NicProfile& profile() const { return profile_; }
  mem::MemoryRegistry& registry() { return registry_; }
  mem::HostMemory& memory() { return memory_; }
  mem::Tlb& tlb() { return tlb_; }
  const NicStats& stats() const { return stats_; }

  // --- endpoint lifecycle ---
  ViEndpointId createEndpoint(mem::PtagId ptag);
  void destroyEndpoint(ViEndpointId id);
  /// VIs the firmware must scan (drives FirmwarePoll discovery cost).
  std::size_t activeEndpoints() const { return activeEndpoints_; }

  /// Send-side backlog across all endpoints: descriptors awaiting pickup
  /// or window space plus unacked frames in the retransmit buffers. A
  /// time-series sampler probes this as the NIC's doorbell/queue depth.
  std::size_t txBacklog() const;
  /// Receive descriptors posted and not yet consumed, across endpoints.
  std::size_t rxBacklog() const;

  /// `epoch` is the connection incarnation negotiated in the connect
  /// handshake; it only tags the trace stream (cross-epoch invariant
  /// checks), the data path never consults it.
  void configureConnection(ViEndpointId id, NodeId remoteNode,
                           ViEndpointId remoteVi, Reliability rel,
                           std::uint32_t mtu, std::uint32_t epoch = 0);
  /// Flushes outstanding work with Aborted and forgets the connection.
  void teardownConnection(ViEndpointId id);

  // --- data path (called from a Process context by the provider) ---
  void postSend(ViEndpointId id, WorkRequest&& wr);
  void postRecv(ViEndpointId id, WorkRequest&& wr);

  // --- control path ---
  /// Ships a connection-management packet (small fixed wire cost) in a
  /// box of its own.
  void sendControl(Packet&& p);

 private:
  struct PendingSendCompletion {
    std::uint64_t lastFragSeq = 0;  // completes when acked past this
    std::uint64_t cookie = 0;
    bool needsPlacedAck = false;  // ReliableReception
  };

  struct Reassembly {
    fabric::PacketKind kind = fabric::PacketKind::Data;
    std::uint64_t msgSeq = 0;
    std::uint32_t fragsSeen = 0;
    std::uint32_t fragCount = 0;
    std::uint64_t msgBytes = 0;
    bool discard = false;       // error or no descriptor: swallow fragments
    WorkStatus errorStatus = WorkStatus::Ok;
    bool haveDescriptor = false;
    WorkRequest desc;           // the matched receive descriptor
    bool hasImmediate = false;
    std::uint32_t immediate = 0;
    sim::Duration hostCpu = 0;  // accumulated kernel RX time (M-VIA)
    std::uint64_t lastFragSeq = 0;
    sim::SimTime postedAt = 0;  // sender-side post time (observability)
  };

  struct Endpoint {
    bool active = false;
    bool connected = false;
    bool broken = false;
    /// Work may still run on this endpoint's connection.
    bool open() const { return active && connected && !broken; }
    bool txBusy = false;  // host-inline send in progress (guards reentry)
    NodeId remoteNode = 0;
    ViEndpointId remoteVi = 0;
    Reliability rel = Reliability::Unreliable;
    std::uint32_t mtu = 0;
    mem::PtagId ptag = 0;

    std::deque<WorkRequest> sendQ;  // awaiting pickup / window space
    std::deque<WorkRequest> recvQ;

    std::uint64_t txMsgSeq = 0;
    std::uint64_t txFragSeq = 0;  // next fragment sequence to assign

    // Reliability sender state (go-back-N).
    // Header copies of frames in flight; each shares its payload with the
    // frame the fabric carries.
    std::optional<Packet> lastFrag;      // probe when only acks are missing
    std::deque<Packet> unacked;          // retransmit buffer, seq order
    std::uint64_t ackedFragSeq = 0;      // cumulative receipt ack
    std::uint64_t placedFragSeq = 0;     // cumulative placement ack
    std::deque<PendingSendCompletion> awaitingAck;
    sim::EventId rtoEvent = 0;
    std::uint32_t rtoBackoff = 1;
    std::uint32_t rtoStrikes = 0;  // consecutive RTOs without ack progress

    // Receiver state.
    std::uint64_t rxNextFragSeq = 1;   // next in-order fragment expected
    std::uint64_t rxPlacedFragSeq = 0; // highest fragment placed in memory
    // Arrival-side assembly of the message currently streaming in. The
    // placement pipeline may still be draining older messages; each one
    // owns its Reassembly via shared_ptr captured in placement events.
    std::shared_ptr<Reassembly> reasm;

    // RDMA reads this endpoint initiated, keyed by request token.
    std::unordered_map<std::uint32_t, WorkRequest> pendingReads;
    std::uint32_t nextReadToken = 1;
  };

  Endpoint& ep(ViEndpointId id);
  Endpoint* epIfActive(ViEndpointId id);

  /// Charges the calling process `d` of busy host time (VIPL-context ops).
  void chargeCaller(sim::Duration d);

  // Send machinery.
  void tryProcessSendQueue(ViEndpointId id);
  void processSendWr(ViEndpointId id, Endpoint& e, WorkRequest wr);
  void processSendWrHostInline(ViEndpointId id, Endpoint& e, WorkRequest wr);
  sim::Duration translationCost(const std::vector<SegmentView>& segs);
  sim::Duration translationCostRange(mem::VirtAddr va, std::uint64_t len);

  // The fragment builder (see the file comment).
  Packet packetTo(fabric::PacketKind kind, ViEndpointId id,
                  const Endpoint& e) const;
  Packet messageHeader(fabric::PacketKind kind, ViEndpointId id, Endpoint& e,
                       std::uint64_t bytes);
  Packet messageHeader(ViEndpointId id, Endpoint& e, const WorkRequest& wr);
  /// Boxes fragment `i` of `head`'s message around `payload`: the
  /// fragment's bytes, one MTU from message offset i * MTU on (fewer in
  /// the last fragment).
  PacketPtr fragment(const Packet& head, std::uint32_t i, Endpoint& e,
                     fabric::Payload payload);
  void launch(Endpoint& e, PacketPtr p, sim::SimTime at, bool probe);
  void transmit(PacketPtr p, sim::SimTime at);
  void finishSend(ViEndpointId id, Endpoint& e, std::uint64_t cookie,
                  sim::SimTime done);
  /// Completes a send that cannot run on `e`'s dead connection: Aborted,
  /// or ConnectionLost when the connection broke.
  void failSend(ViEndpointId id, const Endpoint& e, std::uint64_t cookie);

  // Receive machinery.
  void handleRx(PacketPtr p);
  void handleData(PacketPtr p);
  void handleAck(const Packet& p);
  void handleRdmaRead(const Packet& p);
  void acceptFragment(ViEndpointId id, Endpoint& e, PacketPtr p);
  std::shared_ptr<Reassembly> beginMessage(ViEndpointId id, Endpoint& e,
                                           const Packet& first);
  void placeFragment(ViEndpointId id, Reassembly& r, const Packet& p);
  void finishMessage(ViEndpointId id, std::shared_ptr<Reassembly> r,
                     sim::SimTime at);
  void postCompletion(ViEndpointId id, Completion c, sim::SimTime at);
  void sendAck(ViEndpointId id, Endpoint& e, WorkStatus error = WorkStatus::Ok);

  // Reliability.
  void armRto(ViEndpointId id, Endpoint& e);
  void cancelRto(Endpoint& e);
  void onRto(ViEndpointId id);
  void drainAcked(ViEndpointId id, Endpoint& e);
  void breakConnection(ViEndpointId id, Endpoint& e, WorkStatus why);
  void flushEndpoint(ViEndpointId id, Endpoint& e, WorkStatus status);

  sim::Engine& engine_;
  fabric::Topology& net_;
  NodeId node_;
  NicProfile profile_;
  mem::MemoryRegistry& registry_;
  mem::HostMemory& memory_;
  mem::Tlb tlb_;

  sim::Resource nicProc_;    // NIC processing engine / firmware
  sim::Resource dma_;        // PCI bus (shared by both directions)
  sim::Resource hostKernel_; // kernel RX path (M-VIA ISR + copies)

  Handlers handlers_;
  sim::Tracer* tracer_ = nullptr;
  obs::SpanProfiler* spans_ = nullptr;
  // unique_ptr values: Endpoint addresses stay stable across map growth,
  // so references held across process yields (host-inline sends advance
  // the caller mid-processing) cannot dangle on a rehash.
  std::unordered_map<ViEndpointId, std::unique_ptr<Endpoint>> endpoints_;
  ViEndpointId nextEndpoint_ = 1;
  std::size_t activeEndpoints_ = 0;
  NicStats stats_;
};

}  // namespace vibe::nic
