// The VIA provider: one per simulated host. Owns the host's user memory,
// registration state, and NIC device, and exposes the VIPL operation
// surface (connection management, descriptor posting, completion reaping,
// completion queues, name service) with spec semantics. Every operation
// charges the calling simulated process the profile's host-side cost, so
// latency and CPU-utilization measurements are mutually consistent.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/topology.hpp"
#include "mem/host_memory.hpp"
#include "mem/memory_registry.hpp"
#include "nic/nic_device.hpp"
#include "nic/profile.hpp"
#include "simcore/engine.hpp"
#include "simcore/process.hpp"
#include "vipl/vipl_types.hpp"

namespace vibe::vipl {

class Provider;
class Vi;

/// Cluster-wide host-name resolution (the VipNS* surface).
class NameService {
 public:
  void registerHost(const std::string& name, fabric::NodeId node) {
    table_[name] = node;
  }
  std::optional<fabric::NodeId> lookup(const std::string& name) const {
    auto it = table_.find(name);
    return it == table_.end() ? std::nullopt
                              : std::optional<fabric::NodeId>(it->second);
  }

 private:
  std::unordered_map<std::string, fabric::NodeId> table_;
};

/// Completion queue: merges completion notifications of the work queues
/// attached to it. Entries identify (VI, queue); the descriptor itself is
/// then reaped with sendDone/recvDone on that VI, per spec.
class Cq {
 public:
  struct Entry {
    Vi* vi = nullptr;
    bool isRecv = false;
  };

  std::size_t capacity() const { return capacity_; }
  std::size_t depth() const { return entries_.size(); }
  bool overflowed() const { return overflowed_; }

 private:
  friend class Provider;
  Cq(sim::Engine& engine, std::size_t capacity)
      : capacity_(capacity), signal_(engine) {}

  std::size_t capacity_;
  std::deque<Entry> entries_;
  sim::Signal signal_;
  bool overflowed_ = false;
};

/// A Virtual Interface endpoint.
class Vi {
 public:
  ViState state() const { return state_; }
  const VipViAttributes& attributes() const { return attrs_; }
  nic::ViEndpointId endpointId() const { return ep_; }
  /// Maximum transfer size agreed at connection establishment.
  std::uint32_t negotiatedMts() const { return negotiatedMts_; }
  fabric::NodeId remoteNode() const { return remoteNode_; }
  Provider& provider() const { return *prov_; }
  /// Connection incarnation: 0 until the first connect, bumped on every
  /// successful connect of this VI. Carried in the connect handshake so
  /// both sides can fence traffic from a previous incarnation.
  std::uint32_t epoch() const { return epoch_; }
  /// Peer's epoch learned from the most recent connect handshake.
  std::uint32_t remoteEpoch() const { return remoteEpoch_; }

 private:
  friend class Provider;
  /// One work queue's completion side: descriptors done and not yet
  /// reaped, the signal a reaper waits on, and the CQ it feeds (if any).
  struct WorkQueue {
    WorkQueue(sim::Engine& engine, Cq* attached)
        : cq(attached), signal(engine) {}
    Cq* cq;
    std::deque<VipDescriptor*> done;
    sim::Signal signal;
  };

  Vi(Provider& prov, sim::Engine& engine, nic::ViEndpointId ep,
     const VipViAttributes& attrs, Cq* sendCq, Cq* recvCq)
      : prov_(&prov),
        ep_(ep),
        attrs_(attrs),
        send_(engine, sendCq),
        recv_(engine, recvCq) {}

  WorkQueue& queue(bool isSend) { return isSend ? send_ : recv_; }

  Provider* prov_;
  nic::ViEndpointId ep_;
  VipViAttributes attrs_;
  ViState state_ = ViState::Idle;
  WorkQueue send_;
  WorkQueue recv_;
  std::uint32_t negotiatedMts_ = 0;
  fabric::NodeId remoteNode_ = 0;
  nic::ViEndpointId remoteVi_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint32_t remoteEpoch_ = 0;
  std::deque<std::function<void(VipDescriptor*)>> recvNotify_;
};

/// Connection request surfaced by connectWait, awaiting accept/reject.
struct PendingConn {
  fabric::NodeId remoteNode = 0;
  nic::ViEndpointId remoteVi = 0;
  VipViAttributes remoteAttrs;
  std::uint64_t discriminator = 0;
  std::uint32_t token = 0;
  std::uint32_t epoch = 0;  // requester's connection incarnation
};

class Provider {
 public:
  Provider(sim::Engine& engine, fabric::Topology& net, fabric::NodeId node,
           const nic::NicProfile& profile, std::shared_ptr<NameService> ns,
           std::string hostName);
  ~Provider();

  Provider(const Provider&) = delete;
  Provider& operator=(const Provider&) = delete;

  // --- NIC-level queries ---
  VipResult queryNic(VipNicAttributes& out);

  // --- protection tags ---
  mem::PtagId createPtag();
  VipResult destroyPtag(mem::PtagId ptag);

  // --- memory registration ---
  VipResult registerMem(mem::VirtAddr va, std::uint64_t len,
                        const VipMemAttributes& attrs, mem::MemHandle& out);
  VipResult deregisterMem(mem::MemHandle handle);

  // --- VI / CQ lifecycle ---
  VipResult createVi(const VipViAttributes& attrs, Cq* sendCq, Cq* recvCq,
                     Vi*& out);
  VipResult destroyVi(Vi* vi);
  /// VipQueryVi: state + attributes + whether the done queues are empty.
  VipResult queryVi(Vi* vi, ViState& state, VipViAttributes& attrs,
                    bool& sendQueueEmpty, bool& recvQueueEmpty);
  /// VipSetViAttributes: only legal while the VI is not connected.
  VipResult setViAttributes(Vi* vi, const VipViAttributes& attrs);
  VipResult createCq(std::size_t entries, Cq*& out);
  VipResult destroyCq(Cq* cq);
  VipResult resizeCq(Cq* cq, std::size_t entries);

  /// Forgets every posted-but-uncompleted descriptor on `vi` without
  /// destroying it. For owners (e.g. upper-layer destructors) whose
  /// descriptor memory is about to be freed while the VI stays connected:
  /// completions still in flight become no-ops instead of writing through
  /// dangling pointers. Charges nothing and sends nothing, so simulated
  /// timing is unaffected.
  void flushViPending(Vi* vi) noexcept;

  /// Models OS cleanup at node-program exit: every descriptor still
  /// pending on this host is abandoned, so completion events that arrive
  /// after the program returned cannot write into its dead stack frames or
  /// freed buffers. Called by Cluster::run when a node program returns.
  void quiesce() noexcept;

  // --- connection management ---
  VipResult connectWait(const VipNetAddress& local, sim::Duration timeout,
                        PendingConn& out);
  VipResult connectAccept(const PendingConn& conn, Vi* vi);
  VipResult connectReject(const PendingConn& conn);
  VipResult connectRequest(Vi* vi, const VipNetAddress& remote,
                           sim::Duration timeout,
                           VipViAttributes* remoteAttrs = nullptr);
  VipResult disconnect(Vi* vi);
  /// Returns a VI that ended up in Error or Disconnected to Idle so it can
  /// be reconnected: abandons every still-pending descriptor (completions
  /// in flight become no-ops), drops unreaped completions, and clears the
  /// NIC endpoint's connection state. Also legal on a Connected VI, as a
  /// hard local reset with no Disconnect dialog — session layers use it to
  /// abandon a half-open connection whose peer already reset its side. The
  /// VI's epoch survives — the next connect bumps it. Foundation of the
  /// session/recovery layer; not part of the VIPL 1.0 surface.
  VipResult resetVi(Vi* vi);

  // --- data transfer ---
  VipResult postSend(Vi* vi, VipDescriptor* desc);
  VipResult postRecv(Vi* vi, VipDescriptor* desc);
  VipResult sendDone(Vi* vi, VipDescriptor*& out);
  VipResult recvDone(Vi* vi, VipDescriptor*& out);
  VipResult sendWait(Vi* vi, sim::Duration timeout, VipDescriptor*& out);
  VipResult recvWait(Vi* vi, sim::Duration timeout, VipDescriptor*& out);
  /// One-shot asynchronous completion handler (VipRecvNotify). The handler
  /// runs in "interrupt context": it may post descriptors and fire signals
  /// but must not block.
  VipResult recvNotify(Vi* vi, std::function<void(VipDescriptor*)> handler);

  VipResult cqDone(Cq* cq, Vi*& vi, bool& isRecv);
  VipResult cqWait(Cq* cq, sim::Duration timeout, Vi*& vi, bool& isRecv);

  // --- efficient polling (simulation-friendly spin loops) ---
  // Semantically identical to `while (xxxDone()==NOT_DONE) {}`: the waiting
  // time is charged as busy CPU; completion is observed with poll-cost
  // granularity — but the simulator executes one wakeup, not millions of
  // spins.
  VipResult pollSend(Vi* vi, VipDescriptor*& out);
  VipResult pollRecv(Vi* vi, VipDescriptor*& out);
  VipResult pollCq(Cq* cq, Vi*& vi, bool& isRecv);

  // --- name service ---
  VipResult nsGetHostByName(const std::string& name, fabric::NodeId& out);

  /// Asynchronous error callback (VipErrorCallback): connection losses and
  /// protocol errors not tied to a reaped descriptor.
  void setErrorCallback(std::function<void(Vi*, nic::WorkStatus)> cb) {
    errorCallback_ = std::move(cb);
  }

  /// Attaches a span profiler: postSend emits a Post span covering the
  /// host-side posting cost, and the NIC device emits the downstream
  /// stages. nullptr detaches (and detaches from the device).
  void setSpanProfiler(obs::SpanProfiler* spans) {
    spans_ = spans;
    device_.setSpanProfiler(spans);
  }
  /// The attached span profiler (nullptr when none); layers built on top
  /// of the provider (session Reconnect spans) emit into it.
  obs::SpanProfiler* spans() const { return spans_; }

  // --- accessors ---
  sim::Engine& engine() { return engine_; }
  mem::HostMemory& memory() { return memory_; }
  mem::MemoryRegistry& registry() { return registry_; }
  nic::NicDevice& device() { return device_; }
  /// Un-reaped completion entries summed over this provider's open CQs.
  /// A time-series sampler probes this as the node's CQ depth.
  std::size_t cqDepthTotal() const {
    std::size_t n = 0;
    for (const auto& cq : cqs_) {
      if (cq) n += cq->depth();
    }
    return n;
  }
  const nic::NicProfile& profile() const { return profile_; }
  fabric::NodeId nodeId() const { return node_; }
  const std::string& hostName() const { return hostName_; }

 private:
  /// One slot of the posted-descriptor table. A cookie names a slot and
  /// the slot's generation, which moves on each time the slot is freed, so
  /// a completion for a dropped descriptor cannot hit the slot's next use.
  struct PendingWr {
    VipDescriptor* desc = nullptr;  // nullptr: the slot is free
    Vi* vi = nullptr;
    bool isSend = true;
    std::uint32_t generation = 1;  // never 0, so no cookie is 0
    std::uint32_t nextFree = 0;    // free-list link while the slot is free
  };
  struct PendingConnect {
    std::unique_ptr<sim::Signal> signal;
    bool responded = false;
    bool accepted = false;
    std::uint8_t rejectReason = 0;
    nic::ViEndpointId remoteVi = 0;
    fabric::NodeId remoteNode = 0;
    VipViAttributes remoteAttrs;
    std::uint32_t mts = 0;
    std::uint32_t epoch = 0;
  };
  struct Listener {
    std::unique_ptr<sim::Signal> signal;
    std::deque<std::pair<PendingConn, sim::EventId>> queue;  // + grace event
    std::size_t waiters = 0;
  };

  /// Charges the calling process `d` of busy virtual time.
  void charge(sim::Duration d);
  /// Adds ISR time already spent on the process's behalf (blocking reaps).
  void chargeKernelCpu(sim::Duration d);
  /// Latency + CPU accounting for waking from a blocking wait.
  void blockingWakeup();

  VipResult validateSegments(const Vi& vi,
                             const std::vector<VipDataSegment>& ds) const;
  nic::WorkRequest buildWorkRequest(const VipDescriptor& desc,
                                    std::uint64_t cookie) const;
  /// Files a posted descriptor in a free slot and returns its cookie.
  std::uint64_t trackPending(VipDescriptor* desc, Vi* vi, bool isSend);
  /// Frees `slot`; a completion still carrying its cookie then misses.
  void releasePending(std::uint32_t slot) noexcept;

  // One reap per wait mode; the send and recv calls of each forward here.
  VipResult reapDone(Vi* vi, bool isSend, VipDescriptor*& out);
  VipResult reapWait(Vi* vi, bool isSend, sim::Duration timeout,
                     VipDescriptor*& out);
  VipResult reapPoll(Vi* vi, bool isSend, VipDescriptor*& out);
  /// Pops `q`'s oldest completed descriptor into `out`.
  static VipResult takeDone(Vi::WorkQueue& q, VipDescriptor*& out);

  void onCompletion(nic::ViEndpointId ep, nic::Completion&& c);
  void deliverCompletion(Vi* vi, VipDescriptor* desc, bool isSend);
  void onControl(fabric::Packet&& p);
  void onConnRequest(fabric::Packet&& p);
  void onConnResponse(fabric::Packet&& p);
  void onDisconnect(fabric::Packet&& p);
  void onConnectionError(nic::ViEndpointId ep, nic::WorkStatus why);
  /// Defers errorCallback_ to a zero-delay event so handlers may call
  /// disconnect/resetVi/destroyVi without re-entering the control path that
  /// noticed the failure. The VI is re-resolved by endpoint id at delivery
  /// time (endpoint ids are never reused), so a VI destroyed in the
  /// meantime simply drops the notification.
  void scheduleErrorCallback(nic::ViEndpointId ep, nic::WorkStatus why);

  sim::Engine& engine_;
  fabric::NodeId node_;
  nic::NicProfile profile_;
  std::shared_ptr<NameService> ns_;
  std::string hostName_;

  mem::HostMemory memory_;
  mem::MemoryRegistry registry_;
  nic::NicDevice device_;

  std::vector<std::unique_ptr<Vi>> vis_;
  std::vector<std::unique_ptr<Cq>> cqs_;
  std::unordered_map<nic::ViEndpointId, Vi*> byEndpoint_;
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;
  std::vector<PendingWr> pending_;
  std::uint32_t freePending_ = kNoSlot;  // head of the free-slot list

  std::unordered_map<std::uint64_t, Listener> listeners_;
  std::unordered_map<std::uint32_t, PendingConnect> pendingConnects_;
  std::uint32_t nextConnToken_ = 1;

  std::function<void(Vi*, nic::WorkStatus)> errorCallback_;
  obs::SpanProfiler* spans_ = nullptr;
};

}  // namespace vibe::vipl
