// MPI-like message-passing layer over VIPL — the "distributed memory
// programming model" layer the paper lists as future work (§5).
//
// Design choices follow directly from VIBe findings:
//   * All communication buffers are allocated and registered once at
//     startup (registration is expensive — Fig. 1) and recycled.
//   * Small messages use an eager protocol through preposted, credit-flow-
//     controlled bounce buffers; large messages use a rendezvous (RTS/CTS)
//     so the payload lands in a receive descriptor of exactly the right
//     size with no intermediate copy at the receiver.
//   * One VI per peer pair (the multi-VI latency penalty on firmware
//     implementations — Fig. 6 — argues against per-thread VI fan-out).
//
// Matching model: one channel per source rank; tags match out of order
// within a channel (unexpected messages are queued).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <span>
#include <vector>

#include "session/session.hpp"
#include "vibe/cluster.hpp"
#include "vipl/provider.hpp"

namespace vibe::upper::msg {

struct CommConfig {
  std::uint32_t eagerThreshold = 8192;  // bytes; above this -> rendezvous
  std::uint32_t creditsPerPeer = 16;    // eager-data credits
  std::uint32_t controlReserve = 8;     // extra preposted buffers for control
  nic::Reliability reliability = nic::Reliability::ReliableDelivery;
  std::uint64_t discriminatorBase = 0x4D50'0000;  // 'MP'

  /// Recovery mode: each peer channel runs over a session::Session, which
  /// reconnects automatically after connection breaks and replays/dedups
  /// frames for exactly-once delivery. The raw-VI machinery it replaces is
  /// bypassed: no bulk VI (large messages travel as chunk frames over the
  /// session stream), no credit flow control (the session's interrupt-
  /// driven receive ring cannot starve), and peerVi() returns null — the
  /// get/put RDMA path requires recovery=false. Off by default; when off,
  /// behaviour and simulated timing are bit-identical to before.
  bool recovery = false;
  session::ReconnectPolicy reconnect;            // used when recovery=true
  obs::MetricsRegistry* metrics = nullptr;       // session recovery metrics
  obs::SpanProfiler* spans = nullptr;            // session reconnect spans
};

class Communicator {
 public:
  /// Collective constructor: every rank's node program calls create() with
  /// its own rank; the full VI mesh is wired pairwise (lower rank requests,
  /// higher rank accepts).
  static std::unique_ptr<Communicator> create(suite::NodeEnv& env,
                                              std::uint32_t rank,
                                              std::uint32_t size,
                                              const CommConfig& config = {});
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  std::uint32_t rank() const { return rank_; }
  std::uint32_t size() const { return size_; }

  // --- point to point ---
  /// Blocking send (returns when the payload is out of the caller's hands:
  /// eager-staged or rendezvous-completed).
  void send(std::uint32_t dst, int tag, std::span<const std::byte> data);
  /// Blocking receive of the next message with `tag` from `src`.
  std::vector<std::byte> recv(std::uint32_t src, int tag);

  // --- nonblocking point to point (MPI_Isend/Irecv analogues) ---
  using RequestId = std::uint64_t;
  /// Nonblocking eager send: the payload is staged immediately, the wire
  /// work overlaps with computation, completion is observed via test()/
  /// wait(). Only messages up to the eager threshold are accepted
  /// (rendezvous requires a blocking dialogue; use send()). Outstanding
  /// isends share the control VI's completion stream: layers posting their
  /// own descriptors on peerVi() (the get/put RDMA path) must not overlap
  /// with unwaited isends.
  RequestId isend(std::uint32_t dst, int tag, std::span<const std::byte> data);
  /// Nonblocking receive: matches the next arriving (src, tag) message.
  /// Do not mix blocking recv() and irecv() on the same (src, tag).
  RequestId irecv(std::uint32_t src, int tag);
  /// True once the request completed (never blocks; runs one progress).
  bool test(RequestId request);
  /// Blocks until completion; returns the payload for receives.
  std::vector<std::byte> wait(RequestId request);
  /// Waits for every request in the span (send payloads are discarded).
  void waitAll(std::span<const RequestId> requests);
  std::size_t outstandingRequests() const { return requests_.size(); }

  /// Combined exchange (MPI_Sendrecv): deadlock-safe even when all ranks
  /// call it simultaneously toward each other.
  std::vector<std::byte> sendrecv(std::uint32_t dst, int sendTag,
                                  std::span<const std::byte> data,
                                  std::uint32_t src, int recvTag);
  /// Like recv(), but waits by progressing every peer (service traffic
  /// keeps flowing while blocked).
  std::vector<std::byte> recvServing(std::uint32_t src, int tag);

  // --- collectives (dissemination / binomial-tree algorithms) ---
  /// With serveAll=true the barrier waits by progressing *every* channel,
  /// so service traffic (get/put, DSM) from any rank keeps flowing while
  /// ranks sit in the barrier. Layers whose protocols depend on remote
  /// progress must use it.
  void barrier(bool serveAll = false);
  void broadcast(std::uint32_t root, std::vector<std::byte>& data);
  double allreduceSum(double value);
  void allreduceSum(std::span<double> values);

  // --- service plumbing for layers built on top (get/put windows) ---
  /// A message whose tag (>= kServiceTagBase) has a registered handler is
  /// delivered to it during progress instead of the matching queues.
  using ServiceHandler =
      std::function<void(std::uint32_t src, int tag, std::vector<std::byte>)>;
  /// Exact-tag handler; lets several layers (get/put windows, DSM) share
  /// one communicator. A tag registered twice throws std::logic_error.
  void addServiceHandler(int tag, ServiceHandler handler);
  static constexpr int kServiceTagBase = 1 << 24;

  /// Runs one progress step over every peer (reaps completions, returns
  /// credits, dispatches service messages). Returns true if anything
  /// happened.
  bool progress();

  /// Blocks (spinning) until something arrives from `peer` and processes
  /// it. Used by layers waiting for a service reply.
  void progressBlocking(std::uint32_t peer) {
    progressPeer(peer, /*blockUntilSomething=*/true);
  }

  /// One polling step for spin-wait loops: progresses every channel and,
  /// if nothing arrived, burns a small busy quantum so that (a) virtual
  /// time always advances — waits terminate — and (b) the wall-clock cost
  /// of a long wait stays bounded instead of degenerating into millions of
  /// zero-progress passes.
  void progressOrWait();

  /// The VI connected to `peer` (used by the get/put layer for RDMA).
  vipl::Vi* peerVi(std::uint32_t peer) const;
  vipl::Provider& provider() const { return *nic_; }
  mem::PtagId ptag() const { return ptag_; }

  // --- statistics (for tests and tuning) ---
  std::uint64_t eagerSent() const { return eagerSent_; }
  std::uint64_t rendezvousSent() const { return rndvSent_; }
  std::uint64_t creditStalls() const { return creditStalls_; }
  std::uint64_t creditMessages() const { return creditMsgs_; }

 private:
  Communicator(suite::NodeEnv& env, std::uint32_t rank, std::uint32_t size,
               const CommConfig& config);
  void connectMesh();

  struct PoolBuffer {
    mem::VirtAddr va = 0;
    vipl::VipDescriptor desc;
  };
  struct Peer {
    vipl::Vi* vi = nullptr;      // control/eager channel (preposted pool)
    vipl::Vi* bulkVi = nullptr;  // rendezvous payloads only: keeps large
                                 // messages out of the pool's FIFO matching
    vipl::Cq* cq = nullptr;  // merges both VIs' receive completions
    std::vector<PoolBuffer> recvPool;
    std::uint32_t sendCredits = 0;
    std::uint32_t pendingCreditReturn = 0;
    std::uint32_t nextSeq = 1;
    // Matched-but-unconsumed user messages.
    struct Inbound {
      int tag;
      std::vector<std::byte> data;
    };
    std::deque<Inbound> matched;
    // Rendezvous in flight (sender side): seq -> waiting for CTS.
    std::deque<std::uint32_t> ctsReady;
    // Recovery mode: the channel itself, plus the in-progress reassembly
    // of a chunked large message (the session stream is in-order and
    // exactly-once, so chunks of one message arrive contiguously).
    std::unique_ptr<session::Session> session;
    struct ChunkAssembly {
      std::uint32_t seq = 0;
      int tag = 0;
      std::uint64_t total = 0;
      std::vector<std::byte> data;
    };
    std::optional<ChunkAssembly> chunk;
  };

  struct RequestState {
    bool done = false;
    bool isRecv = false;
    std::uint32_t peer = 0;
    int tag = 0;
    std::vector<std::byte> data;                  // recv payload
    std::unique_ptr<vipl::VipDescriptor> desc;    // async send descriptor
    std::uint32_t slot = 0;                       // async staging slot
  };

  std::uint64_t discriminatorFor(std::uint32_t a, std::uint32_t b) const;
  void prepostPool(Peer& peer);
  /// Drains completed async send descriptors on one peer's send queue,
  /// optionally stopping when `target` (a synchronous send) completes.
  void drainSendCompletions(Peer& peer, const vipl::VipDescriptor* target);
  /// Routes an arrived user message: oldest matching irecv, else queue.
  void deliverInbound(std::uint32_t src, int tag, std::vector<std::byte> data);
  void repostPoolBuffer(std::uint32_t peerRank, PoolBuffer& buf);
  /// Sends a framed control/eager message through a staging buffer.
  void sendFrame(std::uint32_t dst, std::uint8_t kind, int tag,
                 std::uint32_t seq, std::span<const std::byte> payload);
  /// Recovery mode: streams a rendezvous-size message as chunk frames.
  void sendChunkFrames(std::uint32_t dst, int tag, std::uint32_t seq,
                       std::span<const std::byte> data);
  /// Drains one peer's receive queue; returns true if progress was made.
  bool progressPeer(std::uint32_t peerRank, bool blockUntilSomething);
  void handleFrame(std::uint32_t src, std::span<const std::byte> frame);
  /// Routes a service-tag message; returns false for user messages.
  bool dispatchService(std::uint32_t src, int tag,
                       std::vector<std::byte>&& data);
  void waitForCts(std::uint32_t dst, std::uint32_t seq);

  suite::NodeEnv& env_;
  vipl::Provider* nic_;
  CommConfig config_;
  std::uint32_t rank_;
  std::uint32_t size_;
  mem::PtagId ptag_ = 0;
  mem::MemHandle poolHandle_ = 0;  // one registration covers all pools
  mem::VirtAddr stagingVa_ = 0;    // sender-side staging ring
  std::vector<std::unique_ptr<Peer>> peers_;  // index = rank (self null)
  std::uint32_t stagingSlot_ = 0;
  std::uint32_t frameBytes_ = 0;  // eagerThreshold + header

  // Rendezvous receiver side: the payload arrives as ceil(size/MTS)
  // chunk messages on the bulk VI, landing in one registered buffer.
  struct RndvRecv {
    std::vector<std::unique_ptr<vipl::VipDescriptor>> descs;
    std::size_t completed = 0;
    int tag = 0;
    mem::VirtAddr va = 0;
    mem::MemHandle handle = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<std::optional<std::pair<std::uint32_t, RndvRecv>>> rndvSlots_;

  std::unordered_map<int, ServiceHandler> taggedHandlers_;

  // Nonblocking requests.
  std::unordered_map<RequestId, RequestState> requests_;
  std::vector<RequestId> pendingRecvs_;  // irecvs in post order
  RequestId nextRequest_ = 1;
  mem::VirtAddr asyncStagingVa_ = 0;
  std::vector<bool> asyncSlotBusy_;

  std::uint64_t eagerSent_ = 0;
  std::uint64_t rndvSent_ = 0;
  std::uint64_t creditStalls_ = 0;
  std::uint64_t creditMsgs_ = 0;
};

}  // namespace vibe::upper::msg
