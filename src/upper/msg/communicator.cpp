#include "upper/msg/communicator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "vipl/vipl.hpp"

namespace vibe::upper::msg {

namespace {

using vipl::Cq;
using vipl::PendingConn;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;

constexpr sim::Duration kConnTimeout = sim::kSecond * 5;
constexpr sim::Duration kForever = -1;

// Internal collective tags (above user space, below the service range).
constexpr int kBarrierTag = (1 << 23) + 1;
constexpr int kBcastTag = (1 << 23) + 2;
constexpr int kReduceTag = (1 << 23) + 3;

// Frame kinds.
constexpr std::uint8_t kEager = 1;
constexpr std::uint8_t kRts = 2;
constexpr std::uint8_t kCts = 3;
constexpr std::uint8_t kCredit = 4;
// Recovery mode only: one piece of a chunked large message. `seq` names
// the message, `size` carries the total message bytes; the session stream
// is in-order so pieces concatenate.
constexpr std::uint8_t kChunk = 5;

constexpr std::uint32_t kHeaderBytes = 24;

struct FrameHeader {
  std::uint8_t kind = 0;
  std::int32_t tag = 0;
  std::uint32_t seq = 0;
  std::uint64_t size = 0;  // payload bytes; a chunk's whole message bytes
};

/// The one msg frame builder: the header (padding and the reserved word at
/// offset 12 zeroed), then `payload`.
std::vector<std::byte> frameOf(const FrameHeader& h,
                               std::span<const std::byte> payload) {
  std::vector<std::byte> frame(kHeaderBytes + payload.size());
  std::byte* out = frame.data();
  std::memcpy(out + 0, &h.kind, 1);
  std::memcpy(out + 4, &h.tag, 4);
  std::memcpy(out + 8, &h.seq, 4);
  std::memcpy(out + 16, &h.size, 8);
  if (!payload.empty()) {
    std::memcpy(out + kHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

FrameHeader unpackHeader(const std::byte* in) {
  FrameHeader h;
  std::memcpy(&h.kind, in + 0, 1);
  std::memcpy(&h.tag, in + 4, 4);
  std::memcpy(&h.seq, in + 8, 4);
  std::memcpy(&h.size, in + 16, 8);
  return h;
}

constexpr vipl::ResultCheck require{"msg::Communicator: "};

}  // namespace

std::unique_ptr<Communicator> Communicator::create(suite::NodeEnv& env,
                                                   std::uint32_t rank,
                                                   std::uint32_t size,
                                                   const CommConfig& config) {
  auto comm = std::unique_ptr<Communicator>(
      new Communicator(env, rank, size, config));
  comm->connectMesh();
  return comm;
}

Communicator::Communicator(suite::NodeEnv& env, std::uint32_t rank,
                           std::uint32_t size, const CommConfig& config)
    : env_(env), nic_(&env.nic), config_(config), rank_(rank), size_(size) {
  if (rank >= size || size == 0) {
    throw std::invalid_argument("Communicator: bad rank/size");
  }
  ptag_ = nic_->createPtag();
  frameBytes_ = config_.eagerThreshold + kHeaderBytes;

  // One arena, one registration: per-peer receive pools plus the sender
  // staging ring (VIBe Fig. 1: registration is the expensive part, so do
  // it once up front).
  const std::uint32_t poolFrames =
      config_.creditsPerPeer + config_.controlReserve;
  const std::uint64_t perPeerBytes =
      static_cast<std::uint64_t>(poolFrames) * frameBytes_;
  const std::uint32_t stagingFrames = 4;
  const std::uint32_t asyncFrames = 16;
  const std::uint64_t arenaBytes =
      perPeerBytes * size_ +
      static_cast<std::uint64_t>(stagingFrames + asyncFrames) * frameBytes_;
  const mem::VirtAddr arena =
      nic_->memory().alloc(arenaBytes, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag_;
  require(nic_->registerMem(arena, arenaBytes, ma, poolHandle_),
          "register arena");
  stagingVa_ = arena + perPeerBytes * size_;
  asyncStagingVa_ =
      stagingVa_ + static_cast<std::uint64_t>(stagingFrames) * frameBytes_;
  asyncSlotBusy_.assign(asyncFrames, false);

  peers_.resize(size_);
  for (std::uint32_t p = 0; p < size_; ++p) {
    if (p == rank_) continue;
    auto peer = std::make_unique<Peer>();
    peer->sendCredits = config_.creditsPerPeer;
    peer->recvPool.resize(poolFrames);
    for (std::uint32_t f = 0; f < poolFrames; ++f) {
      peer->recvPool[f].va = arena + perPeerBytes * p +
                             static_cast<std::uint64_t>(f) * frameBytes_;
    }
    peers_[p] = std::move(peer);
  }
}

Communicator::~Communicator() {
  // The eager pool and rendezvous descriptors die with this object while
  // the VIs stay connected; completions still in flight must become
  // no-ops rather than write through pointers into the freed pool.
  // (Recovery mode has no raw VIs here; each session flushes its own.)
  for (const auto& p : peers_) {
    if (!p) continue;
    if (p->vi != nullptr) nic_->flushViPending(p->vi);
    if (p->bulkVi != nullptr) nic_->flushViPending(p->bulkVi);
  }
}

std::uint64_t Communicator::discriminatorFor(std::uint32_t a,
                                             std::uint32_t b) const {
  return config_.discriminatorBase +
         (static_cast<std::uint64_t>(a) * size_ + b) * 2;
}

void Communicator::connectMesh() {
  if (config_.recovery) {
    // One session per peer pair; the lower rank initiates, mirroring the
    // raw mesh. Session ids are derived from the pair so trace records and
    // jitter streams are deterministic and collision-free per node.
    for (std::uint32_t p = 0; p < size_; ++p) {
      if (p == rank_) continue;
      Peer& peer = *peers_[p];
      const std::uint32_t lo = std::min(rank_, p);
      const std::uint32_t hi = std::max(rank_, p);
      session::SessionConfig sc;
      sc.sid = lo * size_ + hi;
      sc.remoteNode = p;
      sc.discriminator = discriminatorFor(lo, hi);
      sc.initiator = rank_ == lo;
      sc.maxMessageBytes = frameBytes_;
      sc.policy = config_.reconnect;
      sc.metrics = config_.metrics;
      sc.spans = config_.spans;
      peer.session = std::make_unique<session::Session>(*nic_, sc);
      if (!peer.session->establish()) {
        throw std::runtime_error("Communicator: session establish failed");
      }
    }
    return;
  }

  vipl::VipViAttributes va;
  va.ptag = ptag_;
  va.reliabilityLevel = config_.reliability;
  va.enableRdmaWrite = nic_->profile().supportsRdmaWrite;
  va.enableRdmaRead = nic_->profile().supportsRdmaRead;

  for (std::uint32_t p = 0; p < size_; ++p) {
    if (p == rank_) continue;
    Peer& peer = *peers_[p];
    Cq* cq = nullptr;
    require(nic_->createCq(256, cq), "create peer CQ");
    peer.cq = cq;
    require(nic_->createVi(va, nullptr, cq, peer.vi), "create VI");
    require(nic_->createVi(va, nullptr, cq, peer.bulkVi), "create bulk VI");
    prepostPool(peer);

    const std::uint32_t lo = std::min(rank_, p);
    const std::uint32_t hi = std::max(rank_, p);
    const std::uint64_t disc = discriminatorFor(lo, hi);
    if (rank_ == lo) {
      require(nic_->connectRequest(peer.vi, {p, disc}, kConnTimeout),
              "mesh connect");
      require(nic_->connectRequest(peer.bulkVi, {p, disc + 1}, kConnTimeout),
              "mesh bulk connect");
    } else {
      auto acceptOn = [&](std::uint64_t d, vipl::Vi* vi) {
        PendingConn conn;
        // Loop until the request from exactly this peer shows up.
        for (;;) {
          require(nic_->connectWait({rank_, d}, kConnTimeout, conn),
                  "mesh connect wait");
          if (conn.remoteNode == p) break;
          nic_->connectReject(conn);
        }
        require(nic_->connectAccept(conn, vi), "mesh accept");
      };
      acceptOn(disc, peer.vi);
      acceptOn(disc + 1, peer.bulkVi);
    }
  }
}

void Communicator::prepostPool(Peer& peer) {
  for (PoolBuffer& buf : peer.recvPool) {
    buf.desc = VipDescriptor::recv(buf.va, poolHandle_, frameBytes_);
    require(nic_->postRecv(peer.vi, &buf.desc), "prepost pool buffer");
  }
}

void Communicator::repostPoolBuffer(std::uint32_t peerRank, PoolBuffer& buf) {
  Peer& peer = *peers_[peerRank];
  buf.desc = VipDescriptor::recv(buf.va, poolHandle_, frameBytes_);
  require(nic_->postRecv(peer.vi, &buf.desc), "repost pool buffer");
}

void Communicator::sendFrame(std::uint32_t dst, std::uint8_t kind, int tag,
                             std::uint32_t seq,
                             std::span<const std::byte> payload) {
  if (payload.size() + kHeaderBytes > frameBytes_) {
    throw std::invalid_argument("sendFrame: payload exceeds frame");
  }
  Peer& peer = *peers_[dst];
  const std::vector<std::byte> frame =
      frameOf({kind, tag, seq, payload.size()}, payload);
  if (config_.recovery) {
    if (!peer.session->send(frame)) {
      throw std::runtime_error("Communicator: peer session is down");
    }
    return;
  }
  const mem::VirtAddr slot =
      stagingVa_ + static_cast<std::uint64_t>(stagingSlot_) * frameBytes_;
  stagingSlot_ = (stagingSlot_ + 1) % 4;
  nic_->memory().write(slot, frame);

  VipDescriptor d = VipDescriptor::send(
      slot, poolHandle_, static_cast<std::uint32_t>(frame.size()));
  require(nic_->postSend(peer.vi, &d), "post frame");
  // Completions on this VI may include earlier async isend frames; drain
  // them into their requests until our own descriptor surfaces.
  drainSendCompletions(peer, &d);
}

void Communicator::drainSendCompletions(Peer& peer,
                                        const vipl::VipDescriptor* target) {
  if (config_.recovery) return;  // sessions track their own completions
  for (;;) {
    VipDescriptor* done = nullptr;
    VipResult r;
    if (target != nullptr) {
      r = nic_->pollSend(peer.vi, done);  // must eventually see `target`
    } else {
      r = nic_->sendDone(peer.vi, done);
      if (r == VipResult::VIP_NOT_DONE) return;
    }
    require(r, "send completion");
    if (done == target) return;
    // An async isend frame finished: mark its request, free its slot.
    for (auto& [id, req] : requests_) {
      if (!req.isRecv && !req.done && req.desc.get() == done) {
        req.done = true;
        asyncSlotBusy_[req.slot] = false;
        break;
      }
    }
    if (target == nullptr) continue;
  }
}

void Communicator::send(std::uint32_t dst, int tag,
                        std::span<const std::byte> data) {
  if (dst >= size_ || dst == rank_) {
    throw std::invalid_argument("send: bad destination rank");
  }
  Peer& peer = *peers_[dst];
  if (data.size() <= config_.eagerThreshold) {
    if (!config_.recovery) {
      while (peer.sendCredits == 0) {
        // Progress every channel while stalled: the rank that owes us
        // credits may itself be stalled sending to a third rank, and only
        // global progress breaks such cycles.
        ++creditStalls_;
        progressOrWait();
      }
      --peer.sendCredits;
    }
    sendFrame(dst, kEager, tag, 0, data);
    ++eagerSent_;
    return;
  }

  if (config_.recovery) {
    // No rendezvous dialogue over sessions: the stream is in-order and
    // exactly-once, so the payload simply travels as chunk frames.
    sendChunkFrames(dst, tag, peer.nextSeq++, data);
    ++rndvSent_;
    return;
  }

  // Rendezvous: RTS -> CTS -> payload into the receiver's exact-size
  // descriptor. The payload buffer is registered for the duration of the
  // transfer, like a real MPI rendezvous pins the user buffer.
  const std::uint32_t seq = peer.nextSeq++;
  // The RTS carries the full message size as an 8-byte payload.
  std::array<std::byte, 8> sizeBytes;
  const std::uint64_t msgBytes = data.size();
  std::memcpy(sizeBytes.data(), &msgBytes, 8);
  sendFrame(dst, kRts, tag, seq, sizeBytes);
  waitForCts(dst, seq);

  const mem::VirtAddr stage =
      nic_->memory().alloc(msgBytes, mem::kPageSize);
  mem::MemHandle stageH = 0;
  vipl::VipMemAttributes ma;
  ma.ptag = ptag_;
  require(nic_->registerMem(stage, msgBytes, ma, stageH), "register rndv");
  nic_->memory().write(stage, data);
  // Chunk at the connection's negotiated MaxTransferSize; the receiver
  // computed the same chunking from the RTS size.
  const std::uint64_t mts = peer.bulkVi->negotiatedMts();
  std::uint64_t off = 0;
  while (off < msgBytes) {
    const std::uint64_t chunk = std::min(mts, msgBytes - off);
    VipDescriptor d = VipDescriptor::send(stage + off, stageH,
                                          static_cast<std::uint32_t>(chunk));
    require(nic_->postSend(peer.bulkVi, &d), "post rndv payload");
    VipDescriptor* done = nullptr;
    require(nic_->pollSend(peer.bulkVi, done), "rndv send completion");
    off += chunk;
  }
  require(nic_->deregisterMem(stageH), "deregister rndv");
  ++rndvSent_;
}

void Communicator::sendChunkFrames(std::uint32_t dst, int tag,
                                   std::uint32_t seq,
                                   std::span<const std::byte> data) {
  Peer& peer = *peers_[dst];
  const std::uint64_t total = data.size();
  std::uint64_t off = 0;
  do {
    const std::uint64_t n =
        std::min<std::uint64_t>(config_.eagerThreshold, total - off);
    // Every piece carries the full message size.
    const std::vector<std::byte> frame =
        frameOf({kChunk, tag, seq, total}, data.subspan(off, n));
    if (!peer.session->send(frame)) {
      throw std::runtime_error("Communicator: peer session is down");
    }
    off += n;
  } while (off < total);
}

Communicator::RequestId Communicator::isend(std::uint32_t dst, int tag,
                                            std::span<const std::byte> data) {
  if (dst >= size_ || dst == rank_) {
    throw std::invalid_argument("isend: bad destination rank");
  }
  if (data.size() > config_.eagerThreshold) {
    throw std::invalid_argument(
        "isend: rendezvous-size message; use the blocking send()");
  }
  Peer& peer = *peers_[dst];
  if (config_.recovery) {
    // The session's replay buffer stages the payload immediately, so the
    // request is complete as soon as the frame is queued.
    sendFrame(dst, kEager, tag, 0, data);
    ++eagerSent_;
    const RequestId id = nextRequest_++;
    RequestState req;
    req.isRecv = false;
    req.peer = dst;
    req.tag = tag;
    req.done = true;
    requests_.emplace(id, std::move(req));
    return id;
  }
  while (peer.sendCredits == 0) {
    ++creditStalls_;
    progressOrWait();
  }
  --peer.sendCredits;

  // Acquire an async staging slot (drain completions if all are busy).
  std::size_t slot = asyncSlotBusy_.size();
  for (;;) {
    for (std::size_t i = 0; i < asyncSlotBusy_.size(); ++i) {
      if (!asyncSlotBusy_[i]) {
        slot = i;
        break;
      }
    }
    if (slot != asyncSlotBusy_.size()) break;
    drainSendCompletions(peer, nullptr);
    progressOrWait();
  }
  asyncSlotBusy_[slot] = true;

  const mem::VirtAddr va =
      asyncStagingVa_ + static_cast<std::uint64_t>(slot) * frameBytes_;
  const std::vector<std::byte> frame =
      frameOf({kEager, tag, 0, data.size()}, data);
  nic_->memory().write(va, frame);

  const RequestId id = nextRequest_++;
  RequestState req;
  req.isRecv = false;
  req.peer = dst;
  req.tag = tag;
  req.slot = static_cast<std::uint32_t>(slot);
  req.desc = std::make_unique<VipDescriptor>(VipDescriptor::send(
      va, poolHandle_, static_cast<std::uint32_t>(frame.size())));
  require(nic_->postSend(peer.vi, req.desc.get()), "post isend");
  ++eagerSent_;
  requests_.emplace(id, std::move(req));
  return id;
}

Communicator::RequestId Communicator::irecv(std::uint32_t src, int tag) {
  if (src >= size_ || src == rank_) {
    throw std::invalid_argument("irecv: bad source rank");
  }
  const RequestId id = nextRequest_++;
  RequestState req;
  req.isRecv = true;
  req.peer = src;
  req.tag = tag;
  // An already-queued message matches immediately.
  Peer& peer = *peers_[src];
  for (auto it = peer.matched.begin(); it != peer.matched.end(); ++it) {
    if (it->tag == tag) {
      req.data = std::move(it->data);
      req.done = true;
      peer.matched.erase(it);
      break;
    }
  }
  if (!req.done) pendingRecvs_.push_back(id);
  requests_.emplace(id, std::move(req));
  return id;
}

bool Communicator::test(RequestId request) {
  auto it = requests_.find(request);
  if (it == requests_.end()) {
    throw std::invalid_argument("test: unknown request");
  }
  if (!it->second.done) {
    progress();
    if (!it->second.isRecv) {
      drainSendCompletions(*peers_[it->second.peer], nullptr);
    }
  }
  return it->second.done;
}

std::vector<std::byte> Communicator::wait(RequestId request) {
  for (;;) {
    {
      auto it = requests_.find(request);
      if (it == requests_.end()) {
        throw std::invalid_argument("wait: unknown request");
      }
      if (it->second.done) {
        std::vector<std::byte> data = std::move(it->second.data);
        requests_.erase(it);
        return data;
      }
      if (!it->second.isRecv) {
        drainSendCompletions(*peers_[it->second.peer], nullptr);
        if (it->second.done) continue;
      }
    }
    progressOrWait();
  }
}

void Communicator::waitAll(std::span<const RequestId> requests) {
  for (const RequestId id : requests) (void)wait(id);
}

std::vector<std::byte> Communicator::sendrecv(std::uint32_t dst, int sendTag,
                                              std::span<const std::byte> data,
                                              std::uint32_t src,
                                              int recvTag) {
  // Post the receive first, then send; blocking send() progresses all
  // channels while stalled, so symmetric exchanges cannot deadlock.
  const RequestId rx = irecv(src, recvTag);
  send(dst, sendTag, data);
  return wait(rx);
}

void Communicator::waitForCts(std::uint32_t dst, std::uint32_t seq) {
  Peer& peer = *peers_[dst];
  for (;;) {
    auto it = std::find(peer.ctsReady.begin(), peer.ctsReady.end(), seq);
    if (it != peer.ctsReady.end()) {
      peer.ctsReady.erase(it);
      return;
    }
    // Progress-all: the receiver may be mid-rendezvous toward a third
    // rank; serving its RTS here keeps multi-party rendezvous deadlock
    // free.
    progressOrWait();
  }
}

std::vector<std::byte> Communicator::recvServing(std::uint32_t src, int tag) {
  if (src >= size_ || src == rank_) {
    throw std::invalid_argument("recvServing: bad source rank");
  }
  Peer& peer = *peers_[src];
  for (;;) {
    for (auto it = peer.matched.begin(); it != peer.matched.end(); ++it) {
      if (it->tag == tag) {
        std::vector<std::byte> data = std::move(it->data);
        peer.matched.erase(it);
        return data;
      }
    }
    // A circuit-broken session never delivers again; surface that rather
    // than wait forever (poll() above may have drained its last frames).
    if (config_.recovery && peer.session->down()) {
      throw std::runtime_error("Communicator: peer session is down");
    }
    // Progress every channel; if idle, wait a polling quantum.
    progressOrWait();
  }
}

std::vector<std::byte> Communicator::recv(std::uint32_t src, int tag) {
  if (src >= size_ || src == rank_) {
    throw std::invalid_argument("recv: bad source rank");
  }
  // recv() always progresses every channel while waiting: matching
  // semantics are unaffected (messages land in per-source queues), and a
  // rank blocked in a collective must keep serving page fetches and other
  // service traffic, or layered protocols can starve each other.
  return recvServing(src, tag);
}

void Communicator::progressOrWait() {
  if (progress()) return;
  if (config_.recovery) {
    // Sessions are signal-driven: park on one live session's inbox instead
    // of spin-advancing. The 1 ms cap bounds how long other peers' traffic
    // (and each session's own reconnect machinery) can go unprogressed.
    for (std::uint32_t p = 0; p < size_; ++p) {
      if (p == rank_) continue;
      session::Session& s = *peers_[p]->session;
      if (s.down()) continue;
      std::vector<std::byte> msg;
      if (s.recv(msg, sim::msec(1))) handleFrame(p, msg);
      return;
    }
    throw std::runtime_error("Communicator: all peer sessions are down");
  }
  env_.self.advance(sim::usec(2), sim::CpuUse::Busy);
}

bool Communicator::progress() {
  bool any = false;
  for (std::uint32_t p = 0; p < size_; ++p) {
    if (p == rank_) continue;
    while (progressPeer(p, /*blockUntilSomething=*/false)) any = true;
  }
  return any;
}

bool Communicator::progressPeer(std::uint32_t peerRank,
                                bool blockUntilSomething) {
  Peer& peer = *peers_[peerRank];
  if (config_.recovery) {
    // Drain the session inbox; poll() also runs the session's own
    // progress, including inline recovery when the connection dropped.
    session::Session& s = *peer.session;
    std::vector<std::byte> msg;
    bool made = false;
    while (s.poll(msg)) {
      handleFrame(peerRank, msg);
      made = true;
    }
    while (blockUntilSomething && !made) {
      if (s.down()) {
        throw std::runtime_error("Communicator: peer session is down");
      }
      if (s.recv(msg, sim::msec(50))) {
        handleFrame(peerRank, msg);
        made = true;
      }
    }
    return made;
  }
  // Cheap emptiness peek (a user-space read of the CQ ring head) before
  // paying for a real CQDone: progress() sweeps every peer constantly and
  // must not burn poll cost on idle channels.
  if (!blockUntilSomething && peer.cq->depth() == 0 &&
      !peer.cq->overflowed()) {
    return false;
  }
  Vi* vi = nullptr;
  bool isRecv = false;
  VipResult r = nic_->cqDone(peer.cq, vi, isRecv);
  if (r == VipResult::VIP_NOT_DONE) {
    if (!blockUntilSomething) return false;
    require(nic_->pollCq(peer.cq, vi, isRecv), "poll peer CQ");
  } else {
    require(r, "peer CQ");
  }
  VipDescriptor* done = nullptr;
  require(nic_->recvDone(vi, done), "peer recv done");

  // Rendezvous payload chunk?
  for (auto& slot : rndvSlots_) {
    if (!slot) continue;
    RndvRecv& pending = slot->second;
    const bool mine =
        std::any_of(pending.descs.begin(), pending.descs.end(),
                    [done](const auto& d) { return d.get() == done; });
    if (!mine) continue;
    if (++pending.completed < pending.descs.size()) return true;
    // Final chunk: the whole message is in place.
    const std::uint32_t srcRank = slot->first;
    RndvRecv rr = std::move(slot->second);
    slot.reset();
    std::vector<std::byte> data(rr.bytes);
    nic_->memory().read(rr.va, data);
    require(nic_->deregisterMem(rr.handle), "deregister rndv recv");
    if (!dispatchService(srcRank, rr.tag, std::move(data))) {
      deliverInbound(srcRank, rr.tag, std::move(data));
    }
    return true;
  }

  // Otherwise it is a pool frame.
  PoolBuffer* buf = nullptr;
  for (PoolBuffer& candidate : peer.recvPool) {
    if (&candidate.desc == done) {
      buf = &candidate;
      break;
    }
  }
  if (buf == nullptr) {
    throw std::logic_error("Communicator: unknown receive completion");
  }
  std::vector<std::byte> frame(done->cs.status.ok() ? done->cs.length : 0);
  if (!frame.empty()) nic_->memory().read(buf->va, frame);
  repostPoolBuffer(peerRank, *buf);
  if (!frame.empty()) handleFrame(peerRank, frame);
  return true;
}

void Communicator::handleFrame(std::uint32_t src,
                               std::span<const std::byte> frame) {
  Peer& peer = *peers_[src];
  const FrameHeader h = unpackHeader(frame.data());
  std::span<const std::byte> payload = frame.subspan(kHeaderBytes);

  switch (h.kind) {
    case kEager: {
      std::vector<std::byte> data(payload.begin(), payload.end());
      if (!dispatchService(src, h.tag, std::move(data))) {
        deliverInbound(src, h.tag, std::move(data));
      }
      // Return eager credits in batches; the count rides in the seq field.
      // (Recovery mode has no credits: the session ring self-replenishes.)
      if (!config_.recovery &&
          ++peer.pendingCreditReturn >= config_.creditsPerPeer / 2) {
        const std::uint32_t returned = peer.pendingCreditReturn;
        peer.pendingCreditReturn = 0;
        ++creditMsgs_;
        sendFrame(src, kCredit, 0, returned, {});
      }
      break;
    }
    case kRts: {
      std::uint64_t msgBytes = 0;
      std::memcpy(&msgBytes, payload.data(), 8);
      // Post exact-size receives for every payload chunk, then clear to
      // send. Chunking mirrors the sender's (negotiated MTS).
      RndvRecv rr;
      rr.bytes = msgBytes;
      rr.tag = h.tag;
      rr.va = nic_->memory().alloc(msgBytes, mem::kPageSize);
      vipl::VipMemAttributes ma;
      ma.ptag = ptag_;
      require(nic_->registerMem(rr.va, msgBytes, ma, rr.handle),
              "register rndv recv");
      const std::uint64_t mts = peer.bulkVi->negotiatedMts();
      std::uint64_t off = 0;
      do {
        const std::uint64_t chunk = std::min(mts, msgBytes - off);
        rr.descs.push_back(std::make_unique<VipDescriptor>(
            VipDescriptor::recv(rr.va + off, rr.handle,
                                static_cast<std::uint32_t>(chunk))));
        require(nic_->postRecv(peer.bulkVi, rr.descs.back().get()),
                "post rndv recv");
        off += chunk;
      } while (off < msgBytes);
      auto freeSlot = std::find_if(rndvSlots_.begin(), rndvSlots_.end(),
                                   [](const auto& s) { return !s; });
      if (freeSlot == rndvSlots_.end()) {
        rndvSlots_.emplace_back();
        freeSlot = rndvSlots_.end() - 1;
      }
      freeSlot->emplace(src, std::move(rr));
      sendFrame(src, kCts, h.tag, h.seq, {});
      break;
    }
    case kCts:
      peer.ctsReady.push_back(h.seq);
      break;
    case kCredit:
      peer.sendCredits += h.seq;  // seq field carries the returned count
      break;
    case kChunk: {
      if (!peer.chunk || peer.chunk->seq != h.seq) {
        peer.chunk.emplace();
        peer.chunk->seq = h.seq;
        peer.chunk->tag = h.tag;
        peer.chunk->total = h.size;
      }
      Peer::ChunkAssembly& acc = *peer.chunk;
      acc.data.insert(acc.data.end(), payload.begin(), payload.end());
      if (acc.data.size() >= acc.total) {
        std::vector<std::byte> data = std::move(acc.data);
        const int tag = acc.tag;
        peer.chunk.reset();
        if (!dispatchService(src, tag, std::move(data))) {
          deliverInbound(src, tag, std::move(data));
        }
      }
      break;
    }
    default:
      throw std::logic_error("Communicator: unknown frame kind");
  }
}

void Communicator::deliverInbound(std::uint32_t src, int tag,
                                  std::vector<std::byte> data) {
  for (auto it = pendingRecvs_.begin(); it != pendingRecvs_.end(); ++it) {
    auto reqIt = requests_.find(*it);
    if (reqIt == requests_.end()) continue;
    RequestState& req = reqIt->second;
    if (req.peer == src && req.tag == tag) {
      req.data = std::move(data);
      req.done = true;
      pendingRecvs_.erase(it);
      return;
    }
  }
  peers_[src]->matched.push_back({tag, std::move(data)});
}

void Communicator::addServiceHandler(int tag, ServiceHandler handler) {
  if (tag < kServiceTagBase) {
    throw std::invalid_argument("service handlers require service tags");
  }
  if (taggedHandlers_.count(tag) != 0) {
    // Two layers claiming one tag would silently steal each other's
    // traffic; make the collision loud (one Window/DsmRegion per
    // communicator, or distinct tag offsets).
    throw std::logic_error("service tag already registered: " +
                           std::to_string(tag));
  }
  taggedHandlers_[tag] = std::move(handler);
}

bool Communicator::dispatchService(std::uint32_t src, int tag,
                                   std::vector<std::byte>&& data) {
  if (tag < kServiceTagBase) return false;
  auto it = taggedHandlers_.find(tag);
  if (it == taggedHandlers_.end()) return false;
  it->second(src, tag, std::move(data));
  return true;
}

vipl::Vi* Communicator::peerVi(std::uint32_t peer) const {
  // Recovery mode deliberately returns null: layers that post their own
  // RDMA descriptors on this VI would bypass the session's replay/dedup
  // framing and lose exactly-once semantics across reconnects.
  return peers_.at(peer) ? peers_[peer]->vi : nullptr;
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

void Communicator::barrier(bool serveAll) {
  if (size_ == 1) return;
  // Dissemination barrier: log2(n) rounds of send/recv at doubling hops.
  for (std::uint32_t step = 1; step < size_; step <<= 1) {
    const std::uint32_t dst = (rank_ + step) % size_;
    const std::uint32_t src = (rank_ + size_ - step) % size_;
    send(dst, kBarrierTag, {});
    if (serveAll) {
      (void)recvServing(src, kBarrierTag);
    } else {
      (void)recv(src, kBarrierTag);
    }
  }
}

void Communicator::broadcast(std::uint32_t root,
                             std::vector<std::byte>& data) {
  if (size_ == 1) return;
  const std::uint32_t vrank = (rank_ + size_ - root) % size_;
  std::uint32_t mask = 1;
  // Receive phase: the set bit determines the parent.
  while (mask < size_) {
    if (vrank & mask) {
      const std::uint32_t parent = ((vrank - mask) + root) % size_;
      data = recv(parent, kBcastTag);
      break;
    }
    mask <<= 1;
  }
  // Forward phase: cover children below the set bit.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_) {
      const std::uint32_t child = (vrank + mask + root) % size_;
      send(child, kBcastTag, data);
    }
    mask >>= 1;
  }
}

double Communicator::allreduceSum(double value) {
  std::array<double, 1> v{value};
  allreduceSum(v);
  return v[0];
}

void Communicator::allreduceSum(std::span<double> values) {
  if (size_ == 1) return;
  // Binomial reduce to rank 0, then broadcast.
  const std::uint32_t vrank = rank_;
  std::uint32_t mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      const std::uint32_t parent = vrank - mask;
      send(parent, kReduceTag,
           std::as_bytes(std::span<const double>(values.data(),
                                                 values.size())));
      break;
    }
    const std::uint32_t child = vrank + mask;
    if (child < size_) {
      const std::vector<std::byte> partial = recv(child, kReduceTag);
      if (partial.size() != values.size() * sizeof(double)) {
        throw std::logic_error("allreduceSum: partial size mismatch");
      }
      const double* p = reinterpret_cast<const double*>(partial.data());
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += p[i];
    }
    mask <<= 1;
  }
  std::vector<std::byte> result;
  if (rank_ == 0) {
    result.assign(reinterpret_cast<const std::byte*>(values.data()),
                  reinterpret_cast<const std::byte*>(values.data()) +
                      values.size() * sizeof(double));
  }
  broadcast(0, result);
  if (rank_ != 0) {
    std::memcpy(values.data(), result.data(), result.size());
  }
}

}  // namespace vibe::upper::msg
