#include "session/session.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "simcore/trace.hpp"

namespace vibe::session {

namespace {

// Session frame header, little-endian at the front of every payload:
//   [kind u8][pad u8][sid u16][epoch u32][seq u64]
// For Data frames `seq` is the message sequence number; for Hello frames it
// is the sender's cumulative-delivered watermark.
constexpr std::uint32_t kHeaderBytes = 16;
constexpr std::uint8_t kHello = 1;
constexpr std::uint8_t kData = 2;

struct FrameHeader {
  std::uint8_t kind = 0;
  std::uint16_t sid = 0;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
};

void packHeader(std::byte* p, const FrameHeader& h) {
  std::memset(p, 0, kHeaderBytes);
  std::memcpy(p + 0, &h.kind, 1);
  std::memcpy(p + 2, &h.sid, 2);
  std::memcpy(p + 4, &h.epoch, 4);
  std::memcpy(p + 8, &h.seq, 8);
}

FrameHeader unpackHeader(const std::byte* p) {
  FrameHeader h;
  std::memcpy(&h.kind, p + 0, 1);
  std::memcpy(&h.sid, p + 2, 2);
  std::memcpy(&h.epoch, p + 4, 4);
  std::memcpy(&h.seq, p + 8, 8);
  return h;
}

std::string fmt(const char* f, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

const char* toString(SessionState s) {
  switch (s) {
    case SessionState::Idle: return "Idle";
    case SessionState::Connecting: return "Connecting";
    case SessionState::Established: return "Established";
    case SessionState::Recovering: return "Recovering";
    case SessionState::Down: return "Down";
  }
  return "?";
}

Session::Session(vipl::Provider& nic, SessionConfig cfg)
    : nic_(nic),
      cfg_(cfg),
      engine_(nic.engine()),
      recvSignal_(nic.engine()),
      jitter_(cfg.policy.seed ^ (sim::hashTag("session") + cfg.sid)) {
  if (cfg_.ringDepth < 2) throw std::invalid_argument("session: ringDepth < 2");
  slotBytes_ = kHeaderBytes + cfg_.maxMessageBytes;
  const std::size_t sendSlots = std::max<std::size_t>(2, cfg_.ringDepth / 2);
  slots_.resize(sendSlots);
  ring_.resize(cfg_.ringDepth);

  ptag_ = nic_.createPtag();
  const std::uint64_t arenaBytes =
      static_cast<std::uint64_t>(sendSlots + 1 + cfg_.ringDepth) * slotBytes_;
  arena_ = nic_.memory().alloc(arenaBytes, 256);
  vipl::VipMemAttributes mattrs;
  mattrs.ptag = ptag_;
  if (nic_.registerMem(arena_, arenaBytes, mattrs, handle_) !=
      vipl::VipResult::VIP_SUCCESS) {
    throw std::runtime_error("session: arena registration failed");
  }

  vipl::VipViAttributes vattrs;
  // ReliableReception, not ReliableDelivery: an RD send can be acked (and
  // its completion trimmed from the replay buffer) yet lost before
  // placement if the connection breaks in the window between; RR completes
  // only after placement, so an Ok completion proves delivery.
  vattrs.reliabilityLevel = nic::Reliability::ReliableReception;
  vattrs.ptag = ptag_;
  if (nic_.createVi(vattrs, nullptr, nullptr, vi_) !=
      vipl::VipResult::VIP_SUCCESS) {
    throw std::runtime_error("session: VI creation failed");
  }

  scope_ = "node" + std::to_string(nic_.nodeId()) + "/session" +
           std::to_string(cfg_.sid);
  alive_ = std::make_shared<int>(0);
}

Session::~Session() {
  // Pending completions become no-ops (our descriptors are about to die);
  // notify handlers already in flight drop out via the expired alive_ token.
  if (vi_ != nullptr) nic_.flushViPending(vi_);
}

// --- plumbing ---------------------------------------------------------------

sim::Process& Session::self() const {
  sim::Process* p = engine_.currentProcess();
  if (p == nullptr) {
    throw std::logic_error("session: blocking call outside process context");
  }
  return *p;
}

template <typename... Args>
void Session::traceRec(const char* format, Args... args) const {
  sim::trace(nic_.device().tracer(), engine_.now(),
             sim::TraceCategory::Session, nic_.nodeId(),
             [&] { return fmt(format, args...); });
}

obs::Counter* Session::counter(const char* name) const {
  if (cfg_.metrics == nullptr) return nullptr;
  return &cfg_.metrics->counter(obs::scoped(scope_, name));
}

mem::VirtAddr Session::sendSlotVa(std::size_t i) const {
  return arena_ + i * slotBytes_;
}
mem::VirtAddr Session::helloVa() const {
  return arena_ + slots_.size() * slotBytes_;
}
mem::VirtAddr Session::ringVa(std::size_t i) const {
  return arena_ + (slots_.size() + 1 + i) * slotBytes_;
}

sim::Duration Session::backoffDelay(std::uint32_t attempt) {
  const ReconnectPolicy& pol = cfg_.policy;
  sim::Duration d = pol.backoffBase;
  for (std::uint32_t i = 1; i < attempt && d < pol.backoffCap; ++i) d *= 2;
  d = std::min(d, pol.backoffCap);
  if (pol.jitterFrac > 0.0) {
    // 53-bit mantissa draw in [0, 1) from the session's own stream.
    const double u =
        static_cast<double>(jitter_() >> 11) / 9007199254740992.0;
    const double f = 1.0 + pol.jitterFrac * (2.0 * u - 1.0);
    d = static_cast<sim::Duration>(static_cast<double>(d) * f);
  }
  return std::max<sim::Duration>(d, sim::usec(1));
}

// --- establishment / recovery ------------------------------------------------

bool Session::establish() {
  if (state_ != SessionState::Idle) return state_ == SessionState::Established;
  state_ = SessionState::Connecting;
  return connectLoop();
}

bool Session::reopen() {
  if (state_ == SessionState::Established) return true;
  if (state_ != SessionState::Down) return false;
  if (!cfg_.initiator) {
    // A passive reopen can only succeed while the peer is redialing, so
    // peek with a 1 us wait instead of burning the whole retry schedule.
    const vipl::VipNetAddress local{nic_.nodeId(), cfg_.discriminator};
    vipl::PendingConn conn;
    if (nic_.connectWait(local, sim::usec(1), conn) !=
        vipl::VipResult::VIP_SUCCESS) {
      return false;
    }
    claimed_ = conn;
  }
  ++stats_.reopens;
  if (obs::Counter* c = counter("session.reopened")) c->add();
  traceRec("reopen sid=%u", cfg_.sid);
  // downAt_ still marks the original break, so a successful revival's
  // MTTR covers the whole outage including the Down dwell.
  state_ = SessionState::Recovering;
  return connectLoop();
}

void Session::markBroken() {
  if (state_ != SessionState::Established) return;
  downAt_ = engine_.now();
  state_ = SessionState::Recovering;
  traceRec("down sid=%u epoch=%u", cfg_.sid, vi_->epoch());
}

bool Session::connectLoop() {
  const ReconnectPolicy& pol = cfg_.policy;
  std::uint32_t attempt = 0;
  for (std::uint32_t round = 0; round < pol.maxRounds; ++round) {
    for (std::uint32_t a = 0; a < pol.attemptsPerRound; ++a) {
      if (establishOnce()) {
        onEstablished(attempt + 1);
        return true;
      }
      ++attempt;
      self().advance(backoffDelay(attempt), sim::CpuUse::Idle);
    }
  }
  state_ = SessionState::Down;
  traceRec("halt sid=%u attempts=%u", cfg_.sid, attempt);
  if (obs::Counter* c = counter("session.halted")) c->add();
  recvSignal_.notifyAll();
  return false;
}

bool Session::establishOnce() {
  ++stats_.connectAttempts;
  const ReconnectPolicy& pol = cfg_.policy;
  if (cfg_.initiator) {
    if (!prepareEndpoint()) return false;
    const vipl::VipNetAddress remote{cfg_.remoteNode, cfg_.discriminator};
    if (nic_.connectRequest(vi_, remote, pol.connectTimeout) !=
        vipl::VipResult::VIP_SUCCESS) {
      return false;
    }
  } else {
    vipl::PendingConn conn;
    if (!claimRequest(pol.connectTimeout, conn)) return false;
    if (!prepareEndpoint()) return false;
    if (nic_.connectAccept(conn, vi_) != vipl::VipResult::VIP_SUCCESS) {
      return false;
    }
  }
  return helloExchange();
}

bool Session::claimRequest(sim::Duration timeout, vipl::PendingConn& out) {
  const vipl::VipNetAddress local{nic_.nodeId(), cfg_.discriminator};
  if (claimed_) {
    out = *claimed_;
    claimed_.reset();
  } else if (nic_.connectWait(local, timeout, out) !=
             vipl::VipResult::VIP_SUCCESS) {
    return false;
  }
  // Repeated reconnect attempts may have queued several requests under the
  // provider's grace window; the newest is the one whose requester is still
  // waiting, so reject the older ones.
  vipl::PendingConn extra;
  while (nic_.connectWait(local, sim::usec(1), extra) ==
         vipl::VipResult::VIP_SUCCESS) {
    nic_.connectReject(out);
    out = extra;
  }
  if (out.remoteNode != cfg_.remoteNode) {
    nic_.connectReject(out);
    return false;
  }
  return true;
}

bool Session::prepareEndpoint() {
  const vipl::ViState st = vi_->state();
  bool reset = false;
  if (st == vipl::ViState::Connected || st == vipl::ViState::Error ||
      st == vipl::ViState::Disconnected) {
    if (nic_.resetVi(vi_) != vipl::VipResult::VIP_SUCCESS) return false;
    reset = true;
  } else if (st != vipl::ViState::Idle) {
    return false;
  }
  helloSeen_ = false;
  probeInFlight_ = false;
  if (reset || epochGen_ == 0) {
    // Fresh incarnation: fence stale notify events, free every send slot,
    // requeue the whole replay window, and rebuild the receive ring.
    ++epochGen_;
    for (SendSlot& s : slots_) s.busy = false;
    postedCount_ = 0;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = vipl::VipDescriptor::recv(ringVa(i), handle_, slotBytes_);
      if (nic_.postRecv(vi_, &ring_[i]) != vipl::VipResult::VIP_SUCCESS) {
        return false;
      }
    }
    for (std::size_t i = 0; i < ring_.size(); ++i) armNotify();
  }
  return true;
}

bool Session::postHello() {
  FrameHeader h;
  h.kind = kHello;
  h.sid = static_cast<std::uint16_t>(cfg_.sid);
  h.epoch = vi_->epoch();
  h.seq = rxDelivered_;
  std::byte buf[kHeaderBytes];
  packHeader(buf, h);
  nic_.memory().write(helloVa(), buf);
  helloDesc_ = vipl::VipDescriptor::send(helloVa(), handle_, kHeaderBytes);
  return nic_.postSend(vi_, &helloDesc_) == vipl::VipResult::VIP_SUCCESS;
}

bool Session::helloExchange() {
  const ReconnectPolicy& pol = cfg_.policy;
  if (!postHello()) return false;
  vipl::VipDescriptor* done = nullptr;
  if (nic_.sendWait(vi_, pol.helloTimeout, done) !=
          vipl::VipResult::VIP_SUCCESS ||
      done != &helloDesc_ || !done->cs.status.ok()) {
    return false;
  }
  // Wait for the peer's Hello (the notify handler records it).
  const sim::SimTime deadline = engine_.now() + pol.helloTimeout;
  while (!helloSeen_) {
    if (vi_->state() != vipl::ViState::Connected) return false;
    const sim::SimTime now = engine_.now();
    if (now >= deadline) return false;
    self().awaitFor(recvSignal_,
                    std::min<sim::Duration>(deadline - now, sim::msec(1)));
  }
  // The peer has everything at or below its watermark; trim, then requeue
  // the remainder for this epoch.
  while (!replay_.empty() && replay_.front().seq <= peerDelivered_) {
    replay_.pop_front();
  }
  postedCount_ = 0;
  std::uint64_t replayed = 0;
  for (const Outbound& o : replay_) {
    if (o.everPosted) ++replayed;
  }
  if (replayed > 0) {
    stats_.replayed += replayed;
    if (obs::Counter* c = counter("session.replayed")) c->add(replayed);
    traceRec("replay sid=%u epoch=%u n=%llu", cfg_.sid, vi_->epoch(),
             static_cast<unsigned long long>(replayed));
  }
  return true;
}

void Session::onEstablished(std::uint32_t attempts) {
  state_ = SessionState::Established;
  lastAcceptPoll_ = engine_.now();
  if (wasEstablished_) {
    const sim::Duration mttr = engine_.now() - downAt_;
    ++stats_.reconnects;
    stats_.lastMttr = mttr;
    stats_.totalDowntime += mttr;
    if (obs::Counter* c = counter("session.reconnects")) c->add();
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->histogram(obs::scoped(scope_, "session.mttr_ns"))
          .add(mttr);
    }
    if (cfg_.spans != nullptr) {
      cfg_.spans->emit(obs::Stage::Reconnect, nic_.nodeId(),
                       static_cast<std::uint32_t>(vi_->endpointId()), downAt_,
                       engine_.now());
    }
    traceRec("up sid=%u epoch=%u mttr_us=%llu attempts=%u", cfg_.sid,
             vi_->epoch(),
             static_cast<unsigned long long>(
                 mttr / sim::kMicrosecond),
             attempts);
  } else {
    wasEstablished_ = true;
    traceRec("open sid=%u epoch=%u attempts=%u", cfg_.sid, vi_->epoch(),
             attempts);
  }
  pump();
}

void Session::maybeAcceptPoll() {
  if (cfg_.initiator || state_ != SessionState::Established) return;
  const sim::SimTime now = engine_.now();
  if (now - lastAcceptPoll_ < cfg_.policy.acceptPollInterval) return;
  lastAcceptPoll_ = now;
  const vipl::VipNetAddress local{nic_.nodeId(), cfg_.discriminator};
  vipl::PendingConn conn;
  if (nic_.connectWait(local, sim::usec(1), conn) !=
      vipl::VipResult::VIP_SUCCESS) {
    return;
  }
  // A connect request while we believe the connection is up means the peer
  // lost its side and is reconnecting: treat our half-open side as down.
  claimed_ = conn;
  markBroken();
  connectLoop();
}

// --- datapath ---------------------------------------------------------------

bool Session::send(std::span<const std::byte> msg) {
  if (state_ == SessionState::Idle || state_ == SessionState::Down) {
    return false;
  }
  if (msg.size() > cfg_.maxMessageBytes) return false;
  Outbound o;
  o.seq = nextSeq_++;
  o.payload.assign(msg.begin(), msg.end());
  replay_.push_back(std::move(o));
  ++stats_.sent;
  if (obs::Counter* c = counter("session.sent")) c->add();
  traceRec("send sid=%u dst=%u seq=%llu", cfg_.sid, cfg_.remoteNode,
           static_cast<unsigned long long>(nextSeq_ - 1));
  if (state_ == SessionState::Established) {
    drainSendCompletions();
    pump();
  }
  return true;
}

void Session::pump() {
  if (state_ != SessionState::Established) return;
  while (postedCount_ < replay_.size()) {
    SendSlot* slot = nullptr;
    for (SendSlot& s : slots_) {
      if (!s.busy) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) return;
    Outbound& o = replay_[postedCount_];
    const std::size_t idx = static_cast<std::size_t>(slot - slots_.data());
    std::vector<std::byte> frame(kHeaderBytes + o.payload.size());
    FrameHeader h;
    h.kind = kData;
    h.sid = static_cast<std::uint16_t>(cfg_.sid);
    h.epoch = vi_->epoch();
    h.seq = o.seq;
    packHeader(frame.data(), h);
    std::copy(o.payload.begin(), o.payload.end(),
              frame.begin() + kHeaderBytes);
    nic_.memory().write(sendSlotVa(idx), frame);
    slot->desc = vipl::VipDescriptor::send(
        sendSlotVa(idx), handle_,
        static_cast<std::uint32_t>(frame.size()));
    if (nic_.postSend(vi_, &slot->desc) != vipl::VipResult::VIP_SUCCESS) {
      return;  // connection just dropped; recovery requeues everything
    }
    slot->busy = true;
    slot->seq = o.seq;
    o.everPosted = true;
    ++postedCount_;
  }
}

void Session::drainSendCompletions() {
  vipl::VipDescriptor* d = nullptr;
  while (nic_.sendDone(vi_, d) == vipl::VipResult::VIP_SUCCESS) {
    handleSendCompletion(d);
  }
}

void Session::handleSendCompletion(vipl::VipDescriptor* d) {
  if (d == &helloDesc_) {  // liveness probe / late hello: no payload
    probeInFlight_ = false;
    return;
  }
  SendSlot* slot = nullptr;
  for (SendSlot& s : slots_) {
    if (d == &s.desc) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr || !slot->busy) return;
  slot->busy = false;
  if (!d->cs.status.ok()) return;  // flushed by a break; replay covers it
  // ReliableReception: an Ok completion proves placement at the peer.
  // Completions confirm in post order, i.e. the replay front.
  if (!replay_.empty() && replay_.front().seq == slot->seq) {
    replay_.pop_front();
    if (postedCount_ > 0) --postedCount_;
  }
}

void Session::armNotify() {
  std::weak_ptr<int> alive = alive_;
  const std::uint64_t gen = epochGen_;
  nic_.recvNotify(vi_, [this, gen, alive](vipl::VipDescriptor* d) {
    if (alive.expired()) return;
    onRecvInterrupt(d, gen);
  });
}

void Session::onRecvInterrupt(vipl::VipDescriptor* d, std::uint64_t gen) {
  if (gen != epochGen_) return;  // stale incarnation: descriptor re-posted
                                 // (or torn down) by prepareEndpoint already
  if (!d->cs.status.ok()) {
    // Break flush: wake any blocked reader so it runs recovery. The ring
    // slot is rebuilt by prepareEndpoint; do not repost or re-arm here.
    recvSignal_.notifyAll();
    return;
  }
  const std::size_t idx = static_cast<std::size_t>(d - ring_.data());
  const std::uint32_t got = d->cs.length;
  if (got >= kHeaderBytes) {
    std::vector<std::byte> frame(got);
    nic_.memory().read(ringVa(idx), frame);
    const FrameHeader h = unpackHeader(frame.data());
    if (h.kind == kHello) {
      peerEpoch_ = h.epoch;
      peerDelivered_ = h.seq;
      helloSeen_ = true;
    } else if (h.kind == kData) {
      if (h.epoch != vi_->remoteEpoch()) {
        ++stats_.staleDropped;
        if (obs::Counter* c = counter("session.stale")) c->add();
        traceRec("stale sid=%u src=%u epoch=%u seq=%llu", cfg_.sid,
                 cfg_.remoteNode, h.epoch,
                 static_cast<unsigned long long>(h.seq));
      } else if (h.seq <= rxDelivered_) {
        ++stats_.deduped;
        if (obs::Counter* c = counter("session.deduped")) c->add();
        traceRec("dedup sid=%u src=%u seq=%llu", cfg_.sid,
                 cfg_.remoteNode,
                 static_cast<unsigned long long>(h.seq));
      } else if (h.seq == rxDelivered_ + 1) {
        rxDelivered_ = h.seq;
        ++stats_.delivered;
        if (obs::Counter* c = counter("session.delivered")) c->add();
        inbox_.emplace_back(frame.begin() + kHeaderBytes, frame.end());
        traceRec("deliver sid=%u src=%u seq=%llu", cfg_.sid,
                 cfg_.remoteNode,
                 static_cast<unsigned long long>(h.seq));
      } else {
        // Impossible under in-order reliable reception; surfaced so the
        // invariant checker fails the run instead of silently losing data.
        traceRec("gap sid=%u src=%u seq=%llu expected=%llu", cfg_.sid,
                 cfg_.remoteNode,
                 static_cast<unsigned long long>(h.seq),
                 static_cast<unsigned long long>(rxDelivered_ + 1));
      }
    }
  }
  *d = vipl::VipDescriptor::recv(ringVa(idx), handle_, slotBytes_);
  if (nic_.postRecv(vi_, d) == vipl::VipResult::VIP_SUCCESS) armNotify();
  recvSignal_.notifyAll();
}

// --- progress / blocking surface ---------------------------------------------

void Session::progress() {
  if (state_ == SessionState::Idle || state_ == SessionState::Down) return;
  drainSendCompletions();
  if (vi_->state() != vipl::ViState::Connected) {
    markBroken();
    connectLoop();
    return;
  }
  maybeAcceptPoll();
  if (state_ != SessionState::Established) return;
  pump();
  if (cfg_.initiator && cfg_.policy.probeInterval > 0 && replay_.empty() &&
      !probeInFlight_ &&
      engine_.now() - lastProbe_ >= cfg_.policy.probeInterval) {
    // Idle liveness probe: a Hello re-announcing our watermark. If the
    // passive side silently lost its endpoint, this send trips the RTO
    // budget and converts the half-open link into a detected break.
    lastProbe_ = engine_.now();
    if (postHello()) probeInFlight_ = true;
  }
}

bool Session::recv(std::vector<std::byte>& out, sim::Duration timeout) {
  const sim::SimTime deadline = engine_.now() + timeout;
  for (;;) {
    progress();
    if (!inbox_.empty()) {
      out = std::move(inbox_.front());
      inbox_.pop_front();
      return true;
    }
    if (state_ == SessionState::Down) return false;
    const sim::SimTime now = engine_.now();
    if (now >= deadline) return false;
    // Chunked waits keep the passive side's half-open detection live. The
    // chunk is deliberately coarser than acceptPollInterval: recvSignal_
    // already wakes us the moment a message or state change lands, so the
    // timer only bounds how stale half-open detection can get while idle,
    // and a 1 ms bound is far below the initiator's ~20 ms connect retry.
    self().awaitFor(recvSignal_,
                    std::min<sim::Duration>(deadline - now, sim::msec(1)));
  }
}

bool Session::poll(std::vector<std::byte>& out) {
  progress();
  if (inbox_.empty()) return false;
  out = std::move(inbox_.front());
  inbox_.pop_front();
  return true;
}

bool Session::flush(sim::Duration timeout) {
  const sim::SimTime deadline = engine_.now() + timeout;
  for (;;) {
    progress();
    if (replay_.empty()) return true;
    if (state_ == SessionState::Down) return false;
    const sim::SimTime now = engine_.now();
    if (now >= deadline) return false;
    vipl::VipDescriptor* d = nullptr;
    if (nic_.sendWait(vi_, std::min<sim::Duration>(deadline - now,
                                                   sim::msec(1)),
                      d) == vipl::VipResult::VIP_SUCCESS) {
      handleSendCompletion(d);
    }
  }
}

}  // namespace vibe::session
