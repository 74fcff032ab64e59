#include "upper/sockets/stream.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "vipl/vipl.hpp"

namespace vibe::upper::sockets {

namespace {

using vipl::PendingConn;
using vipl::VipDescriptor;
using vipl::VipResult;

constexpr sim::Duration kConnTimeout = sim::kSecond * 5;

// Frame: [kind u8][pad u8][creditReturn u16][payload...]
constexpr std::uint32_t kHeaderBytes = 4;
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kCredit = 2;  // pure credit return, no payload
constexpr std::uint8_t kFin = 3;

constexpr vipl::ResultCheck require{"sockets: "};

}  // namespace

StreamSocket::StreamSocket(suite::NodeEnv& env, const StreamConfig& config)
    : env_(env), nic_(&env.nic), config_(config) {
  ptag_ = nic_->createPtag();
  sendCredits_ = config_.ringDepth;
}

void StreamSocket::setupBuffers() {
  // Credits regulate DATA/FIN frames only (ringDepth of them in flight).
  // Standalone CREDIT frames ride outside the window, so the physical ring
  // holds extra slots for them: a peer emits at most one CREDIT per
  // ringDepth/2 frames it consumes, which bounds unprocessed control
  // frames well below ringDepth + 4 between two of our processing steps.
  const std::uint32_t slots = config_.ringDepth * 2 + 4;
  const std::uint32_t frame = config_.frameBytes + kHeaderBytes;
  const std::uint64_t ringBytes = static_cast<std::uint64_t>(slots) * frame;
  const std::uint64_t arenaBytes = ringBytes + frame;  // + send staging
  const mem::VirtAddr arena = nic_->memory().alloc(arenaBytes, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag_;
  require(nic_->registerMem(arena, arenaBytes, ma, arenaHandle_),
          "register arena");
  ringVa_ = arena;
  stagingVa_ = arena + ringBytes;
  ring_.resize(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    ring_[i] = VipDescriptor::recv(
        ringVa_ + static_cast<std::uint64_t>(i) * frame, arenaHandle_, frame);
    require(nic_->postRecv(vi_, &ring_[i]), "prepost ring");
  }
}

void StreamSocket::makeSession(fabric::NodeId peer, std::uint64_t port,
                               bool initiator) {
  session::SessionConfig sc;
  sc.sid = config_.sessionId;
  sc.remoteNode = peer;
  sc.discriminator = port;
  sc.initiator = initiator;
  sc.maxMessageBytes = config_.frameBytes + kHeaderBytes;
  sc.ringDepth = config_.ringDepth;
  sc.policy = config_.reconnect;
  sc.metrics = config_.metrics;
  sc.spans = config_.spans;
  session_ = std::make_unique<session::Session>(*nic_, sc);
  if (!session_->establish()) {
    throw std::runtime_error("sockets: session failed to establish");
  }
}

std::unique_ptr<StreamSocket> StreamSocket::connect(
    suite::NodeEnv& env, fabric::NodeId host, std::uint64_t port,
    const StreamConfig& config) {
  auto sock = std::unique_ptr<StreamSocket>(new StreamSocket(env, config));
  if (config.recovery) {
    sock->makeSession(host, port, /*initiator=*/true);
    return sock;
  }
  vipl::VipViAttributes va;
  va.ptag = sock->ptag_;
  va.reliabilityLevel = config.reliability;
  require(sock->nic_->createVi(va, nullptr, nullptr, sock->vi_), "create VI");
  sock->setupBuffers();
  require(sock->nic_->connectRequest(sock->vi_, {host, port}, kConnTimeout),
          "connect");
  return sock;
}

StreamListener::StreamListener(suite::NodeEnv& env, std::uint64_t port,
                               const StreamConfig& config)
    : env_(env), port_(port), config_(config) {}

std::unique_ptr<StreamSocket> StreamListener::acceptRecoverable(
    fabric::NodeId peerNode) {
  if (!config_.recovery) {
    throw std::logic_error("sockets: acceptRecoverable requires recovery");
  }
  auto sock = std::unique_ptr<StreamSocket>(new StreamSocket(env_, config_));
  sock->makeSession(peerNode, port_, /*initiator=*/false);
  return sock;
}

std::unique_ptr<StreamSocket> StreamListener::accept(sim::Duration timeout) {
  if (config_.recovery) {
    throw std::logic_error("sockets: recovery mode needs acceptRecoverable");
  }
  auto sock =
      std::unique_ptr<StreamSocket>(new StreamSocket(env_, config_));
  vipl::VipViAttributes va;
  va.ptag = sock->ptag_;
  va.reliabilityLevel = config_.reliability;
  require(sock->nic_->createVi(va, nullptr, nullptr, sock->vi_),
          "accept VI");
  sock->setupBuffers();
  PendingConn conn;
  require(sock->nic_->connectWait({env_.nodeId, port_}, timeout, conn),
          "connect wait");
  require(sock->nic_->connectAccept(conn, sock->vi_), "accept");
  return sock;
}

StreamSocket::~StreamSocket() {
  if (session_) {
    if (!localClosed_ && !session_->down()) {
      try {
        close();
      } catch (...) {
        // Destruction must not throw.
      }
    }
    return;
  }
  if (vi_ == nullptr) return;
  if (!localClosed_ && vi_->state() == vipl::ViState::Connected) {
    try {
      close();
    } catch (...) {
      // Destruction must not throw; the disconnect below still flushes.
    }
  }
  if (vi_->state() == vipl::ViState::Connected) {
    (void)nic_->disconnect(vi_);
  }
  (void)nic_->destroyVi(vi_);
}

bool StreamSocket::trySendFrame(std::uint8_t kind,
                                std::span<const std::byte> payload,
                                std::uint32_t creditReturn) {
  std::vector<std::byte> frame(kHeaderBytes + payload.size());
  frame[0] = std::byte(kind);
  const auto cr = static_cast<std::uint16_t>(creditReturn);
  std::memcpy(frame.data() + 2, &cr, 2);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  if (session_) {
    // The session retains the frame for replay across reconnects; false
    // only when its circuit breaker has tripped.
    return session_->send(frame);
  }
  nic_->memory().write(stagingVa_, frame);
  VipDescriptor d = VipDescriptor::send(
      stagingVa_, arenaHandle_, static_cast<std::uint32_t>(frame.size()));
  if (nic_->postSend(vi_, &d) != VipResult::VIP_SUCCESS) return false;
  VipDescriptor* done = nullptr;
  return nic_->pollSend(vi_, done) == VipResult::VIP_SUCCESS;
}

void StreamSocket::sendFrame(std::uint8_t kind,
                             std::span<const std::byte> payload,
                             std::uint32_t creditReturn) {
  if (!trySendFrame(kind, payload, creditReturn)) {
    // The peer tore the connection down mid-frame: surfaces as EOF on the
    // receive path; for the send path it is an error.
    peerClosed_ = true;
    throw std::runtime_error("sockets: connection lost while sending");
  }
}

bool StreamSocket::progressOnce(bool blockUntilSomething) {
  if (session_) {
    std::vector<std::byte> msg;
    if (session_->poll(msg)) {
      handleFrame(msg);
      return true;
    }
    if (!blockUntilSomething) return false;
    for (;;) {
      if (session_->down()) {
        peerClosed_ = true;  // recovery abandoned: surfaces as EOF
        return true;
      }
      if (session_->recv(msg, sim::msec(50))) {
        handleFrame(msg);
        return true;
      }
    }
  }
  VipDescriptor* done = nullptr;
  VipResult r = nic_->recvDone(vi_, done);
  if (r == VipResult::VIP_NOT_DONE) {
    if (!blockUntilSomething) return false;
    r = nic_->pollRecv(vi_, done);
  }
  if (r == VipResult::VIP_DESCRIPTOR_ERROR) {
    // Flushed by a disconnect: treat as peer close.
    peerClosed_ = true;
    return true;
  }
  require(r, "recv ring");
  const auto slot = static_cast<std::size_t>(done - ring_.data());
  const std::uint32_t frameBytes = config_.frameBytes + kHeaderBytes;
  const mem::VirtAddr slotVa =
      ringVa_ + static_cast<std::uint64_t>(slot) * frameBytes;
  std::vector<std::byte> frame(done->cs.length);
  nic_->memory().read(slotVa, frame);
  handleFrame(frame);
  // Repost the slot immediately: the ring is the receive window.
  ring_[slot] = VipDescriptor::recv(slotVa, arenaHandle_, frameBytes);
  require(nic_->postRecv(vi_, &ring_[slot]), "repost ring");
  returnCreditsIfDue();
  return true;
}

void StreamSocket::handleFrame(std::span<const std::byte> frame) {
  std::uint16_t creditReturn = 0;
  std::memcpy(&creditReturn, frame.data() + 2, 2);
  sendCredits_ += creditReturn;
  switch (static_cast<std::uint8_t>(frame[0])) {
    case kData:
      rxBuffer_.insert(rxBuffer_.end(), frame.begin() + kHeaderBytes,
                       frame.end());
      bytesReceived_ += frame.size() - kHeaderBytes;
      ++pendingCreditReturn_;  // a DATA frame consumed a ring slot
      break;
    case kCredit:
      break;  // outside the window: nothing to return for it
    case kFin:
      peerClosed_ = true;
      ++pendingCreditReturn_;
      break;
    default:
      throw std::logic_error("sockets: unknown frame kind");
  }
}

void StreamSocket::returnCreditsIfDue() {
  if (pendingCreditReturn_ < config_.ringDepth / 2 || peerClosed_) return;
  const std::uint32_t give = pendingCreditReturn_;
  pendingCreditReturn_ = 0;
  // A peer that already disconnected has no use for credits; note the
  // closure and keep draining what it left behind.
  if (!trySendFrame(kCredit, {}, give)) peerClosed_ = true;
}

void StreamSocket::sendAll(std::span<const std::byte> data) {
  if (localClosed_) throw std::logic_error("sockets: send after close");
  if (session_) {
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(config_.frameBytes, data.size() - off);
      sendFrame(kData, data.subspan(off, chunk), 0);
      bytesSent_ += chunk;
      off += chunk;
    }
    return;
  }
  std::size_t off = 0;
  while (off < data.size()) {
    while (sendCredits_ == 0) {
      // Blocked on the peer's window: keep draining our own ring so a
      // peer that is also sending gets its credits back (no deadlock when
      // both sides write simultaneously).
      progressOnce(/*blockUntilSomething=*/true);
      if (peerClosed_ && sendCredits_ == 0) {
        throw std::runtime_error("sockets: peer closed during send");
      }
    }
    const std::size_t chunk =
        std::min<std::size_t>(config_.frameBytes, data.size() - off);
    // Piggyback any due credit return on the data frame.
    const std::uint32_t give = pendingCreditReturn_;
    pendingCreditReturn_ = 0;
    --sendCredits_;
    sendFrame(kData, data.subspan(off, chunk), give);
    bytesSent_ += chunk;
    off += chunk;
  }
}

std::size_t StreamSocket::recvSome(std::span<std::byte> out) {
  while (rxBuffer_.empty()) {
    if (peerClosed_) return 0;  // EOF
    progressOnce(/*blockUntilSomething=*/true);
  }
  const std::size_t take = std::min(out.size(), rxBuffer_.size());
  for (std::size_t i = 0; i < take; ++i) {
    out[i] = rxBuffer_.front();
    rxBuffer_.pop_front();
  }
  return take;
}

void StreamSocket::recvAll(std::span<std::byte> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    const std::size_t got = recvSome(out.subspan(off));
    if (got == 0) {
      throw std::runtime_error("sockets: EOF before recvAll completed");
    }
    off += got;
  }
}

void StreamSocket::close() {
  if (localClosed_) return;
  if (session_) {
    if (!trySendFrame(kFin, {}, 0) || !session_->flush(sim::kSecond)) {
      peerClosed_ = true;
    }
    localClosed_ = true;
    return;
  }
  // FIN needs a window slot too.
  while (sendCredits_ == 0 && !peerClosed_) {
    progressOnce(/*blockUntilSomething=*/true);
  }
  if (sendCredits_ > 0) {
    --sendCredits_;
    const std::uint32_t give = pendingCreditReturn_;
    pendingCreditReturn_ = 0;
    // A peer that already disconnected (it read everything and left before
    // our FIN's ack returned) is not an error for close().
    if (!trySendFrame(kFin, {}, give)) peerClosed_ = true;
  }
  localClosed_ = true;
}

}  // namespace vibe::upper::sockets
