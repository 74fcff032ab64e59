// Stream sockets over VIPL — the "sockets" programming-model layer from
// the paper's §1 motivation (its ref [17], "High Performance Sockets and
// RPC over Virtual Interface Architecture").
//
// Byte-stream semantics on top of VIA's message transport:
//   * one ReliableDelivery VI per connection;
//   * a preposted receive ring of fixed frames with credit flow control —
//     the sender never overruns the ring, like a TCP window;
//   * incoming DATA is drained into an unbounded user-space receive buffer
//     whenever the socket does any work (including while blocked sending),
//     so two peers writing simultaneously cannot deadlock;
//   * FIN frames give half-close semantics: recv returns 0 at EOF.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "session/session.hpp"
#include "vibe/cluster.hpp"
#include "vipl/provider.hpp"

namespace vibe::upper::sockets {

struct StreamConfig {
  std::uint32_t frameBytes = 8192;  // payload per ring frame
  std::uint32_t ringDepth = 16;     // preposted frames (= send window)
  nic::Reliability reliability = nic::Reliability::ReliableDelivery;
  /// Recovery mode: the byte stream rides a session::Session that
  /// reconnects automatically with exactly-once frame replay, so the
  /// stream survives injected connection breaks. The listener side must
  /// use acceptRecoverable(peerNode); sessionId must be unique per socket
  /// on a node. Credit flow control is not used (the session's receive
  /// ring self-replenishes and its replay buffer absorbs bursts). When
  /// off, nothing below is read and the wire behaviour is unchanged.
  bool recovery = false;
  session::ReconnectPolicy reconnect{};
  std::uint32_t sessionId = 0x2000;
  obs::MetricsRegistry* metrics = nullptr;  // optional, recovery only
  obs::SpanProfiler* spans = nullptr;       // optional, recovery only
};

class StreamSocket {
 public:
  /// Active open: connects to (host, port). Throws on failure/timeout.
  static std::unique_ptr<StreamSocket> connect(suite::NodeEnv& env,
                                               fabric::NodeId host,
                                               std::uint64_t port,
                                               const StreamConfig& config = {});

  ~StreamSocket();
  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  /// Writes the whole span (blocking; respects the peer's window).
  void sendAll(std::span<const std::byte> data);
  /// Reads at least one byte unless the peer closed (then returns 0).
  std::size_t recvSome(std::span<std::byte> out);
  /// Reads exactly out.size() bytes; throws on premature EOF.
  void recvAll(std::span<std::byte> out);

  /// Sends FIN; further sendAll calls throw. recv keeps draining.
  void close();
  bool peerClosed() const { return peerClosed_; }

  std::uint64_t bytesSent() const { return bytesSent_; }
  std::uint64_t bytesReceived() const { return bytesReceived_; }

 private:
  friend class StreamListener;
  StreamSocket(suite::NodeEnv& env, const StreamConfig& config);
  void setupBuffers();
  void makeSession(fabric::NodeId peer, std::uint64_t port, bool initiator);
  /// Handles one arrived frame, from the ring or the session; returns true
  /// if anything arrived (a flushed ring or a Down session reads as EOF).
  bool progressOnce(bool blockUntilSomething);
  /// The one handler of a received frame, from the ring or the session:
  /// DATA appends to the receive buffer, FIN marks EOF. The credit fields
  /// it updates are read only by the raw-VI window; a session never
  /// carries a CREDIT frame or a credit return.
  void handleFrame(std::span<const std::byte> frame);
  void returnCreditsIfDue();
  void sendFrame(std::uint8_t kind, std::span<const std::byte> payload,
                 std::uint32_t creditReturn);
  /// Like sendFrame but reports failure instead of throwing (close path).
  bool trySendFrame(std::uint8_t kind, std::span<const std::byte> payload,
                    std::uint32_t creditReturn);

  suite::NodeEnv& env_;
  vipl::Provider* nic_;
  StreamConfig config_;
  mem::PtagId ptag_ = 0;
  vipl::Vi* vi_ = nullptr;
  mem::MemHandle arenaHandle_ = 0;
  mem::VirtAddr ringVa_ = 0;
  mem::VirtAddr stagingVa_ = 0;
  std::vector<vipl::VipDescriptor> ring_;

  std::deque<std::byte> rxBuffer_;
  std::uint32_t sendCredits_ = 0;
  std::uint32_t pendingCreditReturn_ = 0;
  bool localClosed_ = false;
  bool peerClosed_ = false;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::unique_ptr<session::Session> session_;  // recovery mode only
};

class StreamListener {
 public:
  /// Passive open on `port` (a VIA discriminator).
  StreamListener(suite::NodeEnv& env, std::uint64_t port,
                 const StreamConfig& config = {});

  /// Blocks for the next incoming connection. Non-recovery mode only.
  std::unique_ptr<StreamSocket> accept(sim::Duration timeout = sim::kSecond *
                                                               10);

  /// Recovery mode: accepts a recoverable session from `peerNode` (the
  /// acceptor must know the peer to reject strays during reconnects).
  std::unique_ptr<StreamSocket> acceptRecoverable(fabric::NodeId peerNode);

 private:
  suite::NodeEnv& env_;
  std::uint64_t port_;
  StreamConfig config_;
};

}  // namespace vibe::upper::sockets
