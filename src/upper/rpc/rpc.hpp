// Client/server RPC layer over VIPL — the programming model behind the
// paper's §3.3.1 transaction benchmark, built the way VIBe's results
// recommend: the server multiplexes every client VI through one completion
// queue (cheap on hardware/host implementations, a measured 2-5 us tax on
// firmware ones), buffers are registered once, and requests/replies ride
// preposted descriptor rings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/admission.hpp"
#include "session/session.hpp"
#include "vibe/cluster.hpp"
#include "vipl/provider.hpp"

namespace vibe::upper::rpc {

/// Reply status codes on the wire (RpcHeader::status).
constexpr std::uint32_t kStatusOk = 0;
constexpr std::uint32_t kStatusUnknownMethod = 1;

struct RpcConfig {
  std::uint32_t maxMessageBytes = 32 * 1024;  // header + payload limit
  /// Server completion-queue depth. Completions pile up while the server
  /// is still inside acceptClients() (every connected client's first call
  /// lands unreaped), so incasts beyond ~1k clients must size this past
  /// the client count or the first pollCq() reports an overflow.
  std::uint32_t serverCqEntries = 1024;
  std::uint64_t discriminator = 0x5250'4331;  // "RPC1"
  nic::Reliability reliability = nic::Reliability::ReliableDelivery;
  /// Recovery mode: each client connection rides a session::Session that
  /// reconnects automatically and replays/dedups requests and replies, so
  /// calls survive injected connection breaks exactly once. The server must
  /// use the acceptClients(clientNodes) overload, and each client must set
  /// a unique clientId (sessions reconnect on a per-client discriminator
  /// derived from it). When off, nothing below is read and the wire
  /// behaviour is unchanged.
  bool recovery = false;
  session::ReconnectPolicy reconnect{};
  std::uint32_t clientId = 0;  // recovery only: index in [0, clients)
};

/// Knobs for RpcServer::serveOpenLoop.
struct ServeOptions {
  /// The loop returns once it has made no progress (no request enqueued,
  /// served, or shed) for this much virtual time. Guards against clients
  /// that went Down without sending their shutdown message.
  sim::Duration idleTimeout = sim::kSecond;
  /// When > 0, a Down client session gets a Session::reopen() attempt at
  /// most this often, so deliberately departed clients can rejoin. 0
  /// leaves Down clients down (serveSessions behaviour).
  sim::Duration reopenInterval = 0;
};

/// One completed async call, surfaced by RpcClient::pollReply/waitReply.
struct AsyncReply {
  std::uint32_t token = 0;
  std::uint32_t status = 0;  // kStatusOk / kStatusUnknownMethod
  std::vector<std::byte> payload;
};

/// Server: accepts clients, dispatches registered handlers.
class RpcServer {
 public:
  using Handler =
      std::function<std::vector<std::byte>(std::span<const std::byte>)>;

  RpcServer(suite::NodeEnv& env, const RpcConfig& config = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers the handler for a method id (before accepting clients).
  void registerMethod(std::uint32_t method, Handler handler);

  /// Blocks until `n` clients have connected. Non-recovery mode only.
  void acceptClients(std::uint32_t n);

  /// Recovery mode: accepts one recoverable session per listed client
  /// node. Client i of clientNodes must construct its RpcClient with
  /// clientId == i.
  void acceptClients(std::span<const fabric::NodeId> clientNodes);

  /// Serves requests until every connected client has sent a shutdown
  /// message (method 0 is reserved for shutdown).
  void serve();

  /// Open-loop serving with admission control (recovery mode only): every
  /// inbound request goes through `queue` (which may reject, evict, or
  /// shed it — those requests are dropped without a reply, so the client
  /// observes a deadline miss, exactly like a real overloaded server);
  /// admitted requests run their registered handler and get a reply.
  /// Returns when every client has sent its shutdown message, or when no
  /// progress was made for `opts.idleTimeout`. Requests still queued at
  /// that point are abandoned (visible as admitted - served in the queue
  /// stats). Arguments are expected to carry the serve::stampArgs prefix
  /// (generation time + deadline); the stamp is stripped before the
  /// handler runs. Unstamped requests shorter than the stamp are passed
  /// through with no deadline.
  void serveOpenLoop(serve::AdmissionQueue& queue,
                     const ServeOptions& opts = {});

  std::uint64_t requestsServed() const { return served_; }

 private:
  struct Client {
    vipl::Vi* vi = nullptr;
    mem::VirtAddr ringVa = 0;     // recv ring buffers
    mem::VirtAddr replyVa = 0;    // reply staging
    mem::MemHandle arenaHandle = 0;
    std::vector<vipl::VipDescriptor> ring;
    bool active = true;
    std::unique_ptr<session::Session> session;  // recovery mode only
  };

  void handleRequest(Client& c, vipl::VipDescriptor* done);
  void handleSessionRequest(Client& c, std::span<const std::byte> request);
  void serveSessions();
  void enqueueOpenLoop(Client& c, std::uint32_t clientIndex,
                       std::span<const std::byte> request,
                       serve::AdmissionQueue& queue);
  void replyTo(std::uint32_t clientIndex, const serve::Request& req);
  /// The one reply builder of all three serving paths: runs `method`'s
  /// handler on `args` (status kStatusUnknownMethod and no payload when
  /// none is registered) and frames the reply. Throws std::length_error
  /// when the frame would exceed maxMessageBytes.
  std::vector<std::byte> buildReply(std::uint32_t method, std::uint32_t token,
                                    std::span<const std::byte> args);
  bool anyActive() const;

  suite::NodeEnv& env_;
  vipl::Provider* nic_;
  RpcConfig config_;
  mem::PtagId ptag_ = 0;
  vipl::Cq* cq_ = nullptr;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<vipl::Vi*, Client*> byVi_;
  std::unordered_map<std::uint32_t, Handler> methods_;
  std::uint64_t served_ = 0;
};

/// Client: one connection, synchronous calls.
class RpcClient {
 public:
  RpcClient(suite::NodeEnv& env, fabric::NodeId serverNode,
            const RpcConfig& config = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Synchronous call; throws on transport errors.
  std::vector<std::byte> call(std::uint32_t method,
                              std::span<const std::byte> args);

  /// Open-loop send (recovery mode only): fires the request and returns
  /// its token (> 0) without waiting for the reply — the session layer
  /// buffers and replays it across reconnects. Returns 0 when the
  /// session's circuit breaker has tripped (the request is not sent).
  std::uint32_t callAsync(std::uint32_t method,
                          std::span<const std::byte> args);

  /// Non-blocking reply pickup for callAsync (recovery mode only).
  /// Replies can complete out of token order when the server sheds, so
  /// match on AsyncReply::token.
  bool pollReply(AsyncReply& out);

  /// Blocking variant: waits up to `timeout` for one reply.
  bool waitReply(AsyncReply& out, sim::Duration timeout);

  /// True when the underlying session's circuit breaker has tripped
  /// (recovery mode only; false otherwise).
  bool down() const;

  /// Revives a Down session via Session::reopen (recovery mode only).
  bool reopen();

  /// Tells the server this client is done (reserved method 0).
  void shutdown();

  double lastRoundTripUsec() const { return lastRttUsec_; }

  /// Recovery-mode session accounting (reconnects, replay, reopens);
  /// null when recovery is off.
  const session::SessionStats* sessionStats() const {
    return session_ ? &session_->stats() : nullptr;
  }

 private:
  struct Outgoing {
    std::uint32_t token = 0;
    std::vector<std::byte> frame;
  };
  /// The one request builder of call, callAsync and shutdown: frames
  /// `args` under the next token (the shutdown method takes token 0).
  /// Throws std::length_error when the frame would exceed maxMessageBytes.
  Outgoing buildRequest(std::uint32_t method, std::span<const std::byte> args);

  suite::NodeEnv& env_;
  vipl::Provider* nic_;
  RpcConfig config_;
  mem::PtagId ptag_ = 0;
  mem::MemHandle arenaHandle_ = 0;
  vipl::Vi* vi_ = nullptr;
  mem::VirtAddr sendVa_ = 0;
  mem::VirtAddr recvVa_ = 0;
  std::uint32_t nextTokenValue_ = 1;
  double lastRttUsec_ = 0;
  std::unique_ptr<session::Session> session_;  // recovery mode only
};

}  // namespace vibe::upper::rpc
