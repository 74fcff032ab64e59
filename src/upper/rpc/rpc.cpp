#include "upper/rpc/rpc.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "serve/loadgen.hpp"
#include "vipl/vipl.hpp"

namespace vibe::upper::rpc {

namespace {

using vipl::PendingConn;
using vipl::VipDescriptor;

constexpr sim::Duration kConnTimeout = sim::kSecond * 5;

// Raw-VI mode: receive descriptors the server preposts per client.
constexpr std::uint32_t kRecvRingDepth = 8;

// Recovery-mode sessions: sid base keeps rpc session ids out of the range
// a msg::Communicator in the same process would use, and each client gets
// its own discriminator so concurrent reconnects cannot cross-claim.
constexpr std::uint32_t kRpcSidBase = 0x1000;

session::SessionConfig sessionConfigFor(const RpcConfig& cfg,
                                        std::uint32_t clientId,
                                        fabric::NodeId remoteNode,
                                        bool initiator) {
  session::SessionConfig sc;
  sc.sid = kRpcSidBase + clientId;
  sc.remoteNode = remoteNode;
  sc.discriminator = cfg.discriminator + 1 + clientId;
  sc.initiator = initiator;
  sc.maxMessageBytes = cfg.maxMessageBytes;
  sc.policy = cfg.reconnect;
  return sc;
}

// Wire header: [method u32][token u32][status u32][size u64] then payload.
constexpr std::uint32_t kHeaderBytes = 20;
constexpr std::uint32_t kShutdownMethod = 0;

struct RpcHeader {
  std::uint32_t method = 0;
  std::uint32_t token = 0;
  std::uint32_t status = kStatusOk;  // or kStatusUnknownMethod
  std::uint64_t size = 0;
};

/// The one rpc frame builder: the header, then `payload`.
std::vector<std::byte> frameOf(const RpcHeader& h,
                               std::span<const std::byte> payload) {
  std::vector<std::byte> frame(kHeaderBytes + payload.size());
  std::memcpy(frame.data() + 0, &h.method, 4);
  std::memcpy(frame.data() + 4, &h.token, 4);
  std::memcpy(frame.data() + 8, &h.status, 4);
  std::memcpy(frame.data() + 12, &h.size, 8);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

RpcHeader unpackHeader(const std::byte* in) {
  RpcHeader h;
  std::memcpy(&h.method, in + 0, 4);
  std::memcpy(&h.token, in + 4, 4);
  std::memcpy(&h.status, in + 8, 4);
  std::memcpy(&h.size, in + 12, 8);
  return h;
}

/// Splits a reply frame into its token, status and payload.
void decodeReply(std::span<const std::byte> frame, AsyncReply& out) {
  const RpcHeader h = unpackHeader(frame.data());
  out.token = h.token;
  out.status = h.status;
  out.payload.assign(frame.begin() + kHeaderBytes, frame.end());
}

constexpr vipl::ResultCheck require{"rpc: "};

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

RpcServer::RpcServer(suite::NodeEnv& env, const RpcConfig& config)
    : env_(env), nic_(&env.nic), config_(config) {
  ptag_ = nic_->createPtag();
  require(nic_->createCq(config_.serverCqEntries, cq_), "create server CQ");
}

RpcServer::~RpcServer() = default;

void RpcServer::registerMethod(std::uint32_t method, Handler handler) {
  if (method == kShutdownMethod) {
    throw std::invalid_argument("rpc: method 0 is reserved for shutdown");
  }
  methods_[method] = std::move(handler);
}

void RpcServer::acceptClients(std::span<const fabric::NodeId> clientNodes) {
  if (!config_.recovery) {
    throw std::logic_error("rpc: acceptClients(clientNodes) requires recovery");
  }
  for (std::size_t i = 0; i < clientNodes.size(); ++i) {
    auto client = std::make_unique<Client>();
    client->session = std::make_unique<session::Session>(
        *nic_, sessionConfigFor(config_, static_cast<std::uint32_t>(i),
                                clientNodes[i], /*initiator=*/false));
    if (!client->session->establish()) {
      throw std::runtime_error("rpc: server session failed to establish");
    }
    clients_.push_back(std::move(client));
  }
}

void RpcServer::acceptClients(std::uint32_t n) {
  if (config_.recovery) {
    throw std::logic_error(
        "rpc: recovery mode needs acceptClients(clientNodes)");
  }
  vipl::VipViAttributes va;
  va.ptag = ptag_;
  va.reliabilityLevel = config_.reliability;

  for (std::uint32_t i = 0; i < n; ++i) {
    auto client = std::make_unique<Client>();
    // All receive-queue completions of every client funnel into cq_.
    require(nic_->createVi(va, nullptr, cq_, client->vi), "server VI");

    const std::uint64_t ringBytes =
        static_cast<std::uint64_t>(kRecvRingDepth) *
        config_.maxMessageBytes;
    const std::uint64_t arenaBytes = ringBytes + config_.maxMessageBytes;
    const mem::VirtAddr arena =
        nic_->memory().alloc(arenaBytes, mem::kPageSize);
    vipl::VipMemAttributes ma;
    ma.ptag = ptag_;
    mem::MemHandle handle = 0;
    require(nic_->registerMem(arena, arenaBytes, ma, handle),
            "register server arena");
    client->ringVa = arena;
    client->replyVa = arena + ringBytes;
    client->ring.resize(kRecvRingDepth);
    for (std::uint32_t d = 0; d < kRecvRingDepth; ++d) {
      client->ring[d] = VipDescriptor::recv(
          arena + static_cast<std::uint64_t>(d) * config_.maxMessageBytes,
          handle, config_.maxMessageBytes);
      require(nic_->postRecv(client->vi, &client->ring[d]),
              "prepost server ring");
    }
    // Stash the handle in the client's reply descriptor construction.
    client->arenaHandle = handle;

    PendingConn conn;
    require(nic_->connectWait({env_.nodeId, config_.discriminator},
                              kConnTimeout, conn),
            "server connect wait");
    require(nic_->connectAccept(conn, client->vi), "server accept");
    byVi_[client->vi] = client.get();
    clients_.push_back(std::move(client));
  }
}

std::vector<std::byte> RpcServer::buildReply(std::uint32_t method,
                                             std::uint32_t token,
                                             std::span<const std::byte> args) {
  RpcHeader reply;
  reply.method = method;
  reply.token = token;
  std::vector<std::byte> payload;
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    reply.status = kStatusUnknownMethod;
  } else {
    payload = it->second(args);
  }
  reply.size = payload.size();
  if (kHeaderBytes + payload.size() > config_.maxMessageBytes) {
    throw std::length_error("rpc: reply exceeds maxMessageBytes");
  }
  return frameOf(reply, payload);
}

bool RpcServer::anyActive() const {
  return std::any_of(clients_.begin(), clients_.end(),
                     [](const auto& c) { return c->active; });
}

void RpcServer::handleRequest(Client& c, VipDescriptor* done) {
  // Which ring slot completed?
  const std::size_t slot = static_cast<std::size_t>(done - c.ring.data());
  const mem::VirtAddr slotVa =
      c.ringVa + static_cast<std::uint64_t>(slot) * config_.maxMessageBytes;
  std::vector<std::byte> request(done->cs.length);
  nic_->memory().read(slotVa, request);

  const RpcHeader h = unpackHeader(request.data());
  if (h.method == kShutdownMethod) {
    c.active = false;
    // Repost so stray traffic cannot strand the connection.
    *done = VipDescriptor::recv(slotVa, c.arenaHandle,
                                config_.maxMessageBytes);
    require(nic_->postRecv(c.vi, done), "repost ring");
    return;
  }

  const std::vector<std::byte> frame = buildReply(
      h.method, h.token,
      std::span<const std::byte>(request.data() + kHeaderBytes, h.size));
  nic_->memory().write(c.replyVa, frame);

  // Repost the consumed ring slot before replying, so a pipelined client
  // can never catch the ring empty.
  *done = VipDescriptor::recv(slotVa, c.arenaHandle, config_.maxMessageBytes);
  require(nic_->postRecv(c.vi, done), "repost ring");

  VipDescriptor replyDesc = VipDescriptor::send(
      c.replyVa, c.arenaHandle, static_cast<std::uint32_t>(frame.size()));
  require(nic_->postSend(c.vi, &replyDesc), "post reply");
  VipDescriptor* reaped = nullptr;
  require(nic_->pollSend(c.vi, reaped), "reply completion");
  ++served_;
}

void RpcServer::handleSessionRequest(Client& c,
                                     std::span<const std::byte> request) {
  const RpcHeader h = unpackHeader(request.data());
  if (h.method == kShutdownMethod) {
    c.active = false;
    return;
  }
  const std::vector<std::byte> frame =
      buildReply(h.method, h.token, request.subspan(kHeaderBytes, h.size));
  // The session retains the reply for replay until the client's endpoint
  // confirms placement, so a connection break here cannot lose it.
  if (!c.session->send(frame)) c.active = false;
  ++served_;
}

void RpcServer::serveSessions() {
  std::vector<std::byte> msg;
  while (anyActive()) {
    bool made = false;
    for (auto& c : clients_) {
      if (!c->active) continue;
      if (c->session->down()) {
        c->active = false;  // circuit breaker tripped: give up on client
        continue;
      }
      while (c->session->poll(msg)) {
        handleSessionRequest(*c, msg);
        made = true;
      }
    }
    if (made) continue;
    // Nothing pending anywhere: block briefly on one live session. Its
    // recv drives that session's recovery; the other inboxes fill from
    // interrupts regardless and get drained on the next sweep.
    for (auto& c : clients_) {
      if (!c->active || c->session->down()) continue;
      if (c->session->recv(msg, sim::msec(1))) {
        handleSessionRequest(*c, msg);
      }
      break;
    }
  }
}

void RpcServer::enqueueOpenLoop(Client& c, std::uint32_t clientIndex,
                                std::span<const std::byte> request,
                                serve::AdmissionQueue& queue) {
  const RpcHeader h = unpackHeader(request.data());
  if (h.method == kShutdownMethod) {
    c.active = false;
    return;
  }
  serve::Request r;
  r.client = clientIndex;
  r.token = h.token;
  r.method = h.method;
  auto args = request.subspan(kHeaderBytes, h.size);
  serve::Stamp stamp;
  if (serve::readStamp(args, stamp)) {
    r.genTime = stamp.genTime;
    r.deadline = stamp.deadline;
    args = args.subspan(serve::kStampBytes);
  }
  r.payload.assign(args.begin(), args.end());
  // Rejected/evicted requests are dropped without a reply — the client
  // observes a deadline miss, as against a real overloaded server. The
  // queue's serve.* counters carry the accounting.
  std::vector<serve::Request> evicted;
  (void)queue.offer(std::move(r), env_.now(), evicted);
}

void RpcServer::replyTo(std::uint32_t clientIndex, const serve::Request& req) {
  Client& c = *clients_.at(clientIndex);
  const std::vector<std::byte> frame =
      buildReply(req.method, req.token, req.payload);
  if (c.active && !c.session->down()) (void)c.session->send(frame);
  ++served_;
}

void RpcServer::serveOpenLoop(serve::AdmissionQueue& queue,
                              const ServeOptions& opts) {
  if (!config_.recovery) {
    throw std::logic_error("rpc: serveOpenLoop requires recovery mode");
  }
  std::vector<sim::SimTime> lastReopen(clients_.size(), 0);
  sim::SimTime lastProgress = env_.now();
  std::vector<std::byte> msg;
  serve::Request req;
  while (anyActive()) {
    bool made = false;
    // Sweep every inbox into the admission queue before dispatching, so
    // backlog decisions see the freshest depth.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = *clients_[i];
      if (!c.active) continue;
      if (c.session->down()) {
        if (opts.reopenInterval > 0 &&
            env_.now() - lastReopen[i] >= opts.reopenInterval) {
          lastReopen[i] = env_.now();
          if (c.session->reopen()) made = true;
        }
        continue;
      }
      while (c.session->poll(msg)) {
        enqueueOpenLoop(c, static_cast<std::uint32_t>(i), msg, queue);
        made = true;
      }
    }
    // One dequeue per sweep: serving advances virtual time (the handler's
    // service cost), during which interrupts refill the inboxes above.
    switch (queue.next(env_.now(), req)) {
      case serve::Dequeue::Serve:
        replyTo(req.client, req);
        made = true;
        break;
      case serve::Dequeue::ShedDeadline:
      case serve::Dequeue::ShedCodel:
        made = true;  // dropped without a reply
        break;
      case serve::Dequeue::Empty:
        break;
    }
    if (made) {
      lastProgress = env_.now();
      continue;
    }
    // Nothing pending anywhere: block briefly on one live session (its
    // recv drives that session's recovery), or idle-advance when every
    // remaining client is down.
    bool blocked = false;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = *clients_[i];
      if (!c.active || c.session->down()) continue;
      if (c.session->recv(msg, sim::usec(100))) {
        enqueueOpenLoop(c, static_cast<std::uint32_t>(i), msg, queue);
        lastProgress = env_.now();
      }
      blocked = true;
      break;
    }
    if (!blocked) env_.self.advance(sim::usec(100), sim::CpuUse::Idle);
    if (env_.now() - lastProgress >= opts.idleTimeout) return;
  }
}

void RpcServer::serve() {
  if (config_.recovery) {
    serveSessions();
    return;
  }
  while (anyActive()) {
    vipl::Vi* vi = nullptr;
    bool isRecv = false;
    require(nic_->pollCq(cq_, vi, isRecv), "server CQ");
    VipDescriptor* done = nullptr;
    require(nic_->recvDone(vi, done), "server recv");
    Client* c = byVi_.at(vi);
    handleRequest(*c, done);
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RpcClient::RpcClient(suite::NodeEnv& env, fabric::NodeId serverNode,
                     const RpcConfig& config)
    : env_(env), nic_(&env.nic), config_(config) {
  if (config_.recovery) {
    session_ = std::make_unique<session::Session>(
        *nic_, sessionConfigFor(config_, config_.clientId, serverNode,
                                /*initiator=*/true));
    if (!session_->establish()) {
      throw std::runtime_error("rpc: client session failed to establish");
    }
    return;
  }
  ptag_ = nic_->createPtag();
  const std::uint64_t arenaBytes = 2ull * config_.maxMessageBytes;
  const mem::VirtAddr arena = nic_->memory().alloc(arenaBytes, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag_;
  require(nic_->registerMem(arena, arenaBytes, ma, arenaHandle_),
          "register client arena");
  sendVa_ = arena;
  recvVa_ = arena + config_.maxMessageBytes;

  vipl::VipViAttributes va;
  va.ptag = ptag_;
  va.reliabilityLevel = config_.reliability;
  require(nic_->createVi(va, nullptr, nullptr, vi_), "client VI");
  require(nic_->connectRequest(vi_, {serverNode, config_.discriminator},
                               kConnTimeout),
          "client connect");
}

RpcClient::~RpcClient() = default;

RpcClient::Outgoing RpcClient::buildRequest(std::uint32_t method,
                                            std::span<const std::byte> args) {
  if (kHeaderBytes + args.size() > config_.maxMessageBytes) {
    throw std::length_error("rpc: request exceeds maxMessageBytes");
  }
  RpcHeader h;
  h.method = method;
  if (method != kShutdownMethod) h.token = nextTokenValue_++;
  h.size = args.size();
  return {h.token, frameOf(h, args)};
}

std::vector<std::byte> RpcClient::call(std::uint32_t method,
                                       std::span<const std::byte> args) {
  const Outgoing req = buildRequest(method, args);
  const sim::SimTime t0 = env_.now();
  std::vector<std::byte> reply;
  if (config_.recovery) {
    // The session replays the request across reconnects and the server's
    // session dedups it, so one call is served exactly once even if the
    // connection flaps mid-dialog.
    if (!session_->send(req.frame)) {
      throw std::runtime_error("rpc: client session is down");
    }
    while (!session_->recv(reply, sim::msec(100))) {
      if (session_->down()) {
        throw std::runtime_error("rpc: client session is down");
      }
    }
  } else {
    VipDescriptor recvDesc =
        VipDescriptor::recv(recvVa_, arenaHandle_, config_.maxMessageBytes);
    require(nic_->postRecv(vi_, &recvDesc), "client post recv");
    nic_->memory().write(sendVa_, req.frame);
    VipDescriptor sendDesc = VipDescriptor::send(
        sendVa_, arenaHandle_, static_cast<std::uint32_t>(req.frame.size()));
    require(nic_->postSend(vi_, &sendDesc), "client post send");

    VipDescriptor* done = nullptr;
    require(nic_->pollRecv(vi_, done), "client reply");
    require(nic_->pollSend(vi_, done), "client send completion");
    reply.resize(recvDesc.cs.length);
    nic_->memory().read(recvVa_, reply);
  }
  AsyncReply r;
  decodeReply(reply, r);
  if (r.token != req.token) {
    throw std::logic_error("rpc: reply token mismatch");
  }
  if (r.status != kStatusOk) {
    throw std::runtime_error("rpc: server reports unknown method");
  }
  lastRttUsec_ = sim::toUsec(env_.now() - t0);
  return std::move(r.payload);
}

std::uint32_t RpcClient::callAsync(std::uint32_t method,
                                   std::span<const std::byte> args) {
  if (!config_.recovery) {
    throw std::logic_error("rpc: callAsync requires recovery mode");
  }
  const Outgoing req = buildRequest(method, args);
  return session_->send(req.frame) ? req.token : 0;
}

bool RpcClient::pollReply(AsyncReply& out) {
  if (!config_.recovery) {
    throw std::logic_error("rpc: pollReply requires recovery mode");
  }
  std::vector<std::byte> reply;
  if (!session_->poll(reply)) return false;
  decodeReply(reply, out);
  return true;
}

bool RpcClient::waitReply(AsyncReply& out, sim::Duration timeout) {
  if (!config_.recovery) {
    throw std::logic_error("rpc: waitReply requires recovery mode");
  }
  std::vector<std::byte> reply;
  if (!session_->recv(reply, timeout)) return false;
  decodeReply(reply, out);
  return true;
}

bool RpcClient::down() const {
  return session_ != nullptr && session_->down();
}

bool RpcClient::reopen() {
  if (!config_.recovery) {
    throw std::logic_error("rpc: reopen requires recovery mode");
  }
  return session_->reopen();
}

void RpcClient::shutdown() {
  const Outgoing req = buildRequest(kShutdownMethod, {});
  if (config_.recovery) {
    if (!session_->send(req.frame) || !session_->flush(sim::kSecond)) {
      throw std::runtime_error("rpc: client session is down");
    }
    return;
  }
  nic_->memory().write(sendVa_, req.frame);
  VipDescriptor d = VipDescriptor::send(sendVa_, arenaHandle_, kHeaderBytes);
  require(nic_->postSend(vi_, &d), "client shutdown send");
  VipDescriptor* done = nullptr;
  require(nic_->pollSend(vi_, done), "client shutdown completion");
}

}  // namespace vibe::upper::rpc
