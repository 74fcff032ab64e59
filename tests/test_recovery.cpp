// Session-recovery tests: establish/exchange, automatic reconnect with
// exactly-once replay under injected connection breaks, the circuit
// breaker, recovery-mode upper layers (msg, rpc, sockets, getput), and a
// seed sweep running flap-injecting fault plans over the msg and rpc
// workloads — with the cross-epoch invariants checked from the trace
// stream and every seed replayed twice for digest identity.
//
// Seed count: VIBE_CHAOS_SEEDS env var (default 32).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariants.hpp"
#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "session/session.hpp"
#include "simcore/prng.hpp"
#include "upper/msg/communicator.hpp"
#include "upper/rpc/rpc.hpp"
#include "upper/sockets/stream.hpp"
#include "upper/getput/window.hpp"
#include "vibe/cluster.hpp"

namespace vibe {
namespace {

using fault::FaultAction;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InvariantChecker;
using fault::LinkSide;
using session::ReconnectPolicy;
using session::Session;
using session::SessionConfig;
using session::SessionState;
using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using upper::msg::CommConfig;
using upper::msg::Communicator;

int seedCount() {
  if (const char* env = std::getenv("VIBE_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 32;
}

std::vector<std::byte> pattern(std::size_t len, std::uint64_t seed) {
  std::vector<std::byte> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = std::byte(static_cast<std::uint8_t>(seed * 7 + i * 13));
  }
  return out;
}

SessionConfig sessionCfg(std::uint32_t sid, fabric::NodeId remote,
                         bool initiator, std::uint64_t seed) {
  SessionConfig c;
  c.sid = sid;
  c.remoteNode = remote;
  c.discriminator = 0x5345'5331;  // "SES1"
  c.initiator = initiator;
  c.policy.seed = seed;
  return c;
}

/// A partition long enough to exhaust any profile's RTO retry budget
/// (rtoBase up to 2ms, budget 16, cap 8 => the connection breaks at most
/// ~222ms in), yet far shorter than the session's retry capacity.
FaultPlan breakPlan(std::uint64_t seed, sim::SimTime start,
                    sim::Duration duration) {
  FaultPlan plan;
  plan.seed = seed;
  FaultAction part;
  part.kind = FaultKind::Partition;
  part.node = 1;
  part.side = LinkSide::Both;
  part.start = start;
  part.duration = duration;
  part.rate = 1.0;
  plan.actions.push_back(part);
  return plan;
}

// ---------------------------------------------------------------------------
// Direct session tests
// ---------------------------------------------------------------------------

TEST(SessionBasic, EchoExchangeDeliversInOrder) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 3;
  Cluster cluster(cfg);
  constexpr int kMsgs = 25;
  int echoed = 0;

  auto node0 = [&](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 1, /*initiator=*/true, 3));
    ASSERT_TRUE(s.establish());
    EXPECT_EQ(s.state(), SessionState::Established);
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_TRUE(s.send(pattern(200 + i, i)));
      std::vector<std::byte> back;
      ASSERT_TRUE(s.recv(back, sim::kSecond));
      EXPECT_EQ(back, pattern(200 + i, i + 1000));
      ++echoed;
    }
    EXPECT_TRUE(s.flush(sim::kSecond));
    EXPECT_EQ(s.stats().sent, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(s.stats().delivered, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(s.stats().reconnects, 0u);
    EXPECT_EQ(s.unconfirmed(), 0u);
  };
  auto node1 = [&](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 0, /*initiator=*/false, 3));
    ASSERT_TRUE(s.establish());
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::byte> msg;
      ASSERT_TRUE(s.recv(msg, sim::kSecond));
      EXPECT_EQ(msg, pattern(200 + i, i));
      ASSERT_TRUE(s.send(pattern(200 + i, i + 1000)));
    }
    EXPECT_TRUE(s.flush(sim::kSecond));
  };
  cluster.run({node0, node1});
  EXPECT_EQ(echoed, kMsgs);
}

TEST(SessionBasic, RejectsOversizeAndPreEstablishSends) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  Cluster cluster(cfg);
  auto node0 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 1, true, 0);
    sc.maxMessageBytes = 256;
    Session s(env.nic, sc);
    EXPECT_FALSE(s.send(pattern(10, 0)));  // Idle: establish() not called
    EXPECT_EQ(s.state(), SessionState::Idle);
    ASSERT_TRUE(s.establish());
    EXPECT_FALSE(s.send(pattern(257, 0)));  // exceeds maxMessageBytes
    EXPECT_TRUE(s.send(pattern(256, 0)));
    EXPECT_TRUE(s.flush(sim::kSecond));
  };
  auto node1 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 0, false, 0);
    sc.maxMessageBytes = 256;
    Session s(env.nic, sc);
    ASSERT_TRUE(s.establish());
    std::vector<std::byte> msg;
    ASSERT_TRUE(s.recv(msg, sim::kSecond));
    EXPECT_EQ(msg.size(), 256u);
  };
  cluster.run({node0, node1});
}

TEST(SessionRecovery, ReconnectsAndReplaysExactlyOnce) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 17;
  sim::Tracer tracer(512);
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  // Break the connection ~60ms in; the sender keeps producing through the
  // outage, so unconfirmed messages must replay after the reconnect.
  FaultInjector injector(breakPlan(17, sim::msec(60), sim::msec(400)));
  injector.arm(cluster);

  constexpr int kMsgs = 120;
  std::uint64_t senderReconnects = 0;
  std::uint64_t receiverDelivered = 0;

  auto sender = [&](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 1, true, 17));
    ASSERT_TRUE(s.establish());
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_TRUE(s.send(pattern(300, i)));
      // Pace production across the fault window; progress() is where the
      // sender notices the break and runs the blocking reconnect.
      env.self.advance(sim::msec(8), sim::CpuUse::Idle);
      s.progress();
      ASSERT_FALSE(s.down());
    }
    ASSERT_TRUE(s.flush(sim::kSecond * 5));
    senderReconnects = s.stats().reconnects;
    EXPECT_GT(s.stats().lastMttr, 0);
    EXPECT_GT(s.stats().replayed, 0u);
  };
  auto receiver = [&](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 0, false, 17));
    ASSERT_TRUE(s.establish());
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::byte> msg;
      ASSERT_TRUE(s.recv(msg, sim::kSecond * 5)) << "message " << i;
      EXPECT_EQ(msg, pattern(300, i)) << "message " << i;
    }
    receiverDelivered = s.stats().delivered;
  };
  cluster.run({sender, receiver});
  checker.finalize(cluster);

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GE(senderReconnects, 1u);
  EXPECT_EQ(receiverDelivered, static_cast<std::uint64_t>(kMsgs));
  EXPECT_GT(checker.sessionReplays(), 0u);
  EXPECT_GE(checker.sessionRecoveries(), 1u);
}

TEST(SessionRecovery, CircuitBreakerDegradesToDown) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 23;
  sim::Tracer tracer(512);
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  checker.setAllowDownAtExit(true);  // tripping the breaker is the point
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  // Permanent partition: recovery can never succeed.
  FaultInjector injector(breakPlan(23, sim::msec(10), sim::kSecond * 30));
  injector.arm(cluster);

  auto node0 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 1, true, 23);
    sc.policy.attemptsPerRound = 2;
    sc.policy.maxRounds = 3;
    Session s(env.nic, sc);
    ASSERT_TRUE(s.establish());
    while (!s.down()) {
      ASSERT_TRUE(s.send(pattern(100, 1)) || s.down());
      env.self.advance(sim::msec(10), sim::CpuUse::Idle);
      s.progress();
      ASSERT_LT(env.now(), sim::kSecond * 20) << "breaker never tripped";
    }
    EXPECT_EQ(s.state(), SessionState::Down);
    EXPECT_FALSE(s.send(pattern(100, 1)));
    std::vector<std::byte> msg;
    EXPECT_FALSE(s.recv(msg, sim::msec(1)));
    EXPECT_FALSE(s.flush(sim::msec(1)));
  };
  auto node1 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 0, false, 23);
    sc.policy.attemptsPerRound = 2;
    sc.policy.maxRounds = 3;
    Session s(env.nic, sc);
    ASSERT_TRUE(s.establish());
    while (!s.down()) {
      std::vector<std::byte> msg;
      if (s.recv(msg, sim::msec(50))) continue;
      ASSERT_LT(env.now(), sim::kSecond * 20) << "breaker never tripped";
    }
    EXPECT_EQ(s.state(), SessionState::Down);
  };
  cluster.run({node0, node1});
  checker.finalize(cluster);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(SessionRecovery, ReopenRevivesATrippedSession) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 29;
  sim::Tracer dbgTracer(8192);
  dbgTracer.enable(sim::TraceCategory::Session);
  cfg.tracer = &dbgTracer;
  Cluster cluster(cfg);

  // 300 ms partition: long enough that the initiator's RTO budget burns
  // (~150 ms) and its tightened breaker trips Down while the link is
  // still dead — but the link comes back, so reopen() can revive it.
  FaultInjector injector(breakPlan(29, sim::msec(10), sim::msec(300)));
  injector.arm(cluster);

  constexpr int kTotal = 30;
  constexpr int kBeforeBreak = 20;
  bool initiatorTripped = false;

  // Tight policy on both sides: 4 attempts bounded by a 3 ms connect and
  // a 5 ms hello burn out in ~40 ms, far less than the partition's
  // remaining life, so the breaker genuinely trips instead of the
  // reconnect loop outliving the outage.
  auto tighten = [](SessionConfig& sc) {
    sc.policy.attemptsPerRound = 2;
    sc.policy.maxRounds = 2;
    sc.policy.connectTimeout = sim::msec(3);
    sc.policy.helloTimeout = sim::msec(5);
  };

  auto node0 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 1, true, 29);
    tighten(sc);
    Session s(env.nic, sc);
    ASSERT_TRUE(s.establish());
    int sent = 0;
    // Send into the partition, then idle until the breaker trips; the
    // messages unconfirmed at the break survive the Down episode and
    // replay after the revival.
    while (!s.down()) {
      if (sent < kBeforeBreak && s.send(pattern(64, sent))) ++sent;
      env.self.advance(sim::msec(5), sim::CpuUse::Idle);
      s.progress();
      ASSERT_LT(env.now(), sim::kSecond * 5) << "breaker never tripped";
    }
    EXPECT_EQ(s.state(), SessionState::Down);
    initiatorTripped = true;
    EXPECT_FALSE(s.send(pattern(64, sent)));  // Down refuses sends
    while (s.down()) {
      env.self.advance(sim::msec(10), sim::CpuUse::Idle);
      (void)s.reopen();
      ASSERT_LT(env.now(), sim::kSecond * 5) << "reopen never succeeded";
    }
    EXPECT_EQ(s.state(), SessionState::Established);
    EXPECT_GE(s.stats().reopens, 1u);
    while (sent < kTotal) {
      ASSERT_TRUE(s.send(pattern(64, sent)));
      ++sent;
    }
    ASSERT_TRUE(s.flush(sim::kSecond * 5));
    EXPECT_EQ(s.unconfirmed(), 0u);
  };
  auto node1 = [&](NodeEnv& env) {
    SessionConfig sc = sessionCfg(1, 0, false, 29);
    tighten(sc);
    Session s(env.nic, sc);
    ASSERT_TRUE(s.establish());
    int got = 0;
    // Exactly-once, in order, across the break: a passive session that
    // trips Down keeps offering reopen() (a cheap claim poll) until the
    // peer redials.
    while (got < kTotal) {
      if (s.down()) {
        env.self.advance(sim::msec(10), sim::CpuUse::Idle);
        (void)s.reopen();
      } else {
        std::vector<std::byte> m;
        if (s.recv(m, sim::msec(20))) {
          EXPECT_EQ(m, pattern(64, got)) << "message " << got;
          ++got;
        }
      }
      ASSERT_LT(env.now(), sim::kSecond * 5) << "stream never completed";
    }
    EXPECT_EQ(s.stats().delivered, static_cast<std::uint64_t>(kTotal));
  };
  cluster.run({node0, node1});
  EXPECT_TRUE(initiatorTripped);
  if (::testing::Test::HasFailure()) std::fputs(dbgTracer.dump().c_str(), stderr);
}

// ---------------------------------------------------------------------------
// Recovery-mode upper layers
// ---------------------------------------------------------------------------

TEST(RecoveryLayers, SocketsStreamSurvivesConnectionBreak) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("mvia");
  cfg.seed = 31;
  Cluster cluster(cfg);
  FaultInjector injector(breakPlan(31, sim::msec(50), sim::msec(400)));
  injector.arm(cluster);

  constexpr std::size_t kChunk = 4096;
  constexpr int kChunks = 40;
  const std::vector<std::byte> blob = pattern(kChunk * kChunks, 31);
  std::size_t received = 0;

  upper::sockets::StreamConfig sc;
  sc.recovery = true;
  sc.reconnect.seed = 31;

  auto client = [&](NodeEnv& env) {
    auto sock = upper::sockets::StreamSocket::connect(env, 1, 4242, sc);
    for (int i = 0; i < kChunks; ++i) {
      sock->sendAll(std::span<const std::byte>(blob).subspan(i * kChunk,
                                                             kChunk));
      env.self.advance(sim::msec(10), sim::CpuUse::Idle);
    }
    sock->close();
    // Drain until the peer's FIN so the session confirms everything.
    std::byte sink[64];
    while (sock->recvSome(sink) != 0) {
    }
  };
  auto server = [&](NodeEnv& env) {
    upper::sockets::StreamListener listener(env, 4242, sc);
    auto sock = listener.acceptRecoverable(0);
    std::vector<std::byte> got(blob.size());
    sock->recvAll(got);
    EXPECT_EQ(got, blob);
    received = got.size();
    sock->close();
  };
  cluster.run({client, server});
  EXPECT_EQ(received, blob.size());
}

TEST(RecoveryLayers, CheckerTellsTwoRecoverableSocketsOnOneNodeApart) {
  // Every recoverable stream socket uses the same session id, so node 0
  // holds two sessions with one sid: the checker must keep their delivery
  // sequences apart by peer.
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.nodes = 3;
  cfg.seed = 7;
  sim::Tracer tracer(512);
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  constexpr std::size_t kBytes = 32 * 1024;
  upper::sockets::StreamConfig sc;
  sc.recovery = true;
  sc.reconnect.seed = 7;
  std::size_t received = 0;

  auto server = [&](NodeEnv& env) {
    upper::sockets::StreamListener first(env, 4242, sc);
    upper::sockets::StreamListener second(env, 4243, sc);
    auto a = first.acceptRecoverable(1);
    auto b = second.acceptRecoverable(2);
    auto drain = [&](upper::sockets::StreamSocket& sock, std::uint64_t port) {
      std::vector<std::byte> got(kBytes);
      sock.recvAll(got);
      EXPECT_EQ(got, pattern(kBytes, port));
      received += got.size();
      sock.close();
    };
    drain(*a, 4242);
    drain(*b, 4243);
  };
  auto client = [&](NodeEnv& env, std::uint64_t port) {
    auto sock = upper::sockets::StreamSocket::connect(env, 0, port, sc);
    sock->sendAll(pattern(kBytes, port));
    sock->close();
    std::byte sink[64];
    while (sock->recvSome(sink) != 0) {
    }
  };
  cluster.run({server, [&](NodeEnv& env) { client(env, 4242); },
               [&](NodeEnv& env) { client(env, 4243); }});
  checker.finalize(cluster);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(received, 2 * kBytes);
}

TEST(RecoveryLayers, GetPutFallsBackToEmulationOverRecoveryComm) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");  // RDMA-capable on purpose
  cfg.seed = 5;
  Cluster cluster(cfg);
  constexpr std::size_t kLen = 512;

  std::vector<std::function<void(NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < 2; ++r) {
    programs.push_back([&, r](NodeEnv& env) {
      CommConfig cc;
      cc.recovery = true;
      cc.reconnect.seed = 5;
      auto comm = Communicator::create(env, r, 2, cc);
      EXPECT_EQ(comm->peerVi(1 - r), nullptr);
      auto win = upper::getput::Window::create(*comm);
      if (r == 0) {
        win->put(1, 64, pattern(kLen, 9));
        win->fence();
        EXPECT_EQ(win->get(1, 64, kLen), pattern(kLen, 9));
        // Even on an RDMA-capable profile the recovery communicator must
        // route one-sided ops through the exactly-once message path.
        EXPECT_EQ(win->rdmaPuts(), 0u);
        EXPECT_EQ(win->rdmaGets(), 0u);
        EXPECT_GT(win->emulatedPuts(), 0u);
        EXPECT_GT(win->emulatedGets(), 0u);
      } else {
        win->fence();
        EXPECT_EQ(win->readLocal(64, kLen), pattern(kLen, 9));
      }
      win->fence();
    });
  }
  cluster.run(std::move(programs));
}

// ---------------------------------------------------------------------------
// Seed sweep: flap plans over the msg and rpc recovery workloads
// ---------------------------------------------------------------------------

/// Two partitions per run, each long enough to break the connection under
/// traffic, separated by enough calm for recovery to finish.
FaultPlan flapPlan(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed, "recovery-flaps");
  FaultPlan plan;
  plan.seed = seed;
  sim::SimTime t = sim::msec(30 + static_cast<sim::SimTime>(rng.below(80)));
  for (int i = 0; i < 2; ++i) {
    FaultAction part;
    part.kind = FaultKind::Partition;
    part.node = static_cast<std::uint32_t>(rng.below(2));
    part.side = LinkSide::Both;
    part.start = t;
    part.duration =
        sim::msec(260 + static_cast<sim::Duration>(rng.below(140)));
    part.rate = 1.0;
    plan.actions.push_back(part);
    t = part.end() + sim::msec(300 + static_cast<sim::SimTime>(rng.below(150)));
  }
  return plan;
}

/// Paced echo over a recovery-mode Communicator; the barrier at the end
/// proves both streams fully delivered before either rank exits.
void msgRecoveryWorkload(Cluster& cluster, std::uint64_t seed) {
  constexpr int kRounds = 30;
  int echoed = 0;
  std::vector<std::function<void(NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < 2; ++r) {
    programs.push_back([&, r, seed](NodeEnv& env) {
      CommConfig cc;
      cc.recovery = true;
      cc.reconnect.seed = seed;
      auto comm = Communicator::create(env, r, 2, cc);
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t len = i % 2 == 0 ? 300 : 12000;  // eager + chunked
        if (r == 0) {
          comm->send(1, i, pattern(len, i));
          const auto back = comm->recv(1, 1000 + i);
          EXPECT_EQ(back, pattern(len, i + 1));
          ++echoed;
          env.self.advance(sim::msec(22), sim::CpuUse::Idle);
        } else {
          const auto got = comm->recv(0, i);
          EXPECT_EQ(got, pattern(len, i));
          comm->send(0, 1000 + i, pattern(len, i + 1));
        }
      }
      comm->barrier();
    });
  }
  cluster.run(std::move(programs));
  EXPECT_EQ(echoed, kRounds);
}

/// Paced request/response over recovery-mode rpc; shutdown() flushes the
/// client stream so nothing is left unconfirmed at exit.
void rpcRecoveryWorkload(Cluster& cluster, std::uint64_t seed) {
  constexpr int kCalls = 14;
  int answered = 0;
  auto server = [&](NodeEnv& env) {
    upper::rpc::RpcConfig rc;
    rc.recovery = true;
    rc.reconnect.seed = seed;
    upper::rpc::RpcServer srv(env, rc);
    srv.registerMethod(1, [](std::span<const std::byte> in) {
      std::vector<std::byte> out(in.begin(), in.end());
      for (auto& b : out) b ^= std::byte{0x5a};
      return out;
    });
    const fabric::NodeId clients[] = {1};
    srv.acceptClients(clients);
    srv.serve();
    EXPECT_EQ(srv.requestsServed(), static_cast<std::uint64_t>(kCalls));
  };
  auto client = [&](NodeEnv& env) {
    upper::rpc::RpcConfig rc;
    rc.recovery = true;
    rc.reconnect.seed = seed;
    rc.clientId = 0;
    upper::rpc::RpcClient cli(env, 0, rc);
    for (int i = 0; i < kCalls; ++i) {
      const auto args = pattern(100 + i * 37, i);
      const auto reply = cli.call(1, args);
      auto expect = args;
      for (auto& b : expect) b ^= std::byte{0x5a};
      EXPECT_EQ(reply, expect) << "call " << i;
      ++answered;
      env.self.advance(sim::msec(45), sim::CpuUse::Idle);
    }
    cli.shutdown();
  };
  cluster.run({server, client});
  EXPECT_EQ(answered, kCalls);
}

using WorkloadFn = void (*)(Cluster&, std::uint64_t);

struct RunResult {
  std::uint64_t digest = 0;
  sim::SimTime endTime = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t recoveries = 0;
  std::vector<std::string> violations;
  std::string planText;
};

RunResult runOnce(std::uint64_t seed, WorkloadFn workload) {
  static const char* kProfiles[] = {"mvia", "bvia", "clan"};
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(kProfiles[seed % 3]);
  cfg.seed = seed;
  sim::Tracer tracer(512);
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  checker.setMttrBoundUsec(2'000'000);  // no recovery may take > 2 s
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  FaultInjector injector(flapPlan(seed));
  injector.arm(cluster);

  workload(cluster, seed);
  checker.finalize(cluster);

  RunResult r;
  r.digest = tracer.digest();
  r.endTime = cluster.now();
  r.deliveries = checker.sessionDeliveries();
  r.recoveries = checker.sessionRecoveries();
  r.violations = checker.violations();
  r.planText = injector.plan().toString();
  return r;
}

struct SweepCase {
  const char* name;
  WorkloadFn fn;
};

// gtest_discover_tests bakes the printed parameter into each ctest name.
// gtest's default dump of this struct is its raw pointer bytes, which ASLR
// moves on every build; print the workload name so the names are stable.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class RecoverySweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, RecoverySweep,
    ::testing::Values(SweepCase{"msg", msgRecoveryWorkload},
                      SweepCase{"rpc", rpcRecoveryWorkload}),
    [](const auto& pi) { return std::string(pi.param.name); });

TEST_P(RecoverySweep, ExactlyOnceAcrossFlapsAndDeterministic) {
  const SweepCase& wc = GetParam();
  const int seeds = seedCount();
  // Each seed is an independent simulation point: run them through the
  // sweep harness (VIBE_JOBS workers), assert in seed order afterwards.
  struct SeedResult {
    RunResult first;
    RunResult second;
  };
  const auto results = harness::runSweep(
      static_cast<std::size_t>(seeds), [&](harness::PointEnv& env) {
        const std::uint64_t seed = 2000 + env.index * 7919;
        SeedResult r;
        r.first = runOnce(seed, wc.fn);
        // Determinism: the same seed must replay byte-for-byte.
        r.second = runOnce(seed, wc.fn);
        return r;
      });
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(s) * 7919;
    SCOPED_TRACE("workload=" + std::string(wc.name) +
                 " seed=" + std::to_string(seed));
    const RunResult& first = results[static_cast<std::size_t>(s)].first;
    const RunResult& second = results[static_cast<std::size_t>(s)].second;
    EXPECT_TRUE(first.violations.empty())
        << "invariant violations:\n"
        << ::testing::PrintToString(first.violations) << "\nplan:\n"
        << first.planText;
    EXPECT_GT(first.deliveries, 0u);
    EXPECT_GE(first.recoveries, 1u)
        << "no session ever reconnected; plan:\n" << first.planText;
    EXPECT_EQ(first.digest, second.digest)
        << "trace digest diverged on replay; plan:\n" << first.planText;
    EXPECT_EQ(first.endTime, second.endTime);
  }
}

}  // namespace
}  // namespace vibe
