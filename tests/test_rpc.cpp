// Tests for the RPC layer: request/reply integrity, multiple clients
// multiplexed through one server CQ, unknown methods and oversize replies
// on every serving path (raw VI, recovery session, open loop), pipelined
// clients, and shutdown handling.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "serve/admission.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"

namespace vibe {
namespace {

using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using upper::rpc::AsyncReply;
using upper::rpc::RpcClient;
using upper::rpc::RpcConfig;
using upper::rpc::RpcServer;

// The rpc header ahead of every request and reply payload.
constexpr std::uint32_t kRpcHeaderBytes = 20;

std::vector<std::byte> toBytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

std::string toString(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

ClusterConfig configFor(const std::string& profile, std::uint32_t nodes) {
  ClusterConfig c;
  c.profile = nic::profileByName(profile);
  c.nodes = nodes;
  return c;
}

class RpcAllProfiles : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Profiles, RpcAllProfiles,
                         ::testing::Values("mvia", "bvia", "clan"),
                         [](const auto& pi) { return pi.param; });

TEST_P(RpcAllProfiles, EchoAndTransformMethods) {
  Cluster cluster(configFor(GetParam(), 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env);
    srv.registerMethod(1, [](std::span<const std::byte> args) {
      return std::vector<std::byte>(args.begin(), args.end());  // echo
    });
    srv.registerMethod(2, [](std::span<const std::byte> args) {
      std::string s = toString(args);
      for (char& c : s) c = static_cast<char>(std::toupper(c));
      return toBytes(s);
    });
    srv.acceptClients(1);
    srv.serve();
    EXPECT_EQ(srv.requestsServed(), 4u);
  };
  auto client = [&](NodeEnv& env) {
    RpcClient cli(env, 0);
    EXPECT_EQ(toString(cli.call(1, toBytes("hello"))), "hello");
    EXPECT_EQ(toString(cli.call(2, toBytes("via rocks"))), "VIA ROCKS");
    EXPECT_EQ(toString(cli.call(1, toBytes(""))), "");
    const std::string big(20000, 'x');
    EXPECT_EQ(toString(cli.call(1, toBytes(big))), big);
    EXPECT_GT(cli.lastRoundTripUsec(), 0.0);
    cli.shutdown();
  };
  cluster.run({server, client});
}

TEST(RpcTest, MultipleClientsShareOneServerCq) {
  constexpr std::uint32_t kClients = 3;
  Cluster cluster(configFor("clan", kClients + 1));
  std::vector<std::function<void(NodeEnv&)>> programs;
  programs.push_back([&](NodeEnv& env) {
    RpcServer srv(env);
    srv.registerMethod(1, [](std::span<const std::byte> args) {
      // add 1 to every byte
      std::vector<std::byte> out(args.begin(), args.end());
      for (auto& b : out) b = std::byte(std::to_integer<std::uint8_t>(b) + 1);
      return out;
    });
    srv.acceptClients(kClients);
    srv.serve();
    EXPECT_EQ(srv.requestsServed(), kClients * 5u);
  });
  for (std::uint32_t c = 0; c < kClients; ++c) {
    programs.push_back([&, c](NodeEnv& env) {
      RpcClient cli(env, 0);
      for (int i = 0; i < 5; ++i) {
        std::vector<std::byte> args(100, std::byte(static_cast<std::uint8_t>(c)));
        const auto reply = cli.call(1, args);
        ASSERT_EQ(reply.size(), args.size());
        for (auto b : reply) {
          EXPECT_EQ(std::to_integer<std::uint8_t>(b), c + 1);
        }
      }
      cli.shutdown();
    });
  }
  cluster.run(std::move(programs));
}

/// One server on node 0 and one client on node 1, connected over raw VIs
/// (GetParam() false: RpcServer::serve's VI path) or over recovery
/// sessions (true: its session path).
class RpcModeTest : public ::testing::TestWithParam<bool> {
 protected:
  RpcConfig config() const {
    RpcConfig cfg;
    cfg.recovery = GetParam();
    return cfg;
  }
  void acceptOneClient(RpcServer& srv) const {
    if (GetParam()) {
      const fabric::NodeId clients[] = {1};
      srv.acceptClients(clients);
    } else {
      srv.acceptClients(1);
    }
  }
};
INSTANTIATE_TEST_SUITE_P(Modes, RpcModeTest, ::testing::Bool(),
                         [](const auto& pi) {
                           return pi.param ? "recovery" : "raw";
                         });

TEST_P(RpcModeTest, UnknownMethodRaises) {
  Cluster cluster(configFor("clan", 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env, config());
    srv.registerMethod(1, [](std::span<const std::byte>) {
      return std::vector<std::byte>{};
    });
    acceptOneClient(srv);
    srv.serve();
  };
  auto client = [&](NodeEnv& env) {
    RpcClient cli(env, 0, config());
    EXPECT_THROW((void)cli.call(42, {}), std::runtime_error);
    EXPECT_TRUE(cli.call(1, {}).empty());  // the connection still serves
    cli.shutdown();
  };
  cluster.run({server, client});
}

/// Method 1 replies with as many bytes as its u32 argument asks for.
std::vector<std::byte> sizedReply(std::span<const std::byte> args) {
  std::uint32_t n = 0;
  std::memcpy(&n, args.data(), 4);
  return std::vector<std::byte>(n, std::byte{7});
}

std::vector<std::byte> sizeArg(std::uint32_t n) {
  std::vector<std::byte> args(4);
  std::memcpy(args.data(), &n, 4);
  return args;
}

TEST_P(RpcModeTest, OversizeReplyThrowsLengthError) {
  const std::uint32_t limit = config().maxMessageBytes - kRpcHeaderBytes;
  bool fullReplyArrived = false;
  Cluster cluster(configFor("clan", 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env, config());
    srv.registerMethod(1, sizedReply);
    acceptOneClient(srv);
    srv.serve();
  };
  auto client = [&](NodeEnv& env) {
    RpcClient cli(env, 0, config());
    fullReplyArrived = cli.call(1, sizeArg(limit)).size() == limit;
    (void)cli.call(1, sizeArg(limit + 1));  // the server throws first
  };
  EXPECT_THROW(cluster.run({server, client}), std::length_error);
  EXPECT_TRUE(fullReplyArrived);
}

/// serveOpenLoop on node 0 with an unbounded FIFO admission queue, one
/// open-loop client on node 1.
void runOpenLoop(const RpcServer::Handler& method1,
                 const std::function<void(RpcClient&)>& body) {
  RpcConfig cfg;
  cfg.recovery = true;
  Cluster cluster(configFor("clan", 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env, cfg);
    srv.registerMethod(1, method1);
    const fabric::NodeId clients[] = {1};
    srv.acceptClients(clients);
    serve::AdmissionQueue queue(serve::PolicyConfig{});
    srv.serveOpenLoop(queue);
  };
  auto client = [&](NodeEnv& env) {
    RpcClient cli(env, 0, cfg);
    body(cli);
  };
  cluster.run({server, client});
}

TEST(RpcTest, OpenLoopUnknownMethodComesBackAsStatus) {
  bool checked = false;
  runOpenLoop(
      [](std::span<const std::byte> args) {
        return std::vector<std::byte>(args.begin(), args.end());
      },
      [&](RpcClient& cli) {
        const std::uint32_t unknown = cli.callAsync(42, {});
        ASSERT_NE(unknown, 0u);
        AsyncReply rep;
        ASSERT_TRUE(cli.waitReply(rep, sim::msec(100)));
        EXPECT_EQ(rep.token, unknown);
        EXPECT_EQ(rep.status, upper::rpc::kStatusUnknownMethod);
        EXPECT_TRUE(rep.payload.empty());

        const std::vector<std::byte> args(3, std::byte{9});
        const std::uint32_t echo = cli.callAsync(1, args);
        ASSERT_TRUE(cli.waitReply(rep, sim::msec(100)));
        EXPECT_EQ(rep.token, echo);
        EXPECT_EQ(rep.status, upper::rpc::kStatusOk);
        EXPECT_EQ(rep.payload, args);
        cli.shutdown();
        checked = true;
      });
  EXPECT_TRUE(checked);
}

TEST(RpcTest, OpenLoopOversizeReplyThrowsLengthError) {
  const std::uint32_t limit = RpcConfig{}.maxMessageBytes - kRpcHeaderBytes;
  bool fullReplyArrived = false;
  EXPECT_THROW(
      runOpenLoop(sizedReply,
                  [&](RpcClient& cli) {
                    (void)cli.callAsync(1, sizeArg(limit));
                    AsyncReply rep;
                    fullReplyArrived = cli.waitReply(rep, sim::msec(100)) &&
                                       rep.payload.size() == limit;
                    (void)cli.callAsync(1, sizeArg(limit + 1));
                    (void)cli.waitReply(rep, sim::msec(100));
                  }),
      std::length_error);
  EXPECT_TRUE(fullReplyArrived);
}

TEST(RpcTest, ReservedShutdownMethodRejectedAtRegistration) {
  Cluster cluster(configFor("clan", 1));
  auto program = [&](NodeEnv& env) {
    RpcServer srv(env);
    EXPECT_THROW(
        srv.registerMethod(0, [](std::span<const std::byte>) {
          return std::vector<std::byte>{};
        }),
        std::invalid_argument);
  };
  cluster.run({program});
}

TEST(RpcTest, OversizeRequestRejectedClientSide) {
  Cluster cluster(configFor("clan", 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env);
    srv.acceptClients(1);
    srv.serve();
  };
  auto client = [&](NodeEnv& env) {
    RpcConfig cfg;
    RpcClient cli(env, 0, cfg);
    std::vector<std::byte> huge(cfg.maxMessageBytes + 1, std::byte{0});
    EXPECT_THROW((void)cli.call(1, huge), std::length_error);
    cli.shutdown();
  };
  cluster.run({server, client});
}

TEST(RpcTest, TransactionRateMatchesClientServerBenchmarkShape) {
  // A quick sanity link between the RPC layer and Fig. 7: small replies
  // sustain more calls/s than large replies.
  double smallRtt = 0;
  double largeRtt = 0;
  Cluster cluster(configFor("clan", 2));
  auto server = [&](NodeEnv& env) {
    RpcServer srv(env);
    srv.registerMethod(1, [](std::span<const std::byte> args) {
      std::uint32_t n = 0;
      std::memcpy(&n, args.data(), 4);
      return std::vector<std::byte>(n, std::byte{7});
    });
    srv.acceptClients(1);
    srv.serve();
  };
  auto client = [&](NodeEnv& env) {
    RpcClient cli(env, 0);
    auto callWithReply = [&](std::uint32_t bytes) {
      std::vector<std::byte> args(4);
      std::memcpy(args.data(), &bytes, 4);
      double total = 0;
      for (int i = 0; i < 10; ++i) {
        (void)cli.call(1, args);
        total += cli.lastRoundTripUsec();
      }
      return total / 10;
    };
    smallRtt = callWithReply(16);
    largeRtt = callWithReply(16384);
    cli.shutdown();
  };
  cluster.run({server, client});
  EXPECT_GT(largeRtt, smallRtt * 2);
}

}  // namespace
}  // namespace vibe
