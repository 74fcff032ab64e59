// A replicated-free in-memory key/value service over the RPC layer — the
// cluster client/server scenario that motivates the paper's §3.3
// programming-model benchmarks.
//
// One server node hosts the store; three client nodes hammer it with
// PUT/GET/DELETE traffic. The server multiplexes all client VIs through a
// single completion queue, exactly the design VIBe's CQ measurements
// recommend for multi-client services on hardware VIA.
//
//   $ ./rpc_kv_store
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"

using namespace vibe;
using upper::rpc::RpcClient;
using upper::rpc::RpcServer;

namespace {

// Methods.
constexpr std::uint32_t kPut = 1;
constexpr std::uint32_t kGet = 2;
constexpr std::uint32_t kDel = 3;
constexpr std::uint32_t kStats = 4;

std::vector<std::byte> toBytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

std::string toString(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// Request encoding: "key\0value" for PUT, "key" for GET/DEL.
std::vector<std::byte> encodePut(const std::string& k, const std::string& v) {
  std::string s = k;
  s.push_back('\0');
  s += v;
  return toBytes(s);
}

}  // namespace

int main() {
  constexpr std::uint32_t kClients = 3;
  suite::ClusterConfig config;
  config.profile = nic::clanProfile();
  config.nodes = kClients + 1;
  suite::Cluster cluster(config);

  auto serverProgram = [&](suite::NodeEnv& env) {
    std::map<std::string, std::string> store;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    RpcServer server(env);
    server.registerMethod(kPut, [&](std::span<const std::byte> args) {
      const std::string s = toString(args);
      const auto split = s.find('\0');
      store[s.substr(0, split)] = s.substr(split + 1);
      return toBytes("ok");
    });
    server.registerMethod(kGet, [&](std::span<const std::byte> args) {
      auto it = store.find(toString(args));
      if (it == store.end()) {
        ++misses;
        return toBytes("\x01");  // miss marker
      }
      ++hits;
      return toBytes(std::string(1, '\0') + it->second);
    });
    server.registerMethod(kDel, [&](std::span<const std::byte> args) {
      return toBytes(store.erase(toString(args)) ? "1" : "0");
    });
    server.registerMethod(kStats, [&](std::span<const std::byte>) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "keys=%zu hits=%llu misses=%llu",
                    store.size(), static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses));
      return toBytes(buf);
    });

    server.acceptClients(kClients);
    server.serve();
    std::printf("[server] served %llu requests, final store has %zu keys\n",
                static_cast<unsigned long long>(server.requestsServed()),
                store.size());
  };

  auto clientProgram = [&](suite::NodeEnv& env) {
    const std::uint32_t me = env.nodeId;  // 1..kClients
    RpcClient client(env, /*serverNode=*/0);

    double rttSum = 0;
    int calls = 0;
    auto timedCall = [&](std::uint32_t method,
                         const std::vector<std::byte>& args) {
      auto reply = client.call(method, args);
      rttSum += client.lastRoundTripUsec();
      ++calls;
      return reply;
    };

    // Each client owns a key namespace, writes, reads back, deletes half.
    for (int i = 0; i < 20; ++i) {
      const std::string key = "c" + std::to_string(me) + "/k" +
                              std::to_string(i);
      timedCall(kPut, encodePut(key, std::string(200 + i * 37, 'v')));
    }
    for (int i = 0; i < 20; ++i) {
      const std::string key = "c" + std::to_string(me) + "/k" +
                              std::to_string(i);
      const auto reply = timedCall(kGet, toBytes(key));
      if (reply.empty() || reply[0] != std::byte{0}) {
        std::fprintf(stderr, "[client %u] lost key %s!\n", me, key.c_str());
        std::exit(1);
      }
      if (toString(reply).size() - 1 != 200 + i * 37u) {
        std::fprintf(stderr, "[client %u] wrong value size for %s\n", me,
                     key.c_str());
        std::exit(1);
      }
    }
    for (int i = 0; i < 10; ++i) {
      const std::string key = "c" + std::to_string(me) + "/k" +
                              std::to_string(i);
      timedCall(kDel, toBytes(key));
    }
    std::printf("[client %u] %d calls, mean round trip %.2f us\n", me, calls,
                rttSum / calls);
    client.shutdown();
  };

  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  programs.push_back(serverProgram);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    programs.push_back(clientProgram);
  }
  cluster.run(std::move(programs));

  std::printf("kv-store demo finished after %.2f simulated ms\n",
              sim::toUsec(cluster.now()) / 1000.0);
  return 0;
}
