// Extension: server scalability with concurrent clients — the scalability
// question the paper says VIBe should inform ("understanding the impact of
// multiple open VIs ... can provide a higher layer developer insight about
// the number of VIs to be used ... and scalability studies", §1).
//
// One server, N clients, each issuing synchronous 16 B -> 256 B
// transactions; the server reaps every client VI through one completion
// queue. Aggregate throughput grows until the server side saturates; on
// the firmware-polling model each additional *VI* also slows every other
// client down (the Fig. 6 effect applied to a real server shape).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"

namespace {

using namespace vibe;

double aggregateTps(const nic::NicProfile& profile, std::uint32_t clients,
                    int callsPerClient, const harness::PointEnv* penv,
                    std::uint32_t fatTreeK = 0,
                    sim::Duration connectStagger = 0,
                    std::uint32_t simShards = 0) {
  suite::ClusterConfig cc = penv
                                ? bench::clusterFor(profile, clients + 1,
                                                    *penv)
                                : bench::clusterFor(profile, clients + 1);
  cc.fatTreeK = fatTreeK;
  cc.simShards = simShards;
  suite::Cluster cluster(cc);
  double elapsedSec = 0;

  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  programs.push_back([&](suite::NodeEnv& env) {
    upper::rpc::RpcConfig scfg;
    scfg.serverCqEntries = std::max(1024u, 4 * clients);
    upper::rpc::RpcServer server(env, scfg);
    server.registerMethod(1, [](std::span<const std::byte>) {
      return std::vector<std::byte>(256, std::byte{0x11});
    });
    server.acceptClients(clients);
    const sim::SimTime t0 = env.now();
    server.serve();
    elapsedSec = sim::toSec(env.now() - t0);
  });
  for (std::uint32_t c = 0; c < clients; ++c) {
    programs.push_back([&, c](suite::NodeEnv& env) {
      // At hundreds of clients, dialing all at once overruns the
      // provider's 500 ms connection-request grace window (the server
      // accepts serially at ~1 ms per dialog): pace the dials to the
      // accept rate. The timed window starts after every session is up,
      // so the stagger never leaks into the throughput number.
      if (connectStagger > 0) {
        env.self.advance(connectStagger * c, sim::CpuUse::Idle);
      }
      upper::rpc::RpcClient client(env, 0);
      std::vector<std::byte> args(16, std::byte{0x22});
      for (int i = 0; i < callsPerClient; ++i) {
        (void)client.call(1, args);
      }
      client.shutdown();
    });
  }
  cluster.run(std::move(programs));
  return static_cast<double>(clients) * callsPerClient / elapsedSec;
}

/// The 1023-client incast, replayed once with the observability stack
/// attached: every RPC call's latency lands in one cumulative histogram,
/// a TimeSeriesSampler snapshots it at a fixed virtual-time cadence, and
/// an SloMonitor diffs successive snapshots into rolling windows. The
/// emitted table is the p99-over-time series — virtual-time quantiles at
/// bucket resolution, so it is deterministic and part of the golden
/// suite even though it narrates a live SLO breach.
///
/// The timeline has two acts. While the server is still inside
/// acceptClients() (~1.2 s of staggered dialogs) no RPC gets an answer,
/// so the early windows are empty — calls pile up unreaped. Once serve()
/// starts, 1023 clients' queued calls drain in a burst: the first burst
/// window's tail includes the accept-wait itself (client 0 waited over a
/// second), and steady-state burst latency is the full 1023-deep queue
/// round trip — four orders of magnitude over the 200 us SLO.
void sloTimeline() {
  using namespace vibe::bench;
  const std::uint32_t clients = 1023;
  const int callsPerClient = 20;
  const sim::Duration stagger = sim::usec(1200);
  const sim::Duration period = sim::msec(100);
  const std::uint64_t thresholdNs = 200'000;  // SLO: p99 <= 200 us

  obs::Histogram latency;
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(period);
  obs::SloMonitor slo("rpc_call", latency);
  slo.setThresholdNs(thresholdNs);

  suite::ClusterConfig cc = clusterFor(nic::clanProfile(), clients + 1);
  cc.fatTreeK = 16;
  cc.sampler = &sampler;
  suite::Cluster cluster(cc);
  slo.bindTo(sampler);

  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  programs.push_back([&](suite::NodeEnv& env) {
    upper::rpc::RpcServer server(env);
    server.registerMethod(1, [](std::span<const std::byte>) {
      return std::vector<std::byte>(256, std::byte{0x11});
    });
    server.acceptClients(clients);
    server.serve();
  });
  for (std::uint32_t c = 0; c < clients; ++c) {
    programs.push_back([&, c](suite::NodeEnv& env) {
      env.self.advance(stagger * c, sim::CpuUse::Idle);
      upper::rpc::RpcClient client(env, 0);
      std::vector<std::byte> args(16, std::byte{0x22});
      for (int i = 0; i < callsPerClient; ++i) {
        const sim::SimTime t0 = env.now();
        (void)client.call(1, args);
        latency.add(static_cast<std::int64_t>(env.now() - t0));
      }
      client.shutdown();
    });
  }
  cluster.run(std::move(programs));

  suite::ResultTable t(
      "RPC p99 over time, cLAN fat-tree k=16, 1023 clients "
      "(100 ms windows, SLO p99 <= 200 us)",
      {"t_ms", "calls", "p50_us", "p99_us", "p999_us", "burn"});
  for (const obs::SloMonitor::Window& w : slo.windows()) {
    t.addRow({static_cast<double>(w.t) / 1e6, static_cast<double>(w.count),
              w.p50 / 1e3, w.p99 / 1e3, w.p999 / 1e3, w.burnRate});
  }
  vibe::bench::emit(t);
  std::printf(
      "slo rpc_call: threshold p99 <= %llu us, target %.2f, crossings %llu, "
      "breached at exit: %s\n",
      static_cast<unsigned long long>(thresholdNs / 1000), slo.target(),
      static_cast<unsigned long long>(slo.crossingCount()),
      slo.breached() ? "yes" : "no");
  std::printf(
      "Each window diffs the cumulative call-latency histogram at a fixed\n"
      "virtual-time cadence. The windows are empty while the server is\n"
      "still accepting dialogs (no call gets an answer); the moment\n"
      "serve() starts, the queued incast drains and the windowed p99\n"
      "lands at the full 1023-deep queue round trip — the first burst\n"
      "window's p999 is the accept-wait itself. burn=100 is the monitor's\n"
      "way of saying the whole window blew the budget.\n");
}

/// The same incast hosted on the sharded PDES engine. Per-domain schedules
/// are shard-count-invariant, so the table is byte-identical at any
/// VIBE_SIM_SHARDS >= 1 and belongs in the golden suite: the shards axis
/// of the golden matrix re-runs it on real worker threads and diffs it
/// against the same bytes. Modest sizes keep the matrix affordable; the
/// 4096-host fleet of these incasts is bench_ext_pdes.
void shardedIncastTable() {
  using namespace vibe::bench;
  suite::ResultTable t(
      "Aggregate transactions/s hosted on the sharded PDES engine, cLAN "
      "fat-tree k=8 (one domain per switch, any shard count)",
      {"clients", "tps", "serial_tps"});
  const std::vector<std::uint32_t> counts = {63u, 127u};
  struct Pair {
    double hosted = 0;
    double serial = 0;
  };
  const auto points = harness::runSweep(
      counts.size(),
      [&](harness::PointEnv& env) {
        const std::uint32_t clients = counts[env.index];
        return Pair{aggregateTps(nic::clanProfile(), clients, 2, &env, 8,
                                 sim::usec(1200), simShards()),
                    aggregateTps(nic::clanProfile(), clients, 2, &env, 8,
                                 sim::usec(1200))};
      },
      sweepOptions());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    t.addRow({static_cast<double>(counts[i]), points[i].hosted,
              points[i].serial});
  }
  vibe::bench::emit(t, 0);
  std::printf(
      "tps == serial_tps row for row: hosting the stack on the sharded\n"
      "engine changes who executes the events, never what they compute.\n");
}

int run(int, char**) {
  using namespace vibe::bench;
  printHeader("Server scalability with concurrent clients",
              "Extension of Fig. 6/Fig. 7: aggregate transactions/s of one "
              "CQ-multiplexed server as clients (and thus server VIs) grow");

  suite::ResultTable t("Aggregate transactions/s (16 B request, 256 B reply)",
                       {"clients", "mvia", "bvia", "clan"});
  const std::vector<std::uint32_t> clientCounts = {1u, 2u, 4u, 6u};
  const auto points = sweepGrid(
      clientCounts, paperProfiles(),
      [](std::uint32_t clients, const NamedProfile& np,
         harness::PointEnv& env) {
        return aggregateTps(np.profile, clients, 60, &env);
      });
  addGridRows(t, clientCounts, points);
  vibe::bench::emit(t, 0);
  std::printf(
      "cLAN scales nearly linearly until the server NIC saturates; the\n"
      "firmware model gains less per client because every added VI taxes\n"
      "each message's doorbell scan; the kernel-emulated model is gated by\n"
      "server-host CPU (every byte crosses it twice).\n");

  // Incast at fabric scale: one server, up to 1023 cLAN clients — a full
  // 1024-node cluster. The server reaps each reply's send completion
  // before taking the next request, and ReliableDelivery completes a send
  // at the remote NIC's receipt ack — so every transaction pays a full
  // fabric round trip. On the flat star that round trip is two host
  // links; on the k=16 fat-tree most clients sit cross-pod, six links and
  // three switch hops away, and the aggregate rate drops accordingly: the
  // Clos geometry taxes even a throughput benchmark once the server
  // synchronizes on delivery.
  suite::ResultTable big(
      "Aggregate transactions/s at scale, cLAN (16 B request, 256 B reply)",
      {"clients", "flat", "fattree_k16"});
  const std::vector<std::uint32_t> bigCounts = {255u, 511u, 1023u};
  struct BigPoint {
    double flat = 0;
    double fatTree = 0;
  };
  const auto bigPoints = harness::runSweep(
      bigCounts.size(),
      [&](harness::PointEnv& env) {
        const std::uint32_t clients = bigCounts[env.index];
        return BigPoint{
            aggregateTps(nic::clanProfile(), clients, 2, &env, 0,
                         sim::usec(1200)),
            aggregateTps(nic::clanProfile(), clients, 2, &env, 16,
                         sim::usec(1200))};
      },
      sweepOptions());
  for (std::size_t i = 0; i < bigCounts.size(); ++i) {
    big.addRow({static_cast<double>(bigCounts[i]), bigPoints[i].flat,
                bigPoints[i].fatTree});
  }
  vibe::bench::emit(big, 0);
  std::printf(
      "At 1023 clients the server holds 1023 open VIs and reaps them all\n"
      "through one CQ; the bench doubles as a stress test of connection\n"
      "setup (1023 dialogs) and of reply-side serialization on the one\n"
      "server downlink shared by every transaction.\n");
  shardedIncastTable();
  sloTimeline();
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN_SHARDED(ext_multiclient, run)
