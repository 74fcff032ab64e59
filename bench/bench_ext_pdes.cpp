// Extension: conservative PDES scaling of the VIA stack. Every prior bench
// exercises one serial event loop or a small hosted cluster; this one
// shards one big simulation across cores and measures what that buys:
// 64 concurrent 63-client RPC incasts on a k=32 fat-tree — 4096 hosts
// across 1280 PDES domains, one per switch — swept over worker shard
// counts 1, 2, 4 (and every hardware thread above 4). Determinism is
// asserted inline: every shard count must reproduce the 1-shard witness
// (virtual end time, a fold of every node's NIC counters, event and
// window counts) bit for bit, or the bench exits 1.
//
// Deliberately NOT part of the golden-table suite: its tables contain
// wall-clock columns. The same fleet shape at golden sizes is pinned by
// bench_ext_multiclient's hosted incast table and by test_pdes_stack.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "bench_registry.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "simcore/pdes.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"

namespace {

using namespace vibe;

struct ShardRun {
  unsigned shards = 0;
  double wallMs = 0.0;  // cluster build, run and teardown
  double tps = 0.0;     // virtual-time transactions/s (deterministic)
  bench::RunWitness w;
  std::uint64_t crossDomain = 0;
  std::uint64_t crossShard = 0;
  std::uint64_t fannedOut = 0;      // windows handed to several threads
  std::uint64_t inlineWindows = 0;  // windows one thread ran alone
  std::vector<sim::ShardProfile> profiles;
  double loadImbalance = 1.0;
};

/// One run of the fleet incast: `groups` independent servers, each taking
/// a `clientsPerGroup`-client incast, packed into contiguous node ranges
/// on a k=32 fat-tree. A single 4095-client incast serializes the whole
/// simulation through the one server's accept loop (and its edge domain),
/// so sharding cannot help it; a fleet of group incasts is the shape that
/// actually spreads load across the 1280 domains.
ShardRun fleetIncast(std::uint32_t groups, std::uint32_t clientsPerGroup,
                     unsigned simShards) {
  const std::uint32_t groupSize = clientsPerGroup + 1;
  constexpr int kCalls = 2;
  suite::ClusterConfig cc =
      bench::clusterFor(nic::clanProfile(), groups * groupSize);
  cc.fatTreeK = 32;
  cc.simShards = simShards;
  suite::Cluster cluster(cc);

  std::vector<std::function<void(suite::NodeEnv&)>> programs(
      groups * groupSize, [](suite::NodeEnv&) {});
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::uint32_t base = g * groupSize;
    // Each 64-host group spans four 16-host edge switches. Rotate the
    // server across them: with servers pinned to the group's first node,
    // every hot server domain has index = 0 (mod 4) and round-robin
    // domain placement piles all of them onto one worker shard.
    const std::uint32_t serverNode = base + 16 * (g % 4);
    programs[serverNode] = [clientsPerGroup](suite::NodeEnv& env) {
      upper::rpc::RpcServer server(env);
      server.registerMethod(1, [](std::span<const std::byte>) {
        return std::vector<std::byte>(256, std::byte{0x11});
      });
      server.acceptClients(clientsPerGroup);
      server.serve();
    };
    std::uint32_t c = 0;
    for (std::uint32_t n = base; n < base + groupSize; ++n) {
      if (n == serverNode) continue;
      // Phase-shift the dial schedule per group: with every group's
      // c-th client starting together, the active clients of a phase
      // all sit at the same in-group offset — i.e. the same edge-switch
      // residue, i.e. one worker shard — and the fleet serializes.
      const std::uint32_t phase = (c + g * 7) % clientsPerGroup;
      programs[n] = [serverNode, phase](suite::NodeEnv& env) {
        env.self.advance(sim::usec(1200) * phase, sim::CpuUse::Idle);
        upper::rpc::RpcClient client(env, serverNode);
        std::vector<std::byte> args(16, std::byte{0x22});
        for (int i = 0; i < kCalls; ++i) (void)client.call(1, args);
        client.shutdown();
      };
      ++c;
    }
  }
  sim::ShardedEngine& se = cluster.shardedEngine();
  se.setProfiling(true);
  cluster.run(std::move(programs));

  ShardRun r;
  r.shards = se.shards();
  r.w = bench::witnessOf(cluster);
  r.crossDomain = se.crossDomainEvents();
  r.crossShard = se.crossShardEvents();
  r.fannedOut = se.fannedOutWindows();
  r.inlineWindows = se.inlineWindows();
  r.profiles = se.shardProfiles();
  r.loadImbalance = se.loadImbalance();
  r.tps = static_cast<double>(groups) * clientsPerGroup * kCalls /
          sim::toSec(cluster.now());
  return r;
}

int run(int, char**) {
  using namespace vibe::bench;

  printHeader("Conservative PDES scaling",
              "Extension: sharding one simulation across cores "
              "(paper testbeds and all prior benches are serial)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u; shard counts swept: 1 2 4%s\n", hw,
              hw > 4 ? " hw" : "");
  std::vector<unsigned> sweptShards = {1, 2, 4};
  if (hw > 4) sweptShards.push_back(hw);

  const std::uint32_t groups = 64, clientsPerGroup = 63;
  std::vector<ShardRun> runs;
  for (unsigned shards : sweptShards) {
    const auto t0 = std::chrono::steady_clock::now();
    ShardRun r = fleetIncast(groups, clientsPerGroup, shards);
    r.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    runs.push_back(std::move(r));
  }

  suite::ResultTable table(
      "PDES scaling of the VIA stack: 64 concurrent 63-client RPC incasts, "
      "cLAN k=32 fat-tree (4096 hosts, 1280 switch domains)",
      {"shards", "events", "windows", "fanned_out", "wall_ms", "ev_per_sec",
       "speedup", "xshard_frac"});
  const ShardRun& base = runs.front();
  bool deterministic = true;
  double speedup4 = 0.0;
  double xshardFrac4 = 0.0;
  for (const ShardRun& r : runs) {
    if (!(r.w == base.w)) {
      std::printf(
          "DETERMINISM FAIL at shards=%u: end %lld vs %lld, digest %016llx "
          "vs %016llx, events %llu vs %llu, windows %llu vs %llu\n",
          r.shards, static_cast<long long>(r.w.endTime),
          static_cast<long long>(base.w.endTime),
          static_cast<unsigned long long>(r.w.nicDigest),
          static_cast<unsigned long long>(base.w.nicDigest),
          static_cast<unsigned long long>(r.w.events),
          static_cast<unsigned long long>(base.w.events),
          static_cast<unsigned long long>(r.w.windows),
          static_cast<unsigned long long>(base.w.windows));
      deterministic = false;
    }
    const double speedup = base.wallMs / r.wallMs;
    const double xfrac = r.crossDomain == 0
                             ? 0.0
                             : static_cast<double>(r.crossShard) /
                                   static_cast<double>(r.crossDomain);
    if (r.shards == 4) {
      speedup4 = speedup;
      xshardFrac4 = xfrac;
    }
    table.addRow({static_cast<double>(r.shards),
                  static_cast<double>(r.w.events),
                  static_cast<double>(r.w.windows),
                  static_cast<double>(r.fannedOut), r.wallMs,
                  static_cast<double>(r.w.events) / (r.wallMs / 1e3),
                  speedup, xfrac});
  }
  vibe::bench::emit(table);
  std::printf("virtual end %.3f ms, %.0f transactions/s at every shard "
              "count\n",
              static_cast<double>(base.w.endTime) / 1e6, base.tps);
  std::printf("determinism across shard counts: %s\n",
              deterministic ? "OK (witnesses byte-identical)" : "FAILED");

  // --- PDES runtime profiler: per-shard breakdown ----------------------
  // Wall-clock columns (exec_ms, completion_ms, barrier_pct) vary run to
  // run; the event and window counts are deterministic. Totals must
  // reconcile with the engine-wide executedEvents() introspection, and
  // every window must have been dispatched once, fanned out or inline.
  // barrier_pct is the share of the shard's wall time its home thread
  // spent parked with no work.
  bool reconciled = true;
  for (const ShardRun& r : runs) {
    suite::ResultTable prof(
        "PDES shard profile (k=32, shards=" + std::to_string(r.shards) +
            ", imbalance=max/mean events)",
        {"shard", "domains", "events", "ev_per_window", "occupancy",
         "exec_ms", "completion_ms", "barrier_pct", "xshard_sent"});
    std::uint64_t evTotal = 0;
    const double windows = static_cast<double>(r.w.windows);
    for (const sim::ShardProfile& p : r.profiles) {
      evTotal += p.events;
      const double busyNs = static_cast<double>(p.execNs + p.completionNs +
                                                p.barrierWaitNs);
      prof.addRow({static_cast<double>(p.shard),
                   static_cast<double>(p.domains),
                   static_cast<double>(p.events),
                   windows == 0.0 ? 0.0
                                  : static_cast<double>(p.events) / windows,
                   windows == 0.0
                       ? 0.0
                       : static_cast<double>(p.windowsActive) / windows,
                   static_cast<double>(p.execNs) / 1e6,
                   static_cast<double>(p.completionNs) / 1e6,
                   busyNs == 0.0
                       ? 0.0
                       : 100.0 * static_cast<double>(p.barrierWaitNs) /
                             busyNs,
                   static_cast<double>(p.crossShardSent)});
    }
    vibe::bench::emit(prof);
    const bool ok = evTotal == r.w.events &&
                    r.fannedOut + r.inlineWindows == r.w.windows;
    std::printf("shard profile reconciliation (shards=%u): events %llu/%llu "
                "windows %llu = %llu fanned out + %llu inline, load "
                "imbalance %.3f: %s\n",
                r.shards, static_cast<unsigned long long>(evTotal),
                static_cast<unsigned long long>(r.w.events),
                static_cast<unsigned long long>(r.w.windows),
                static_cast<unsigned long long>(r.fannedOut),
                static_cast<unsigned long long>(r.inlineWindows),
                r.loadImbalance, ok ? "OK" : "FAIL");
    if (!ok) reconciled = false;
    if (statsAttached()) {
      obs::publishShardProfiles(statsRegistry(),
                                "pdes.shards" + std::to_string(r.shards),
                                r.profiles, r.loadImbalance);
    }
  }
  std::printf(
      "Each switch is one domain; the window width is the inter-switch\n"
      "hop lookahead (header serialization + propagation). Speedup tracks\n"
      "the hardware thread count, not the shard count: with fewer cores\n"
      "than active shards the woken threads just time-slice (hw=%u here).\n",
      hw);
  if (hw <= 1) {
    std::printf(
        "note: single-core host; worker threads time-slice one core, so "
        "speedup ~= 1.0 here by necessity (see docs/PDES.md)\n");
  }

  if (jsonRequested()) {
    writeBenchJson(
        "pdes", {},
        {{"scaling",
          {{"hw_threads", static_cast<double>(hw)},
           {"hosts_at_scale", 4096.0},
           {"events_at_scale_serial_per_sec",
            static_cast<double>(base.w.events) / (base.wallMs / 1e3)},
           {"speedup_shards4_at_scale", speedup4},
           {"cross_shard_fraction_at_scale", xshardFrac4},
           {"deterministic", deterministic ? 1.0 : 0.0},
           {"profile_reconciled", reconciled ? 1.0 : 0.0}}}});
  }
  if (!deterministic || !reconciled) {
    // Bench-abort path: dump whatever the flight recorder can see so the
    // failure leaves a post-mortem artifact (VIBE_FLIGHT_OUT).
    if (auto recorder = obs::FlightRecorder::fromEnv()) {
      recorder->dump(!deterministic
                         ? "bench_ext_pdes: determinism divergence across "
                           "shard counts"
                         : "bench_ext_pdes: shard profile or window "
                           "dispatch failed to reconcile with the engine "
                           "totals");
    }
    return 1;
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_pdes, run)
