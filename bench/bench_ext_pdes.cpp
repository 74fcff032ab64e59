// Extension: conservative PDES scaling. Every prior bench exercises one
// serial event loop; this one shards a single fat-tree multiclient
// simulation across cores (VIBE_SIM_SHARDS) and measures what that buys
// at fabric sizes the serial loop crawls through — up to the 8192-host
// k=32 fat-tree. Determinism is asserted inline: at every size the
// digest, event count, window count, and virtual end time must be
// byte-identical across all shard counts, or the bench fails loudly.
//
// Deliberately NOT part of the golden-table suite: its tables contain
// wall-clock columns. The deterministic columns are pinned by test_pdes
// instead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "bench_registry.hpp"
#include "fabric/pdes_traffic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "simcore/pdes.hpp"

namespace {

struct ShardRun {
  unsigned shards = 0;
  double wallMs = 0.0;
  vibe::fabric::PdesTrafficResult res;
};

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Conservative PDES scaling",
              "Extension: sharding one simulation across cores "
              "(paper testbeds and all prior benches are serial)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u; shard counts swept: 1 2 4%s\n", hw,
              hw > 4 ? " hw" : "");

  std::vector<unsigned> shardCounts = {1, 2, 4};
  if (hw > 4) shardCounts.push_back(hw);

  struct Size {
    std::uint32_t k;
    std::uint32_t rounds;
  };
  const std::vector<Size> sizes = {{8, 12}, {16, 12}, {32, 12}};

  suite::ResultTable table(
      "PDES fat-tree multiclient scaling (full population, k^3/4 hosts)",
      {"k", "hosts", "shards", "events", "windows", "wall_ms", "ev_per_sec",
       "speedup", "xshard_frac"});

  bool deterministic = true;
  double speedup4AtScale = 0.0;   // >= 4096 hosts, 4 shards
  double xshardFracAtScale = 0.0;
  double evPerSecSerial = 0.0;
  std::vector<ShardRun> atScale;  // k=32 runs, kept for the profiler table
  for (const Size& sz : sizes) {
    std::vector<ShardRun> runs;
    for (unsigned shards : shardCounts) {
      fabric::PdesTrafficConfig cfg;
      cfg.fatTreeK = sz.k;
      cfg.rounds = sz.rounds;
      cfg.seed = 42;
      cfg.shards = shards;
      cfg.profileShards = true;
      const auto t0 = std::chrono::steady_clock::now();
      ShardRun r;
      r.res = fabric::runPdesTraffic(cfg);
      r.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      r.shards = shards;
      runs.push_back(std::move(r));
    }
    const ShardRun& base = runs.front();
    if (sz.k == 32) {
      evPerSecSerial =
          static_cast<double>(base.res.events) / (base.wallMs / 1e3);
    }
    for (const ShardRun& r : runs) {
      if (r.res.digest != base.res.digest ||
          r.res.events != base.res.events ||
          r.res.windows != base.res.windows ||
          r.res.endTime != base.res.endTime) {
        std::printf("DETERMINISM FAIL: k=%u shards=%u diverged from serial "
                    "(digest %016llx vs %016llx)\n",
                    sz.k, r.shards,
                    static_cast<unsigned long long>(r.res.digest),
                    static_cast<unsigned long long>(base.res.digest));
        deterministic = false;
      }
      const double speedup = base.wallMs / r.wallMs;
      const double xfrac =
          r.res.messages == 0
              ? 0.0
              : static_cast<double>(r.res.crossShard) /
                    static_cast<double>(r.res.messages);
      if (sz.k == 32 && r.shards == 4) {
        speedup4AtScale = speedup;
        xshardFracAtScale = xfrac;
      }
      table.addRow({static_cast<double>(sz.k),
                    static_cast<double>(sz.k * sz.k * sz.k / 4),
                    static_cast<double>(r.res.shardsUsed),
                    static_cast<double>(r.res.events),
                    static_cast<double>(r.res.windows), r.wallMs,
                    static_cast<double>(r.res.events) / (r.wallMs / 1e3),
                    speedup, xfrac});
    }
    if (sz.k == 32) atScale = runs;
  }
  vibe::bench::emit(table);
  std::printf("determinism across shard counts: %s\n",
              deterministic ? "OK (digests byte-identical)" : "FAILED");

  // --- PDES runtime profiler: per-shard breakdown at scale ------------
  // Wall-clock columns (exec_ms, completion_ms, barrier_pct) vary run to
  // run; the event and window counts are deterministic. Totals must
  // reconcile with the engine-wide executedEvents()/windowsExecuted()
  // introspection. barrier_pct is the share of the shard's wall time its
  // home thread spent parked with no work.
  bool reconciled = true;
  for (const ShardRun& r : atScale) {
    suite::ResultTable prof(
        "PDES shard profile (k=32, shards=" + std::to_string(r.shards) +
            ", imbalance=max/mean events)",
        {"shard", "domains", "events", "ev_per_window", "occupancy",
         "exec_ms", "completion_ms", "barrier_pct", "xshard_sent"});
    std::uint64_t evTotal = 0;
    for (const sim::ShardProfile& p : r.res.shardProfiles) {
      evTotal += p.events;
      const double busyNs = static_cast<double>(p.execNs + p.completionNs +
                                                p.barrierWaitNs);
      prof.addRow({static_cast<double>(p.shard),
                   static_cast<double>(p.domains),
                   static_cast<double>(p.events),
                   r.res.windows == 0
                       ? 0.0
                       : static_cast<double>(p.events) /
                             static_cast<double>(r.res.windows),
                   r.res.windows == 0
                       ? 0.0
                       : static_cast<double>(p.windowsActive) /
                             static_cast<double>(r.res.windows),
                   static_cast<double>(p.execNs) / 1e6,
                   static_cast<double>(p.completionNs) / 1e6,
                   busyNs == 0.0
                       ? 0.0
                       : 100.0 * static_cast<double>(p.barrierWaitNs) /
                             busyNs,
                   static_cast<double>(p.crossShardSent)});
    }
    vibe::bench::emit(prof);
    std::printf("shard profile reconciliation (shards=%u): events %llu/%llu "
                "windows %llu, load imbalance %.3f: %s\n",
                r.shards, static_cast<unsigned long long>(evTotal),
                static_cast<unsigned long long>(r.res.events),
                static_cast<unsigned long long>(r.res.windows),
                r.res.loadImbalance,
                evTotal == r.res.events ? "OK" : "FAIL");
    if (evTotal != r.res.events) reconciled = false;
    if (statsAttached()) {
      obs::publishShardProfiles(
          statsRegistry(),
          "pdes.shards" + std::to_string(r.shards), r.res.shardProfiles,
          r.res.loadImbalance);
    }
  }
  std::printf(
      "Each shard owns the hosts under its edge switches; the window\n"
      "width is the derived cross-edge lookahead (header serialization +\n"
      "propagation up and down + core forwarding). Speedup tracks the\n"
      "hardware thread count, not the shard count: with fewer cores than\n"
      "active shards the woken threads just time-slice (hw=%u here).\n",
      hw);

  if (jsonRequested()) {
    writeBenchJson(
        "pdes", {},
        {{"scaling",
          {{"hw_threads", static_cast<double>(hw)},
           {"hosts_at_scale", 8192.0},
           {"events_at_scale_serial_per_sec", evPerSecSerial},
           {"speedup_shards4_at_scale", speedup4AtScale},
           {"cross_shard_fraction_at_scale", xshardFracAtScale},
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
                         : "bench_ext_pdes: shard profile failed to "
                           "reconcile with executedEvents()");
    }
    return 1;
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_pdes, run)
