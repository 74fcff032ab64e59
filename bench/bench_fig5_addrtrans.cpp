// Fig. 5: impact of virtual-to-physical address translation — latency and
// bandwidth vs percentage of send/receive buffer reuse, for BVIA (the model
// whose NIC translates through a host-table-backed software cache).
// M-VIA and cLAN are insensitive to buffer reuse and are printed as
// controls, as the paper notes their results do not change significantly.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of address translation (buffer reuse %)",
              "Fig. 5: BVIA latency rises and bandwidth falls as reuse "
              "drops; the effect grows with message size (more pages per "
              "message); M-VIA/cLAN unaffected");

  const std::vector<int> reuseLevels = {100, 75, 50, 25, 0};
  const std::vector<std::uint64_t> sizes = {4, 1024, 4096, 12288, 28672};

  suite::ResultTable lat(
      "BVIA one-way latency (us) vs reuse%",
      {"bytes", "r100", "r75", "r50", "r25", "r0"});
  suite::ResultTable bw(
      "BVIA bandwidth (MB/s) vs reuse%",
      {"bytes", "r100", "r75", "r50", "r25", "r0"});

  const auto bvia = nic::bviaProfile();
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = sweepGrid(
      sizes, reuseLevels,
      [&](std::uint64_t size, int reuse, harness::PointEnv& env) {
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.reusePercent = reuse;
        cfg.bufferPool = reuse == 100 ? 1 : 160;  // overwhelm the 64-entry TLB
        cfg.iterations = 200;
        cfg.warmup = 20;
        Point pt;
        pt.lat = suite::runPingPong(clusterFor(bvia, 2, env), cfg).latencyUsec;
        suite::TransferConfig bcfg = cfg;
        bcfg.burst = 150;
        pt.bw = suite::runBandwidth(clusterFor(bvia, 2, env), bcfg)
                    .bandwidthMBps;
        return pt;
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(bw, sizes, points, &Point::bw);
  vibe::bench::emit(lat);
  vibe::bench::emit(bw);

  // Control: the other two implementations at 0% vs 100% reuse.
  suite::ResultTable ctrl("Control: 28 KB latency (us) at 100%/0% reuse",
                          {"impl", "r100", "r0"});
  const auto profiles = paperProfiles();
  struct CtrlPoint {
    double full = 0.0;
    double none = 0.0;
  };
  const auto ctrlPoints = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        const auto& np = profiles[env.index];
        suite::TransferConfig cfg;
        cfg.msgBytes = 28672;
        cfg.iterations = 100;
        const auto full = suite::runPingPong(clusterFor(np.profile, 2, env),
                                             cfg);
        cfg.reusePercent = 0;
        cfg.bufferPool = 160;
        const auto none = suite::runPingPong(clusterFor(np.profile, 2, env),
                                             cfg);
        return CtrlPoint{full.latencyUsec, none.latencyUsec};
      },
      sweepOptions());
  for (std::size_t i = 0; i < ctrlPoints.size(); ++i) {
    // 0 = mvia, 1 = bvia, 2 = clan
    ctrl.addRow({static_cast<double>(i), ctrlPoints[i].full,
                 ctrlPoints[i].none});
  }
  vibe::bench::emit(ctrl);
  std::printf("(impl: 0 = M-VIA, 1 = BVIA, 2 = cLAN — only BVIA moves)\n\n");

  // Partial reuse makes the latency *distribution* bimodal: cached
  // iterations at the fast mode, cold ones paying the full miss chain.
  // Mean-only reporting (all the paper had) hides this; the suite also
  // records per-iteration percentiles.
  suite::ResultTable dist(
      "BVIA 12 KB one-way latency distribution (us) vs reuse%",
      {"reuse_pct", "mean", "p50", "p99"});
  const std::vector<int> distReuse = {100, 50, 0};
  const auto distPoints = harness::runSweep(
      distReuse.size(),
      [&](harness::PointEnv& env) {
        const int reuse = distReuse[env.index];
        suite::TransferConfig cfg;
        cfg.msgBytes = 12288;
        cfg.reusePercent = reuse;
        cfg.bufferPool = reuse == 100 ? 1 : 160;
        cfg.iterations = 200;
        return suite::runPingPong(clusterFor(bvia, 2, env), cfg);
      },
      sweepOptions());
  for (std::size_t i = 0; i < distReuse.size(); ++i) {
    const auto& r = distPoints[i];
    dist.addRow({static_cast<double>(distReuse[i]), r.latencyUsec,
                 r.latencyP50Usec, r.latencyP99Usec});
  }
  vibe::bench::emit(dist);
  std::printf("At 50%% reuse the p99/p50 gap is the full translation-miss\n"
              "chain; at 100%% and 0%% the distribution is tight again.\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(fig5_addrtrans, run)
