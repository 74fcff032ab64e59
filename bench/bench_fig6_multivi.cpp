// Fig. 6: impact of the number of active VIs — latency and bandwidth for
// BVIA, whose firmware polls a descriptor structure for every active VI
// (discovery time grows linearly with VI count). M-VIA and cLAN controls
// do not change, as the paper reports.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of multiple active VIs",
              "Fig. 6: BVIA latency rises and bandwidth falls with the "
              "number of active VIs (firmware polls every VI); M-VIA and "
              "cLAN unaffected");

  const std::vector<int> viCounts = {1, 4, 8, 16, 32};
  const std::vector<std::uint64_t> sizes = {4, 1024, 4096, 12288, 28672};

  suite::ResultTable lat("BVIA one-way latency (us) vs #VIs",
                         {"bytes", "v1", "v4", "v8", "v16", "v32"});
  suite::ResultTable bw("BVIA bandwidth (MB/s) vs #VIs",
                        {"bytes", "v1", "v4", "v8", "v16", "v32"});

  const auto bvia = nic::bviaProfile();
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = sweepGrid(
      sizes, viCounts,
      [&](std::uint64_t size, int vis, harness::PointEnv& env) {
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.extraVis = vis - 1;
        Point pt;
        pt.lat = suite::runPingPong(clusterFor(bvia, 2, env), cfg).latencyUsec;
        pt.bw =
            suite::runBandwidth(clusterFor(bvia, 2, env), cfg).bandwidthMBps;
        return pt;
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(bw, sizes, points, &Point::bw);
  vibe::bench::emit(lat);
  vibe::bench::emit(bw);

  suite::ResultTable ctrl("Control: 4 B latency (us) with 1 vs 32 VIs",
                          {"impl", "v1", "v32"});
  const auto profiles = paperProfiles();
  struct CtrlPoint {
    double one = 0.0;
    double many = 0.0;
  };
  const auto ctrlPoints = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        const auto& np = profiles[env.index];
        suite::TransferConfig cfg;
        cfg.msgBytes = 4;
        const auto one = suite::runPingPong(clusterFor(np.profile, 2, env),
                                            cfg);
        cfg.extraVis = 31;
        const auto many = suite::runPingPong(clusterFor(np.profile, 2, env),
                                             cfg);
        return CtrlPoint{one.latencyUsec, many.latencyUsec};
      },
      sweepOptions());
  for (std::size_t i = 0; i < ctrlPoints.size(); ++i) {
    ctrl.addRow({static_cast<double>(i), ctrlPoints[i].one,
                 ctrlPoints[i].many});
  }
  vibe::bench::emit(ctrl);
  std::printf("(impl: 0 = M-VIA, 1 = BVIA, 2 = cLAN — only BVIA moves)\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(fig6_multivi, run)
