// Fig. 3: base latency and bandwidth with polling, for M-VIA / BVIA / cLAN.
// Base configuration: 100% buffer reuse, one data segment, no completion
// queue, one VI connection, no notify mechanism (paper §3.2.1).
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Base latency & bandwidth, polling",
              "Fig. 3: cLAN lowest latency; M-VIA beats BVIA for short "
              "messages, BVIA wins for long (M-VIA's extra copies); cLAN "
              "best bandwidth mid-range, BVIA best for large messages");

  suite::ResultTable lat("Base one-way latency, polling (us)",
                         {"bytes", "mvia", "bvia", "clan"});
  suite::ResultTable bw("Base bandwidth, polling (MB/s)",
                        {"bytes", "mvia", "bvia", "clan"});

  const auto sizes = suite::paperMessageSizes();
  const auto profiles = paperProfiles();
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = harness::runSweep(
      sizes.size() * profiles.size(),
      [&](harness::PointEnv& env) {
        const std::uint64_t size = sizes[env.index / profiles.size()];
        const auto& np = profiles[env.index % profiles.size()];
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.reap = suite::ReapMode::Poll;
        Point pt;
        pt.lat =
            suite::runPingPong(clusterFor(np.profile, 2, env), cfg).latencyUsec;
        suite::TransferConfig bcfg = cfg;
        bcfg.burst = size >= 16384 ? 60 : 120;
        pt.bw = suite::runBandwidth(clusterFor(np.profile, 2, env), bcfg)
                    .bandwidthMBps;
        return pt;
      },
      sweepOptions());

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    std::vector<double> latRow{static_cast<double>(sizes[si])};
    std::vector<double> bwRow{static_cast<double>(sizes[si])};
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
      const Point& pt = points[si * profiles.size() + pi];
      latRow.push_back(pt.lat);
      bwRow.push_back(pt.bw);
    }
    lat.addRow(latRow);
    bw.addRow(bwRow);
  }

  vibe::bench::emit(lat);
  vibe::bench::emit(bw);
  std::printf(
      "Paper anchors: 4B latency clan ~10us < mvia ~25us < bvia ~33us;\n"
      "M-VIA/BVIA latency crossover near 1-2 KB; peak bandwidth\n"
      "bvia > clan > mvia for 28 KB messages. CPU utilization is 100%%\n"
      "for every implementation when polling (not shown, as in the paper).\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(fig3_base_polling, run)
