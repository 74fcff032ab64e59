// §4.3.3: impact of completion queues. Latency with receive completions
// checked through a CQ versus directly on the work queue. Paper finding:
// negligible for M-VIA and cLAN; 2-5 us of overhead for BVIA (the firmware
// writes a second completion record into NIC-resident CQ memory).
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of completion queues",
              "Section 4.3.3: CQ overhead negligible for M-VIA/cLAN, "
              "2-5 us for BVIA");

  suite::ResultTable t("CQ overhead on one-way latency (us)",
                       {"bytes", "mvia_wq", "mvia_cq", "bvia_wq", "bvia_cq",
                        "clan_wq", "clan_cq"});
  const std::vector<std::uint64_t> sizes = {4, 256, 1024, 4096, 28672};
  const auto profiles = paperProfiles();
  const std::vector<suite::ReapMode> reaps = {suite::ReapMode::Poll,
                                              suite::ReapMode::PollCq};
  const auto points = sweepGrid(
      sizes, crossProduct(profiles, reaps),
      [](std::uint64_t size, const auto& col, harness::PointEnv& env) {
        const auto& [np, reap] = col;
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.reap = reap;
        return suite::runPingPong(clusterFor(np.profile, 2, env), cfg)
            .latencyUsec;
      });
  addGridRows(t, sizes, points);
  vibe::bench::emit(t);

  std::printf("Per-implementation CQ overhead at 4 B (cq - wq):\n");
  const auto deltas = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        const auto& np = profiles[env.index];
        suite::TransferConfig direct;
        direct.msgBytes = 4;
        const auto wq =
            suite::runPingPong(clusterFor(np.profile, 2, env), direct);
        suite::TransferConfig viaCq = direct;
        viaCq.reap = suite::ReapMode::PollCq;
        const auto cq =
            suite::runPingPong(clusterFor(np.profile, 2, env), viaCq);
        return cq.latencyUsec - wq.latencyUsec;
      },
      sweepOptions());
  for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
    std::printf("  %-6s %+0.2f us\n", profiles[pi].shortName.c_str(),
                deltas[pi]);
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(cq_overhead, run)
