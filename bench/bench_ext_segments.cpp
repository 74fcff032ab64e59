// TR §3.2.5 extension: impact of multiple data segments per descriptor
// (L_seg / B_seg). Each implementation pays a per-segment cost at post time
// and (for NIC-processed models) in the gather/scatter engine.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of multiple data segments",
              "TR OSU-CISRC-10/00-TR20 §3.2.5: latency grows with segment "
              "count; steepest where segment handling is in slow firmware "
              "(BVIA), shallowest on the host-copy path (M-VIA)");

  // Every size has at least one byte per segment.
  const std::vector<int> segCounts = {1, 2, 4, 8, 16, 32};
  const auto profiles = paperProfiles();
  for (const std::uint64_t size : {256u, 4096u, 28672u}) {
    const auto lat = sweepGrid(
        segCounts, profiles,
        [&](int n, const NamedProfile& np, harness::PointEnv& env) {
          suite::TransferConfig cfg;
          cfg.msgBytes = size;
          cfg.dataSegments = n;
          return suite::runPingPong(clusterFor(np.profile, 2, env), cfg)
              .latencyUsec;
        });
    suite::ResultTable t(
        "One-way latency (us), " + std::to_string(size) + " B message",
        {"segments", "mvia", "bvia", "clan"});
    addGridRows(t, segCounts, lat);
    vibe::bench::emit(t);
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_segments, run)
