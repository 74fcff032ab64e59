// TR §3.2.5 extension: sender pipeline length (B_pipe) — streaming
// bandwidth versus the number of outstanding send descriptors. One
// outstanding send degenerates to half-round-trip pacing; a few outstanding
// messages saturate the bottleneck stage.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of sender pipeline length",
              "TR §3.2.5: bandwidth climbs with pipeline depth and "
              "saturates once the bottleneck stage stays busy");

  constexpr int kUnlimited = 999;  // the whole burst posted up front
  const std::vector<int> depths = {1, 2, 4, 8, 16, kUnlimited};
  const auto profiles = paperProfiles();
  for (const std::uint64_t size : {1024u, 4096u, 28672u}) {
    const auto bw = sweepGrid(
        depths, profiles,
        [&](int depth, const NamedProfile& np, harness::PointEnv& env) {
          suite::TransferConfig cfg;
          cfg.msgBytes = size;
          cfg.pipelineDepth = depth == kUnlimited ? 0 : depth;
          return suite::runBandwidth(clusterFor(np.profile, 2, env), cfg)
              .bandwidthMBps;
        });
    suite::ResultTable t(
        "Bandwidth (MB/s), " + std::to_string(size) + " B messages",
        {"depth", "mvia", "bvia", "clan"});
    addGridRows(t, depths, bw);
    vibe::bench::emit(t);
    std::printf("(depth 999 = unlimited: the whole burst posted up front)\n\n");
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_pipeline, run)
