// TR §3.2.5 extension: maximum transfer size (B_mts). A fixed amount of
// data is moved in chunks of the negotiated MaxTransferSize: small MTS
// forces many messages (per-message overhead dominates), large MTS
// amortizes it. The per-message overhead ranking (BVIA > M-VIA > cLAN)
// determines how much each implementation suffers at small MTS.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of maximum transfer size",
              "TR §3.2.5: small MTS multiplies per-message overhead; "
              "bandwidth approaches the base curve as MTS grows");

  constexpr std::uint64_t kTotalBytes = 512 * 1024;
  const std::vector<std::uint32_t> mtsValues = {512,  1024,  2048,  4096,
                                                8192, 16384, 32768, 65536};

  suite::ResultTable t("Effective bandwidth (MB/s) moving 512 KiB",
                       {"mts_bytes", "mvia", "bvia", "clan"});
  const auto points = sweepGrid(
      mtsValues, paperProfiles(),
      [](std::uint32_t mts, const NamedProfile& np, harness::PointEnv& env) {
        suite::TransferConfig cfg;
        cfg.maxTransferSize = mts;
        cfg.msgBytes =
            std::min<std::uint64_t>(mts, np.profile.maxTransferSize);
        cfg.burst = static_cast<int>(kTotalBytes / cfg.msgBytes);
        return suite::runBandwidth(clusterFor(np.profile, 2, env), cfg)
            .bandwidthMBps;
      });
  addGridRows(t, mtsValues, points);
  vibe::bench::emit(t);
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_mts, run)
