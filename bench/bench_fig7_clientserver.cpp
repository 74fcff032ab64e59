// Fig. 7: client/server transaction benchmark — transactions per second
// for request sizes 16 B and 256 B with the reply size swept. Paper shape:
// cLAN on top; M-VIA above BVIA for short replies; BVIA overtakes in the
// mid range; the two converge for long replies.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/clientserver.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Client/server transaction benchmark",
              "Fig. 7: transactions/s for request sizes 16 and 256 bytes, "
              "varying reply size");

  const auto replies = suite::paperMessageSizes();
  const auto profiles = paperProfiles();
  for (const std::uint32_t request : {16u, 256u}) {
    const auto tps = sweepGrid(
        replies, profiles,
        [&](std::uint64_t reply, const NamedProfile& np,
            harness::PointEnv& env) {
          suite::ClientServerConfig cfg;
          cfg.requestBytes = request;
          cfg.replyBytes = static_cast<std::uint32_t>(reply);
          return suite::runClientServer(clusterFor(np.profile, 2, env), cfg)
              .transactionsPerSec;
        });
    suite::ResultTable t(
        "Transactions/s, request = " + std::to_string(request) + " B",
        {"reply_bytes", "mvia", "bvia", "clan"});
    addGridRows(t, replies, tps);
    vibe::bench::emit(t, 0);
  }
  std::printf(
      "Paper anchor: cLAN sustains the most transactions/s at every reply\n"
      "size (~45-50k for small replies); M-VIA beats BVIA for short replies,\n"
      "BVIA wins in the mid range, and the two converge for long replies.\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(fig7_clientserver, run)
