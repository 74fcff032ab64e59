// TR §3.2.5 extension: asynchronous message handling (L_async) — receive
// completions delivered through the VipRecvNotify handler instead of
// polling or blocking. The handler dispatch costs an interrupt, so async
// latency sits between polling and blocking-with-wakeup.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of asynchronous (notify) message handling",
              "TR §3.2.5: notify adds interrupt-dispatch cost over polling");

  suite::ResultTable t("One-way latency (us): poll vs notify vs block",
                       {"bytes", "mvia_poll", "mvia_notify", "mvia_block",
                        "bvia_poll", "bvia_notify", "bvia_block",
                        "clan_poll", "clan_notify", "clan_block"});
  const std::vector<std::uint64_t> sizes = {4, 256, 4096, 28672};
  const std::vector<suite::ReapMode> modes = {
      suite::ReapMode::Poll, suite::ReapMode::Notify, suite::ReapMode::Block};
  const auto points = sweepGrid(
      sizes, crossProduct(paperProfiles(), modes),
      [](std::uint64_t size, const auto& col, harness::PointEnv& env) {
        const auto& [np, mode] = col;
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.reap = mode;
        return suite::runPingPong(clusterFor(np.profile, 2, env), cfg)
            .latencyUsec;
      });
  addGridRows(t, sizes, points);
  vibe::bench::emit(t);
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_async, run)
