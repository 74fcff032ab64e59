// Fig. 4: base latency and CPU utilization with blocking completion
// (VipSendWait/VipRecvWait). Paper shape: blocking latency significantly
// above polling latency (interrupt + scheduler wakeup on the critical
// path); CPU utilizations comparable across implementations for most sizes,
// with M-VIA highest for small messages (kernel emulation).
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Base latency & CPU utilization, blocking",
              "Fig. 4: blocking latency >> polling latency; M-VIA's CPU "
              "utilization highest for small messages");

  suite::ResultTable lat("One-way latency, blocking (us)",
                         {"bytes", "mvia", "bvia", "clan"});
  suite::ResultTable cpu("Receiver CPU utilization, blocking (%)",
                         {"bytes", "mvia", "bvia", "clan"});
  suite::ResultTable delta("Blocking minus polling latency (us)",
                           {"bytes", "mvia", "bvia", "clan"});

  const auto sizes = suite::paperMessageSizes();
  struct Point {
    double lat = 0.0;
    double cpu = 0.0;
    double delta = 0.0;
  };
  const auto points = sweepGrid(
      sizes, paperProfiles(),
      [](std::uint64_t size, const NamedProfile& np, harness::PointEnv& env) {
        suite::TransferConfig blocking;
        blocking.msgBytes = size;
        blocking.reap = suite::ReapMode::Block;
        const auto b =
            suite::runPingPong(clusterFor(np.profile, 2, env), blocking);
        suite::TransferConfig polling = blocking;
        polling.reap = suite::ReapMode::Poll;
        const auto p =
            suite::runPingPong(clusterFor(np.profile, 2, env), polling);
        return Point{b.latencyUsec, b.receiverCpuPct,
                     b.latencyUsec - p.latencyUsec};
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(cpu, sizes, points, &Point::cpu);
  addGridRows(delta, sizes, points, &Point::delta);

  vibe::bench::emit(lat);
  vibe::bench::emit(cpu);
  vibe::bench::emit(delta);
  std::printf(
      "With polling every implementation runs at 100%% CPU (paper §4.3.1);\n"
      "blocking trades latency for idle cycles. Bandwidth under blocking is\n"
      "similar to polling and is therefore not shown, as in the paper.\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(fig4_base_blocking, run)
