// Extension: the InfiniBand forward-port the paper's conclusion promises
// ("we also plan to develop a similar micro-benchmark suite for the
// upcoming InfiniBand Architecture", §5). IBA carried VIA's verbs forward
// — QPs, CQs, registration, send/recv + both RDMA directions — so the
// VIBe suite runs unchanged against a first-generation HCA model and
// shows the generational jump over the paper's three systems.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("VIBe on an InfiniBand-class HCA",
              "Section 5 future work: the suite applied to IBA unchanged");

  std::vector<NamedProfile> all = paperProfiles();
  all.push_back({"iba", nic::profileByName("iba")});

  suite::ResultTable lat("One-way latency (us), polling",
                         {"bytes", "mvia", "bvia", "clan", "iba"});
  suite::ResultTable bw("Bandwidth (MB/s)",
                        {"bytes", "mvia", "bvia", "clan", "iba"});
  const std::vector<std::uint64_t> sizes = {4, 1024, 8192, 28672};
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = sweepGrid(
      sizes, all,
      [](std::uint64_t size, const NamedProfile& np, harness::PointEnv& env) {
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        Point pt;
        pt.lat =
            suite::runPingPong(clusterFor(np.profile, 2, env), cfg)
                .latencyUsec;
        pt.bw = suite::runBandwidth(clusterFor(np.profile, 2, env), cfg)
                    .bandwidthMBps;
        return pt;
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(bw, sizes, points, &Point::bw);
  emit(lat);
  emit(bw);

  // RDMA read — the verb none of the paper's systems implemented.
  const auto rdPoints = harness::runSweep(
      1,
      [&](harness::PointEnv& env) {
        suite::TransferConfig rd;
        rd.msgBytes = 4096;
        rd.useRdmaWrite = true;
        return suite::runPingPong(clusterFor(all.back().profile, 2, env), rd)
            .latencyUsec;
      },
      sweepOptions());
  std::printf(
      "RDMA write ping on IBA: %.2f us one way (and RDMA read is native —\n"
      "see the get/put layer, whose get() uses it only on this profile).\n"
      "Every VIBe insight transfers: the components are the same verbs,\n"
      "only the constants moved a decade.\n",
      rdPoints[0]);
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_infiniband, run)
