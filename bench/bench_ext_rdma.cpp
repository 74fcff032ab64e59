// TR §3.2.5 extension: RDMA operations (L_rdma / B_rdma). RDMA write with
// immediate data versus the send/receive model. BVIA 2.2 does not
// implement RDMA — its cells print as n/s, itself a VIBe insight.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("RDMA write vs send/receive",
              "TR §3.2.5: RDMA write skips receive-descriptor matching; "
              "BVIA lacks RDMA entirely (reported as n/s)");

  suite::ResultTable lat("One-way latency (us): send/recv vs RDMA write",
                         {"bytes", "mvia_sr", "mvia_rdma", "bvia_sr",
                          "bvia_rdma", "clan_sr", "clan_rdma"});
  suite::ResultTable bw("Bandwidth (MB/s): send/recv vs RDMA write",
                        {"bytes", "mvia_sr", "mvia_rdma", "bvia_sr",
                         "bvia_rdma", "clan_sr", "clan_rdma"});
  const std::vector<std::uint64_t> sizes = {4, 1024, 4096, 28672};
  const std::vector<bool> rdmaWrite = {false, true};
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = sweepGrid(
      sizes, crossProduct(paperProfiles(), rdmaWrite),
      [](std::uint64_t size, const auto& col, harness::PointEnv& env) {
        const auto& [np, rdma] = col;
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.useRdmaWrite = rdma;
        const auto ping =
            suite::runPingPong(clusterFor(np.profile, 2, env), cfg);
        const auto stream =
            suite::runBandwidth(clusterFor(np.profile, 2, env), cfg);
        const double nanv = std::numeric_limits<double>::quiet_NaN();
        return Point{ping.supported ? ping.latencyUsec : nanv,
                     stream.supported ? stream.bandwidthMBps : nanv};
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(bw, sizes, points, &Point::bw);
  vibe::bench::emit(lat);
  vibe::bench::emit(bw);
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_rdma, run)
