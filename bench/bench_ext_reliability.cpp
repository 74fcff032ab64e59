// TR §3.2.5 extension: reliability levels (L_rel / B_rel). Unreliable
// delivery completes sends locally; Reliable Delivery waits for the NIC
// receipt ack; Reliable Reception waits for the memory-placement ack. The
// benchmark also shows goodput under injected frame loss, where the
// reliable levels pay retransmission while Unreliable silently loses data.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/datatransfer.hpp"

namespace {

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Impact of reliability level",
              "TR §3.2.5: UD < RD < RR in send-completion cost; ping-pong "
              "latency is similar (the reply already acknowledges), "
              "bandwidth differs via ack/window pressure");

  const std::vector<nic::Reliability> levels = {
      nic::Reliability::Unreliable, nic::Reliability::ReliableDelivery,
      nic::Reliability::ReliableReception};

  suite::ResultTable lat("One-way latency (us) by reliability level",
                         {"bytes", "mvia_ud", "mvia_rd", "mvia_rr",
                          "bvia_ud", "bvia_rd", "bvia_rr", "clan_ud",
                          "clan_rd", "clan_rr"});
  suite::ResultTable bw("Bandwidth (MB/s) by reliability level",
                        {"bytes", "mvia_ud", "mvia_rd", "mvia_rr",
                         "bvia_ud", "bvia_rd", "bvia_rr", "clan_ud",
                         "clan_rd", "clan_rr"});
  const std::vector<std::uint64_t> sizes = {4, 1024, 4096, 28672};
  const auto profiles = paperProfiles();
  struct Point {
    double lat = 0.0;
    double bw = 0.0;
  };
  const auto points = sweepGrid(
      sizes, crossProduct(profiles, levels),
      [](std::uint64_t size, const auto& col, harness::PointEnv& env) {
        const auto& [np, level] = col;
        suite::TransferConfig cfg;
        cfg.msgBytes = size;
        cfg.reliability = level;
        Point pt;
        pt.lat =
            suite::runPingPong(clusterFor(np.profile, 2, env), cfg).latencyUsec;
        pt.bw = suite::runBandwidth(clusterFor(np.profile, 2, env), cfg)
                    .bandwidthMBps;
        return pt;
      });
  addGridRows(lat, sizes, points, &Point::lat);
  addGridRows(bw, sizes, points, &Point::bw);
  vibe::bench::emit(lat);
  vibe::bench::emit(bw);

  // The level semantics show up in *send completion* time: UD completes at
  // local transmit, RD at the remote NIC's receipt ack, RR only once the
  // data has been placed in target memory.
  suite::ResultTable sc("Send post-to-completion time (us), 4096 B",
                        {"impl", "ud", "rd", "rr"});
  const auto scPoints = sweepGrid(
      profiles, levels,
      [](const NamedProfile& np, nic::Reliability level,
         harness::PointEnv& env) {
        suite::TransferConfig cfg;
        cfg.msgBytes = 4096;
        cfg.reliability = level;
        cfg.measureSendCompletion = true;
        return suite::runPingPong(clusterFor(np.profile, 2, env), cfg)
            .sendCompletionUsec;
      });
  addGridRows(sc, std::vector<int>{0, 1, 2}, scPoints);
  vibe::bench::emit(sc);
  std::printf("(impl: 0 = M-VIA, 1 = BVIA, 2 = cLAN)\n\n");

  // Reliable goodput under loss: RD keeps delivering (slower), UD loses.
  suite::ResultTable lossT(
      "cLAN 4 KiB bandwidth (MB/s) under frame loss, RD",
      {"loss_pct", "rd_bandwidth"});
  const std::vector<double> losses = {0.0, 0.01, 0.05};
  const auto lossPoints = harness::runSweep(
      losses.size(),
      [&](harness::PointEnv& env) {
        suite::ClusterConfig cc = clusterFor(nic::clanProfile(), 2, env);
        cc.lossRate = losses[env.index];
        suite::TransferConfig cfg;
        cfg.msgBytes = 4096;
        cfg.burst = 100;
        return suite::runBandwidth(cc, cfg).bandwidthMBps;
      },
      sweepOptions());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    lossT.addRow({losses[i] * 100.0, lossPoints[i]});
  }
  vibe::bench::emit(lossT);
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_reliability, run)
