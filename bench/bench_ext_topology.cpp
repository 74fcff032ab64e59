// Extension: multi-switch topology. The paper's testbeds used a single
// switch; scaling a SAN past one switch adds trunk hops and trunk sharing.
// This bench quantifies both on the cLAN model: the per-hop latency tax of
// crossing the root, the bandwidth collapse when an oversubscribed trunk
// carries concurrent flows, and — on the k-ary fat-tree fabric — the
// path-length tiers of a folded Clos, tail drop under 1023:1 incast with
// finite switch buffers, and the throughput collapse of an all-cross-pod
// permutation as the fabric tier is oversubscribed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "fabric/topology.hpp"
#include "simcore/pdes.hpp"
#include "vibe/datatransfer.hpp"

namespace {

/// Raw-fabric TopologySpec on the cLAN link model (no NIC/VIPL stack):
/// at 1024 hosts the full provider stack is too heavy, but the fabric
/// alone — links, switches, ECMP, buffers — simulates in milliseconds.
vibe::fabric::TopologySpec rawFatTree(std::uint32_t k, std::uint32_t nodes,
                                      std::uint32_t bufferFrames,
                                      double trunkMBps = 0.0) {
  const vibe::nic::NicProfile p = vibe::nic::clanProfile();
  vibe::fabric::TopologySpec spec;
  spec.kind = vibe::fabric::TopologyKind::FatTree;
  spec.nodes = nodes;
  spec.hostLink.bandwidthMBps = p.linkMBps;
  spec.hostLink.propagation = p.linkPropagation;
  spec.hostLink.headerBytes = p.linkHeaderBytes;
  spec.edgeLatency = p.switchLatency;
  spec.fatTreeK = k;
  spec.fabricLink = spec.hostLink;
  if (trunkMBps > 0.0) spec.fabricLink.bandwidthMBps = trunkMBps;
  spec.coreLatency = p.switchLatency;
  spec.portBufferFrames = bufferFrames;
  return spec;
}

vibe::fabric::PacketPtr rawFrame(std::uint32_t src, std::uint32_t dst,
                                 std::size_t payloadBytes) {
  auto f = std::make_unique<vibe::fabric::Packet>();
  f->kind = vibe::fabric::PacketKind::Data;
  f->src = src;
  f->dst = dst;
  f->payload = vibe::fabric::Payload::build(
      payloadBytes, [](std::span<std::byte> out) {
        std::fill(out.begin(), out.end(), std::byte{0x5A});
      });
  return f;
}

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Two-level switch topology",
              "Extension: latency/bandwidth across a root switch and under "
              "trunk oversubscription (paper testbeds were single-switch)");

  suite::ResultTable lat("One-way latency (us): single switch vs via root",
                         {"bytes", "flat", "cross_leaf"});
  const std::vector<std::uint64_t> sizes = {4, 1024, 8192, 28672};
  struct LatPoint {
    double flat = 0.0;
    double tree = 0.0;
  };
  const auto latPoints = harness::runSweep(
      sizes.size(),
      [&](harness::PointEnv& env) {
        suite::TransferConfig t;
        t.msgBytes = sizes[env.index];
        suite::ClusterConfig flat = clusterFor(nic::clanProfile(), 2, env);
        suite::ClusterConfig tree = flat;
        tree.nodesPerSwitch = 1;  // nodes 0 and 1 sit on different leaves
        return LatPoint{suite::runPingPong(flat, t).latencyUsec,
                        suite::runPingPong(tree, t).latencyUsec};
      },
      sweepOptions());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    lat.addRow({static_cast<double>(sizes[i]), latPoints[i].flat,
                latPoints[i].tree});
  }
  vibe::bench::emit(lat);

  suite::ResultTable bw(
      "Streaming bandwidth (MB/s) vs trunk capacity, 8 KB messages",
      {"trunk_MBps", "bandwidth"});
  const std::vector<double> trunks = {156.0, 110.0, 60.0, 30.0};
  const auto bwPoints = harness::runSweep(
      trunks.size(),
      [&](harness::PointEnv& env) {
        suite::ClusterConfig tree = clusterFor(nic::clanProfile(), 2, env);
        tree.nodesPerSwitch = 1;
        tree.trunkMBps = trunks[env.index];
        suite::TransferConfig t;
        t.msgBytes = 8192;
        return suite::runBandwidth(tree, t).bandwidthMBps;
      },
      sweepOptions());
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    bw.addRow({trunks[i], bwPoints[i]});
  }
  vibe::bench::emit(bw);
  std::printf(
      "Crossing the root adds two trunk traversals plus its forwarding\n"
      "latency at every size; once the trunk is slower than the hosts'\n"
      "PCI DMA (~112 MB/s here), it becomes the end-to-end bottleneck.\n");

  // Fat-tree path tiers: the full VIA stack over a k=4 fat-tree (16
  // hosts). Host pairs sit 2, 4, or 6 links apart depending on whether
  // they share an edge switch, a pod, or nothing; each tier adds two
  // fabric-link traversals plus two switch forwards to the one-way path.
  suite::ResultTable ft(
      "Fat-tree one-way latency (us), k=4, 16 hosts, cLAN stack",
      {"bytes", "same_edge", "same_pod", "cross_pod"});
  const std::vector<std::uint32_t> dsts = {1, 2, 12};  // src is host 0
  const auto ftPoints = sweepGrid(
      sizes, dsts,
      [](std::uint64_t size, std::uint32_t dst, harness::PointEnv& env) {
        suite::TransferConfig t;
        t.msgBytes = size;
        t.pingDst = dst;
        suite::ClusterConfig cc = clusterFor(nic::clanProfile(), 16, env);
        cc.fatTreeK = 4;
        return suite::runPingPong(cc, t).latencyUsec;
      });
  addGridRows(ft, sizes, ftPoints);
  vibe::bench::emit(ft);

  // 1023:1 incast on a 1024-host k=16 fat-tree (raw fabric): every other
  // host fires a burst of 1 KB frames at host 0. The victim's edge down
  // port can only drain one frame at a time, so finite output buffers
  // tail-drop the convergent burst; the unbounded legacy wire absorbs it
  // all into an ever-deeper queue instead.
  suite::ResultTable incast(
      "Incast, 1023 senders -> 1 host, k=16 fat-tree, 1024 hosts, "
      "4 x 1 KB frames each",
      {"buf_frames", "delivered", "dropped", "max_queue"});
  const std::vector<std::uint32_t> bufs = {0, 256, 64, 16};
  struct IncastPoint {
    double delivered = 0;
    double dropped = 0;
    double maxQueue = 0;
  };
  const std::vector<IncastPoint> incastRows = harness::runSweep(
      bufs.size(),
      [&](harness::PointEnv& env) {
        sim::ShardedEngine eng(sim::EngineConfig{});
        fabric::Topology net(eng, rawFatTree(16, 1024, bufs[env.index]));
        std::uint64_t delivered = 0;
        for (std::uint32_t n = 0; n < 1024; ++n) {
          net.setReceiver(n, [&](fabric::PacketPtr) { ++delivered; });
        }
        for (std::uint32_t s = 1; s < 1024; ++s) {
          for (int i = 0; i < 4; ++i) net.send(rawFrame(s, 0, 1024));
        }
        eng.run();
        return IncastPoint{static_cast<double>(delivered),
                           static_cast<double>(net.switchBufferDrops()),
                           static_cast<double>(net.maxQueueDepth())};
      },
      sweepOptions());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    incast.addRow({static_cast<double>(bufs[i]), incastRows[i].delivered,
                   incastRows[i].dropped, incastRows[i].maxQueue});
  }
  vibe::bench::emit(incast, 0);

  // Fabric oversubscription: an all-cross-pod permutation (host i -> host
  // (i + 512) mod 1024) over the same 1024-host fat-tree, with the
  // inter-switch links throttled below the 156 MB/s host links. ECMP
  // spreads the 1024 flows across the 64 cores; aggregate goodput tracks
  // the fabric tier until the trunks become the bottleneck.
  suite::ResultTable oversub(
      "Cross-pod permutation goodput (MB/s), k=16 fat-tree, 1024 hosts, "
      "16 x 1 KB frames per flow",
      {"trunk_MBps", "agg_MBps", "max_queue"});
  struct OversubPoint {
    double aggMBps = 0;
    double maxQueue = 0;
  };
  const std::vector<OversubPoint> oversubRows = harness::runSweep(
      trunks.size(),
      [&](harness::PointEnv& env) {
        sim::ShardedEngine eng(sim::EngineConfig{});
        const sim::Engine& clock = eng.domainEngine(0);
        // Buffers large enough never to drop (4096 frames) but finite, so
        // the fabric meters occupancy: max_queue shows where the slow
        // trunks back traffic up.
        fabric::Topology net(
            eng, rawFatTree(16, 1024, 4096, trunks[env.index]));
        std::uint64_t deliveredBytes = 0;
        sim::SimTime last = 0;
        for (std::uint32_t n = 0; n < 1024; ++n) {
          net.setReceiver(n, [&](fabric::PacketPtr f) {
            deliveredBytes += f->payload.size();
            last = std::max(last, clock.now());
          });
        }
        for (std::uint32_t s = 0; s < 1024; ++s) {
          for (int i = 0; i < 16; ++i) {
            net.send(rawFrame(s, (s + 512u) % 1024u, 1024));
          }
        }
        eng.run();
        return OversubPoint{
            static_cast<double>(deliveredBytes) / 1e6 / sim::toSec(last),
            static_cast<double>(net.maxQueueDepth())};
      },
      sweepOptions());
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    oversub.addRow(
        {trunks[i], oversubRows[i].aggMBps, oversubRows[i].maxQueue});
  }
  vibe::bench::emit(oversub);
  std::printf(
      "The fat-tree's tiers price the Clos geometry: each tier adds two\n"
      "link serializations plus two switch forwards each way. Incast is\n"
      "absorbed silently by the legacy unbounded wire (occupancy is only\n"
      "metered on finite buffers, hence max_queue 0 on that row) but\n"
      "tail-drops once port buffers are finite — the drop count, not\n"
      "latency, is the congestion signal. Under the cross-pod permutation\n"
      "the 64 cores carry all 1024 flows, so aggregate goodput degrades\n"
      "roughly with the trunk rate once it falls below the host links'.\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_topology, run)
