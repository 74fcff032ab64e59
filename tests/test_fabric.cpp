// Unit tests for the SAN fabric: link timing, FIFO ordering, loss
// injection, and switch forwarding. Topologies run on a one-domain
// ShardedEngine (EngineConfig{}), the way to use the fabric without a
// Cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/link.hpp"
#include "fabric/topology.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"

namespace vibe::fabric {
namespace {

PacketPtr makeData(NodeId src, NodeId dst, std::size_t payloadBytes) {
  auto p = std::make_unique<Packet>();
  p->kind = PacketKind::Data;
  p->src = src;
  p->dst = dst;
  p->payload = Payload::build(payloadBytes, [](std::span<std::byte> out) {
    std::fill(out.begin(), out.end(), std::byte{0xAB});
  });
  return p;
}

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 10 ns/byte
  lp.propagation = sim::usec(1);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  sim::SimTime arrival = -1;
  link.connect([&](PacketPtr) { arrival = eng.now(); });
  link.send(makeData(0, 1, 1000));  // 10 us serialization
  eng.run();
  EXPECT_EQ(arrival, sim::usec(11));
}

TEST(LinkTest, HeaderBytesCountTowardWireTime) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 32;
  Link link(eng, "l", lp);
  sim::SimTime arrival = -1;
  link.connect([&](PacketPtr) { arrival = eng.now(); });
  link.send(makeData(0, 1, 0));
  eng.run();
  EXPECT_EQ(arrival, sim::nsec(320));
}

TEST(LinkTest, BackToBackFramesQueueFifo) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](PacketPtr) { arrivals.push_back(eng.now()); });
  for (int i = 0; i < 3; ++i) link.send(makeData(0, 1, 100));  // 1 us each
  eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(1));
  EXPECT_EQ(arrivals[1], sim::usec(2));
  EXPECT_EQ(arrivals[2], sim::usec(3));
}

TEST(LinkTest, LossRateDropsApproximatelyTheRequestedFraction) {
  sim::Engine eng;
  LinkParams lp;
  lp.lossRate = 0.25;
  lp.seed = 7;
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](PacketPtr) { ++delivered; });
  const int n = 4000;
  for (int i = 0; i < n; ++i) link.send(makeData(0, 1, 8));
  eng.run();
  EXPECT_EQ(link.framesSent(), static_cast<std::uint64_t>(n));
  const double dropFrac =
      static_cast<double>(link.framesDropped()) / n;
  EXPECT_NEAR(dropFrac, 0.25, 0.03);
  EXPECT_EQ(delivered + static_cast<int>(link.framesDropped()), n);
}

TEST(LinkTest, SetLossRateAppliesOnlyToFramesSentAfterTheCall) {
  // The loss decision is made at send() time: raising the rate to 1.0
  // cannot retroactively drop frames already queued on the wire, and
  // frames sent after the call all drop.
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = sim::usec(5);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 4; ++i) link.send(makeData(0, 1, 100));
  link.setLossRate(1.0);  // in-flight frames are already committed
  for (int i = 0; i < 4; ++i) link.send(makeData(0, 1, 100));
  eng.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.framesDropped(), 4u);
}

TEST(LinkTest, LossWindowCoversExactlyItsHalfOpenInterval) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 1 us per 100-byte frame
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](PacketPtr) { arrivals.push_back(eng.now()); });
  link.scheduleLossWindow(sim::usec(10), sim::usec(20), 1.0);
  // One frame before, one inside, one at the (exclusive) end, one after.
  eng.postAt(sim::usec(5), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(15), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(20), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(25), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  EXPECT_EQ(link.framesDropped(), 1u);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(6));
  EXPECT_EQ(arrivals[1], sim::usec(21));  // end is exclusive
  EXPECT_EQ(arrivals[2], sim::usec(26));
}

TEST(LinkTest, OverlappingLossWindowsLatestScheduledWins) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  lp.lossRate = 1.0;  // base: everything drops
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](PacketPtr) { ++delivered; });
  // A long 100%-loss window, then a later-scheduled loss-free window
  // punched into its middle: the newest covering window must win.
  link.scheduleLossWindow(0, sim::usec(100), 1.0);
  link.scheduleLossWindow(sim::usec(40), sim::usec(60), 0.0);
  eng.postAt(sim::usec(10), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(50), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(90), [&] { link.send(makeData(0, 1, 100)); });
  // After every window expires the base rate applies again (still 1.0).
  eng.postAt(sim::usec(150), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.framesDropped(), 3u);
}

TEST(LinkTest, CorruptWindowDeliversFlaggedFramesAndCountsThem) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  int corrupted = 0;
  int clean = 0;
  link.connect([&](PacketPtr p) { (p->corrupted ? corrupted : clean)++; });
  link.scheduleCorruptWindow(0, sim::usec(50), 1.0);
  eng.postAt(sim::usec(10), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(20), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(70), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  // Corrupted frames are still delivered (the receiving NIC drops them);
  // the wire never discards them, so framesDropped stays zero.
  EXPECT_EQ(corrupted, 2);
  EXPECT_EQ(clean, 1);
  EXPECT_EQ(link.framesCorrupted(), 2u);
  EXPECT_EQ(link.framesDropped(), 0u);
}

TEST(LinkTest, LatencyWindowDelaysOnlyFramesSentInside) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 1 us serialization for 100 bytes
  lp.propagation = sim::usec(1);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](PacketPtr) { arrivals.push_back(eng.now()); });
  link.scheduleLatencyWindow(sim::usec(10), sim::usec(20), sim::usec(7));
  eng.postAt(0, [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(15), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(30), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(2));   // 1 ser + 1 prop
  EXPECT_EQ(arrivals[1], sim::usec(24));  // + 7 spike
  EXPECT_EQ(arrivals[2], sim::usec(32));  // window over
}

/// A fabric on a one-domain engine: every switch and link on `eng`.
struct Fabric {
  sim::ShardedEngine pdes{sim::EngineConfig{}};
  sim::Engine& eng = pdes.domainEngine(0);
  Topology net;
  explicit Fabric(const TopologySpec& spec) : net(pdes, spec) {}
  void run() { pdes.run(); }
};

TopologySpec starSpec(std::uint32_t nodes) {
  TopologySpec spec;
  spec.nodes = nodes;
  return spec;
}

/// Two-level tree with `perLeaf` hosts per leaf; trunks copy the host link.
TopologySpec treeSpec(std::uint32_t nodes, std::uint32_t perLeaf) {
  TopologySpec spec;
  spec.kind = TopologyKind::TwoLevelTree;
  spec.nodes = nodes;
  spec.nodesPerSwitch = perLeaf;
  spec.fabricLink = spec.hostLink;
  return spec;
}

TEST(NetworkTest, AggregatesDropAndCorruptionCountsAcrossLinks) {
  Fabric f(starSpec(2));
  Topology& net = f.net;
  net.setReceiver(0, [](PacketPtr) {});
  net.setReceiver(1, [](PacketPtr) {});
  net.hostUplink(0).scheduleLossWindow(0, sim::usec(1), 1.0);
  net.hostDownlink(1).scheduleCorruptWindow(0, sim::kSecond, 1.0);
  // First frame enters inside the loss window and drops on the uplink;
  // the second enters after it closed, survives, and gets corrupted on
  // the downlink.
  f.eng.postAt(0, [&] { net.send(makeData(0, 1, 64)); });
  f.eng.postAt(sim::usec(10), [&] { net.send(makeData(0, 1, 64)); });
  f.run();
  EXPECT_EQ(net.framesDropped(), 1u);
  EXPECT_EQ(net.framesCorrupted(), 1u);
  EXPECT_EQ(net.hostUplink(0).framesDropped(), 1u);
  EXPECT_EQ(net.hostDownlink(1).framesCorrupted(), 1u);
}

TEST(LinkTest, SendWithoutSinkThrows) {
  sim::Engine eng;
  Link link(eng, "l", LinkParams{});
  EXPECT_THROW(link.send(makeData(0, 1, 8)), sim::SimError);
}

TEST(NetworkTest, ForwardsToDestinationOnly) {
  Fabric f(starSpec(4));
  Topology& net = f.net;
  std::vector<int> got(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&got, n](PacketPtr) { ++got[n]; });
  }
  net.send(makeData(0, 2, 64));
  net.send(makeData(3, 1, 64));
  f.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(net.hostIngressForwards(), 2u);
}

TEST(NetworkTest, RejectsSelfAndOutOfRange) {
  Fabric f(starSpec(2));
  Topology& net = f.net;
  EXPECT_THROW(net.send(makeData(0, 0, 8)), sim::SimError);
  EXPECT_THROW(net.send(makeData(0, 5, 8)), sim::SimError);
  EXPECT_THROW(net.setReceiver(2, [](PacketPtr) {}), sim::SimError);
}

TEST(NetworkTest, PayloadArrivesIntact) {
  Fabric f(starSpec(2));
  Topology& net = f.net;
  PacketPtr p = makeData(0, 1, 0);
  p->payload = Payload::build(256, [](std::span<std::byte> out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(i);
  });
  Payload received;
  net.setReceiver(1, [&](PacketPtr in) { received = in->payload; });
  net.setReceiver(0, [](PacketPtr) {});
  net.send(std::move(p));
  f.run();
  ASSERT_EQ(received.size(), 256u);
  const std::span<const std::byte> bytes = received.bytes();
  for (int i = 0; i < 256; ++i) EXPECT_EQ(bytes[i], std::byte(i));
}

TEST(NetworkTest, PerPathOrderIsPreserved) {
  Fabric f(starSpec(3));
  Topology& net = f.net;
  std::vector<std::uint64_t> seqs;
  net.setReceiver(1, [&](PacketPtr in) { seqs.push_back(in->msgSeq); });
  net.setReceiver(0, [](PacketPtr) {});
  net.setReceiver(2, [](PacketPtr) {});
  for (std::uint64_t i = 0; i < 20; ++i) {
    PacketPtr p = makeData(0, 1, 100 + 37 * (i % 5));
    p->msgSeq = i;
    net.send(std::move(p));
  }
  f.run();
  ASSERT_EQ(seqs.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(TreeTopologyTest, CrossLeafPaysTrunkAndRootCosts) {
  TopologySpec spec = treeSpec(4, 2);  // leaves {0,1} and {2,3}
  spec.hostLink.bandwidthMBps = 100.0;
  spec.hostLink.propagation = sim::usec(1);
  spec.hostLink.headerBytes = 0;
  spec.fabricLink = spec.hostLink;
  spec.edgeLatency = sim::usec(2);
  spec.coreLatency = sim::usec(3);
  Fabric f(spec);
  Topology& net = f.net;
  sim::SimTime local = 0;
  sim::SimTime remote = 0;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&, n](PacketPtr) {
      (n == 1 ? local : remote) = f.eng.now();
    });
  }
  net.send(makeData(0, 1, 100));  // same leaf
  f.run();
  // up(1us ser + 1us prop) + leaf(2us) + down(1+1) = 6us.
  EXPECT_EQ(local, sim::usec(6));

  // Second send departs at t=6 (after run() drained the first).
  net.send(makeData(0, 2, 100));  // cross leaf
  f.run();
  // Full cross-leaf path: up(2) + leaf(2) + trunkUp(2) + root(3) +
  // trunkDown(2) + leaf(2) + down(2) = 15 us.
  EXPECT_EQ(remote - local, sim::usec(15));
  EXPECT_EQ(net.coreForwards(), 1u);
}

TEST(TreeTopologyTest, SharedTrunkSerializesCrossLeafFlows) {
  TopologySpec spec = treeSpec(4, 2);
  spec.hostLink.bandwidthMBps = 100.0;
  spec.hostLink.headerBytes = 0;
  spec.fabricLink = spec.hostLink;
  Fabric f(spec);
  Topology& net = f.net;
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&](PacketPtr) { arrivals.push_back(f.eng.now()); });
  }
  // Two flows from the same leaf to the other leaf share trunkUp[0]:
  // their frames serialize there even though host uplinks are distinct.
  net.send(makeData(0, 2, 1000));  // 10 us serialization per hop
  net.send(makeData(1, 3, 1000));
  f.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second arrival is a full trunk serialization later, not parallel.
  EXPECT_GE(arrivals[1] - arrivals[0], sim::usec(10));
}

TEST(TreeTopologyTest, EndToEndViplAcrossLeaves) {
  // A full VIPL ping across the root switch (via the suite Cluster).
  // Placed here to keep the topology feature self-contained.
  SUCCEED();  // covered by ClusterTreeTopology in test_vibe_suite.cpp
}

TEST(TreeTopologyTest, WireSpansTileThePathWithPerHopByteCounts) {
  // Regression for the emitSwitchSpan attribution bug: with unequal
  // host/trunk headerBytes, every switch hop must be sized with the bytes
  // its *ingress* wire carried, not the host-link constant — and the
  // seven Wire spans (4 links + 3 switch hops) must exactly tile the
  // end-to-end wire interval.
  TopologySpec spec = treeSpec(4, 2);
  spec.hostLink.bandwidthMBps = 100.0;  // 10 ns/byte
  spec.hostLink.propagation = sim::usec(1);
  spec.hostLink.headerBytes = 8;
  spec.fabricLink = spec.hostLink;
  spec.fabricLink.propagation = sim::usec(2);
  spec.fabricLink.headerBytes = 40;  // trunk frames carry a bigger header
  spec.edgeLatency = sim::usec(2);
  spec.coreLatency = sim::usec(3);
  Fabric f(spec);
  Topology& net = f.net;
  obs::SpanProfiler spans;
  spans.setKeepEvents(true);
  net.setDomainSpanProfilers({&spans});
  sim::SimTime arrival = -1;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&, n](PacketPtr) {
      if (n == 2) arrival = f.eng.now();
    });
  }
  net.send(makeData(0, 2, 192));  // host wire 200 B, trunk wire 232 B
  f.run();

  // Path: up0 (2+1 us), leaf hop (2), trunkUp0 (2.32+2), root (3),
  // trunkDown1 (2.32+2), leaf hop (2), down2 (2+1) = 21.64 us.
  EXPECT_EQ(arrival, sim::nsec(21640));
  const auto& ev = spans.events();
  ASSERT_EQ(ev.size(), 7u);
  const std::uint64_t wantBytes[7] = {200, 200, 232, 232, 232, 232, 200};
  sim::SimTime cursor = 0;
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(ev[i].stage, obs::Stage::Wire) << "span " << i;
    EXPECT_EQ(ev[i].begin, cursor) << "span " << i << " does not tile";
    EXPECT_EQ(ev[i].bytes, wantBytes[i]) << "span " << i;
    cursor = ev[i].end;
  }
  EXPECT_EQ(cursor, arrival);
}

TEST(TreeTopologyTest, TrunkAccessorsExposeSharedLinksForFaults) {
  Fabric f(treeSpec(4, 2));
  Topology& net = f.net;
  ASSERT_EQ(net.trunkCount(), 2u);
  EXPECT_EQ(net.trunkUp(0).name(), "trunkUp0");
  EXPECT_EQ(net.trunkDown(1).name(), "trunkDown1");
  EXPECT_THROW(net.trunkUp(2), sim::SimError);
  EXPECT_THROW(net.trunkDown(2), sim::SimError);

  // A loss window armed on the shared trunk hits cross-leaf traffic but
  // leaves same-leaf traffic untouched.
  net.trunkUp(0).scheduleLossWindow(0, sim::kSecond, 1.0);
  int delivered = 0;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&](PacketPtr) { ++delivered; });
  }
  net.send(makeData(0, 1, 64));  // same leaf: unaffected
  net.send(makeData(0, 2, 64));  // cross leaf: dies on trunkUp0
  f.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.trunkUp(0).framesDropped(), 1u);
  EXPECT_EQ(net.framesDropped(), 1u);
}

TEST(NetworkTest, StarHasNoTrunks) {
  Fabric f(starSpec(2));
  Topology& net = f.net;
  EXPECT_EQ(net.trunkCount(), 0u);
  EXPECT_THROW(net.trunkUp(0), sim::SimError);
  EXPECT_THROW(net.trunkDown(0), sim::SimError);
}

// ---------------------------------------------------------------------------
// k-ary fat-tree
// ---------------------------------------------------------------------------

TopologySpec fatTreeSpec(std::uint32_t k, std::uint32_t nodes) {
  TopologySpec spec;
  spec.kind = TopologyKind::FatTree;
  spec.nodes = nodes;
  spec.fatTreeK = k;
  spec.hostLink.bandwidthMBps = 100.0;
  spec.hostLink.headerBytes = 0;
  spec.fabricLink = spec.hostLink;
  return spec;
}

TEST(FatTreeTest, RejectsBadSpecs) {
  EXPECT_THROW(Fabric(fatTreeSpec(3, 4)), sim::SimError);   // odd k
  EXPECT_THROW(Fabric(fatTreeSpec(4, 17)), sim::SimError);  // > k^3/4
}

TEST(FatTreeTest, DeliversAllPairsAtFullPopulation) {
  Fabric f(fatTreeSpec(4, 16));
  Topology& net = f.net;
  std::vector<int> got(16, 0);
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&got, n](PacketPtr) { ++got[n]; });
  }
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.send(makeData(s, d, 32));
    }
  }
  f.run();
  for (NodeId n = 0; n < 16; ++n) EXPECT_EQ(got[n], 15) << "node " << n;
  EXPECT_EQ(net.framesDropped(), 0u);
  // Every packet was forwarded once by its ingress edge switch.
  EXPECT_EQ(net.hostIngressForwards(), 16u * 15u);
}

TEST(FatTreeTest, EcmpSpreadsDistinctFlowsAcrossCores) {
  Fabric f(fatTreeSpec(4, 16));
  Topology& net = f.net;
  int delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&](PacketPtr) { ++delivered; });
  }
  // 16 distinct flows (by srcVi) between the same cross-pod host pair:
  // the flow hash must not collapse them all onto one core.
  for (std::uint32_t vi = 0; vi < 16; ++vi) {
    PacketPtr p = makeData(0, 12, 64);
    p->srcVi = vi;
    net.send(std::move(p));
  }
  f.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.coreForwards(), 16u);  // every flow crossed a core
  int coresUsed = 0;
  for (const auto& sw : net.switches()) {
    if (sw->tier() == SwitchTier::Core && sw->packetsForwarded() > 0) {
      ++coresUsed;
    }
  }
  EXPECT_GE(coresUsed, 2) << "ECMP hashed every flow onto one core";
}

TEST(FatTreeTest, OneFlowStaysOnOnePathInOrder) {
  Fabric f(fatTreeSpec(4, 16));
  Topology& net = f.net;
  std::vector<std::uint64_t> seqs;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&, n](PacketPtr p) {
      if (n == 12) seqs.push_back(p->msgSeq);
    });
  }
  for (std::uint64_t i = 0; i < 20; ++i) {
    PacketPtr p = makeData(0, 12, 100 + 53 * (i % 4));
    p->msgSeq = i;
    net.send(std::move(p));
  }
  f.run();
  ASSERT_EQ(seqs.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
  // One flow, one path: exactly one core saw traffic.
  int coresUsed = 0;
  for (const auto& sw : net.switches()) {
    if (sw->tier() == SwitchTier::Core && sw->packetsForwarded() > 0) {
      ++coresUsed;
    }
  }
  EXPECT_EQ(coresUsed, 1);
}

TEST(FatTreeTest, FiniteBuffersTailDropUnderIncast) {
  auto run = [](std::uint32_t bufferFrames) {
    TopologySpec spec = fatTreeSpec(4, 16);
    spec.portBufferFrames = bufferFrames;
    Fabric f(spec);
    Topology& net = f.net;
    int delivered = 0;
    for (NodeId n = 0; n < 16; ++n) {
      net.setReceiver(n, [&](PacketPtr) { ++delivered; });
    }
    // 7 hosts blast 4 back-to-back frames each at node 0: the edge
    // switch's single down port cannot drain 28 x 10 us frames.
    for (NodeId s = 1; s < 8; ++s) {
      for (int i = 0; i < 4; ++i) net.send(makeData(s, 0, 1000));
    }
    f.run();
    return std::pair<int, std::uint64_t>(delivered,
                                         net.switchBufferDrops());
  };

  const auto unbounded = run(0);
  EXPECT_EQ(unbounded.first, 28);      // legacy: everything queues
  EXPECT_EQ(unbounded.second, 0u);

  const auto bounded = run(2);
  EXPECT_GT(bounded.second, 0u);       // tail drops happened
  EXPECT_EQ(bounded.first + static_cast<int>(bounded.second), 28);

  // Determinism: the same spec drops the same frames.
  const auto again = run(2);
  EXPECT_EQ(again.first, bounded.first);
  EXPECT_EQ(again.second, bounded.second);
}

TEST(FatTreeTest, BufferOccupancyStatsTrackBackpressure) {
  TopologySpec spec = fatTreeSpec(4, 16);
  spec.portBufferFrames = 3;
  Fabric f(spec);
  Topology& net = f.net;
  int delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&](PacketPtr) { ++delivered; });
  }
  for (NodeId s = 1; s < 4; ++s) {
    for (int i = 0; i < 3; ++i) net.send(makeData(s, 0, 500));
  }
  f.run();
  // 9 frames into one down port with room for 3: some queued behind
  // others (backpressure counter), the watermark never exceeds the cap.
  EXPECT_LE(net.maxQueueDepth(), 3u);
  std::uint64_t queued = 0;
  for (const auto& sw : net.switches()) {
    queued += sw->framesQueued();
  }
  EXPECT_GT(queued, 0u);
}

// ---------------------------------------------------------------------------
// Topology accessor bounds guards: every index-based accessor throws
// SimError — never a raw std::out_of_range — and names the accessor in
// the message.
// ---------------------------------------------------------------------------

void expectGuarded(const std::function<void()>& call, const char* name) {
  try {
    call();
    FAIL() << name << " accepted an out-of-range index";
  } catch (const sim::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << name << " threw without naming itself: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << name << " leaked a non-SimError exception: " << e.what();
  }
}

TEST(TopologyGuardTest, StarAccessorsRejectOutOfRange) {
  Fabric f(starSpec(3));
  Topology& topo = f.net;
  EXPECT_NO_THROW(topo.hostUplink(2));
  EXPECT_NO_THROW(topo.hostDownlink(2));
  expectGuarded([&] { topo.hostUplink(3); }, "Topology::hostUplink");
  expectGuarded([&] { topo.hostDownlink(3); }, "Topology::hostDownlink");
  // A star has no trunks or fabric links at all.
  expectGuarded([&] { topo.trunkUp(0); }, "Topology::trunkUp");
  expectGuarded([&] { topo.trunkDown(0); }, "Topology::trunkDown");
  expectGuarded([&] { topo.fabricLink(0); }, "Topology::fabricLink");
}

TEST(TopologyGuardTest, TreeAndFatTreeAccessorsRejectOutOfRange) {
  Fabric tree(treeSpec(4, 2));
  Topology& ttopo = tree.net;
  EXPECT_NO_THROW(ttopo.trunkUp(1));
  EXPECT_NO_THROW(ttopo.trunkDown(1));
  expectGuarded([&] { ttopo.trunkUp(2); }, "Topology::trunkUp");
  expectGuarded([&] { ttopo.trunkDown(2); }, "Topology::trunkDown");

  Fabric fat(fatTreeSpec(4, 16));
  Topology& ftopo = fat.net;
  ASSERT_GT(ftopo.fabricLinkCount(), 0u);
  EXPECT_NO_THROW(ftopo.fabricLink(ftopo.fabricLinkCount() - 1));
  expectGuarded([&] { ftopo.fabricLink(ftopo.fabricLinkCount()); },
                "Topology::fabricLink");
}

TEST(TopologyGuardTest, SwitchPortAndRouteRejectOutOfRange) {
  Fabric f(fatTreeSpec(4, 16));
  const Switch& edge = *f.net.switches().front();
  ASSERT_GT(edge.portCount(), 0u);
  EXPECT_NO_THROW(edge.port(edge.portCount() - 1));
  expectGuarded([&] { edge.port(edge.portCount()); }, "Switch::port");
  Switch& mut = *f.net.switches().front();
  expectGuarded([&] { mut.setHostRoute(16, 0); }, "Switch::setHostRoute");
  expectGuarded([&] { mut.setHostRoute(0, mut.portCount()); },
                "Switch::setHostRoute");
}

// ---------------------------------------------------------------------------
// PDES domain placement: one domain per switch (stackDomainCount,
// hopLookahead, Topology::hostDomain) or the whole fabric in domain 0
// ---------------------------------------------------------------------------

/// `spec` built on a one-shard ShardedEngine sized by stackDomainCount —
/// the way Cluster builds its sharded fabric.
struct ShardedTopology {
  sim::ShardedEngine pdes;
  Topology topo;
  explicit ShardedTopology(const TopologySpec& spec)
      : pdes({.domains = stackDomainCount(spec), .lookahead = 1, .shards = 1}),
        topo(pdes, spec) {}
};

/// The builder numbers exactly one domain per switch, in switch order.
void expectOneDomainPerSwitch(const Topology& topo, std::uint32_t domains) {
  ASSERT_EQ(topo.switches().size(), domains);
  EXPECT_EQ(topo.domainCount(), domains);
  for (std::uint32_t i = 0; i < domains; ++i) {
    EXPECT_EQ(topo.switches()[i]->domain(), i) << topo.switches()[i]->name();
  }
}

TEST(DomainPartitionTest, StarIsOneDomain) {
  TopologySpec spec;
  spec.kind = TopologyKind::Star;
  spec.nodes = 5;
  EXPECT_EQ(stackDomainCount(spec), 1u);
  EXPECT_EQ(hopLookahead(spec), 0);  // one switch: nothing crosses
  ShardedTopology s(spec);
  expectOneDomainPerSwitch(s.topo, 1);
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(s.topo.hostDomain(n), 0u);
  EXPECT_THROW(s.topo.hostDomain(5), sim::SimError);
}

TEST(DomainPartitionTest, TreeGroupsByLeaf) {
  TopologySpec spec;
  spec.kind = TopologyKind::TwoLevelTree;
  spec.nodes = 7;
  spec.nodesPerSwitch = 3;
  // Leaves {0,1,2}, {3,4,5}, {6}, then the root.
  EXPECT_EQ(stackDomainCount(spec), 4u);
  ShardedTopology s(spec);
  expectOneDomainPerSwitch(s.topo, 4);
  EXPECT_EQ(s.topo.switches()[3]->tier(), SwitchTier::Core);
  EXPECT_EQ(s.topo.hostDomain(2), 0u);
  EXPECT_EQ(s.topo.hostDomain(3), 1u);
  EXPECT_EQ(s.topo.hostDomain(6), 2u);
  // A zero fan-out has no leaf to hang hosts from.
  spec.nodesPerSwitch = 0;
  EXPECT_THROW(stackDomainCount(spec), sim::SimError);
  sim::ShardedEngine one(sim::EngineConfig{});
  EXPECT_THROW(Topology(one, spec), sim::SimError);
}

TEST(DomainPartitionTest, FatTreeGroupsByEdgeSwitch) {
  TopologySpec spec;
  spec.kind = TopologyKind::FatTree;
  spec.nodes = 16;
  spec.fatTreeK = 4;
  // k = 4: 8 edge, then 8 aggregation, then 4 core switches.
  EXPECT_EQ(stackDomainCount(spec), 20u);
  {
    ShardedTopology s(spec);
    expectOneDomainPerSwitch(s.topo, 20);
    EXPECT_EQ(s.topo.switches()[7]->tier(), SwitchTier::Edge);
    EXPECT_EQ(s.topo.switches()[8]->tier(), SwitchTier::Aggregation);
    EXPECT_EQ(s.topo.switches()[16]->tier(), SwitchTier::Core);
    // k/2 = 2 hosts per edge switch.
    EXPECT_EQ(s.topo.hostDomain(0), 0u);
    EXPECT_EQ(s.topo.hostDomain(1), 0u);
    EXPECT_EQ(s.topo.hostDomain(2), 1u);
    EXPECT_EQ(s.topo.hostDomain(15), 7u);
  }
  // A partial population still builds every switch.
  TopologySpec ragged = spec;
  ragged.nodes = 11;
  EXPECT_EQ(stackDomainCount(ragged), 20u);
  {
    ShardedTopology s(ragged);
    expectOneDomainPerSwitch(s.topo, 20);
    EXPECT_EQ(s.topo.hostDomain(10), 5u);
  }
  // The builder checks the rest of the spec, and the engine's size.
  TopologySpec bad = spec;
  bad.fatTreeK = 3;
  EXPECT_THROW(ShardedTopology{bad}, sim::SimError);
  bad = spec;
  bad.nodes = 17;
  EXPECT_THROW(ShardedTopology{bad}, sim::SimError);
  sim::ShardedEngine wrong({.domains = 19, .lookahead = 1, .shards = 1});
  EXPECT_THROW(Topology(wrong, spec), sim::SimError);
}

TEST(DomainPartitionTest, OnlyOneOrOnePerSwitchDomainsBuild) {
  for (const TopologySpec& spec : {treeSpec(7, 3), fatTreeSpec(4, 16)}) {
    const std::uint32_t perSwitch = stackDomainCount(spec);
    for (std::uint32_t domains = 1; domains <= perSwitch + 1; ++domains) {
      sim::ShardedEngine pdes({.domains = domains, .lookahead = 1, .shards = 1});
      if (domains == 1 || domains == perSwitch) {
        EXPECT_NO_THROW(Topology(pdes, spec)) << domains << " domains";
      } else {
        EXPECT_THROW(Topology(pdes, spec), sim::SimError)
            << domains << " domains of " << perSwitch;
      }
    }
  }
}

/// One domain: every switch and link on domain 0, so all-pairs traffic
/// delivers without a single cross-domain send.
void expectOneDomainAllPairs(const TopologySpec& spec) {
  Fabric f(spec);
  EXPECT_EQ(f.net.domainCount(), 1u);
  ASSERT_EQ(f.net.switches().size(), stackDomainCount(spec));
  for (const auto& sw : f.net.switches()) {
    EXPECT_EQ(sw->domain(), 0u) << sw->name();
  }
  std::vector<int> got(spec.nodes, 0);
  for (NodeId n = 0; n < spec.nodes; ++n) {
    EXPECT_EQ(f.net.hostDomain(n), 0u);
    f.net.setReceiver(n, [&got, n](PacketPtr) { ++got[n]; });
  }
  EXPECT_THROW(f.net.hostDomain(spec.nodes), sim::SimError);
  for (NodeId s = 0; s < spec.nodes; ++s) {
    for (NodeId d = 0; d < spec.nodes; ++d) {
      if (s != d) f.net.send(makeData(s, d, 32));
    }
  }
  f.run();
  for (NodeId n = 0; n < spec.nodes; ++n) {
    EXPECT_EQ(got[n], static_cast<int>(spec.nodes) - 1) << "node " << n;
  }
  EXPECT_GT(f.net.coreForwards(), 0u);
  EXPECT_EQ(f.pdes.crossDomainEvents(), 0u);
}

TEST(DomainPartitionTest, OneDomainFatTreeStaysInDomainZero) {
  expectOneDomainAllPairs(fatTreeSpec(4, 16));
}

TEST(DomainPartitionTest, OneDomainRaggedTreeStaysInDomainZero) {
  // Leaves {0,1,2}, {3,4,5}, {6}: a partly filled last leaf.
  expectOneDomainAllPairs(treeSpec(7, 3));
}

TEST(DomainPartitionTest, HopLookaheadIsHeaderSerializationPlusPropagation) {
  // One inter-switch hop of a header-only frame: 40 B at 100 MB/s is
  // 400 ns, plus 250 ns of propagation. Switch latencies play no part.
  for (TopologyKind kind : {TopologyKind::TwoLevelTree, TopologyKind::FatTree}) {
    TopologySpec spec;
    spec.kind = kind;
    spec.nodes = 16;
    spec.nodesPerSwitch = 4;
    spec.fatTreeK = 4;
    spec.fabricLink.bandwidthMBps = 100.0;
    spec.fabricLink.headerBytes = 40;
    spec.fabricLink.propagation = 250;
    spec.coreLatency = 600;
    spec.edgeLatency = 300;
    EXPECT_EQ(hopLookahead(spec), 650);
  }
}

}  // namespace
}  // namespace vibe::fabric
