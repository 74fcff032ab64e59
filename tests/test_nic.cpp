// Direct unit tests of the NicDevice datapath, below the VIPL layer:
// endpoint lifecycle, fragmentation arithmetic via stats, pipeline timing,
// retransmission behaviour, and profile feature wiring.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/topology.hpp"
#include "mem/host_memory.hpp"
#include "mem/memory_registry.hpp"
#include "nic/nic_device.hpp"
#include "nic/profiles.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"

namespace vibe::nic {
namespace {

/// Minimal two-node rig driving NicDevice directly, on a one-domain
/// engine: run() drives it, `engine` is its one domain.
struct Rig {
  sim::ShardedEngine pdes{sim::EngineConfig{}};
  sim::Engine& engine = pdes.domainEngine(0);
  fabric::Topology net;
  mem::HostMemory mem0, mem1;
  mem::MemoryRegistry reg0, reg1;
  NicDevice nic0, nic1;
  std::vector<std::pair<ViEndpointId, Completion>> completions0, completions1;

  explicit Rig(const NicProfile& profile)
      : net(pdes,
            [&profile] {
              fabric::TopologySpec spec;
              spec.nodes = 2;
              spec.hostLink.bandwidthMBps = profile.linkMBps;
              spec.hostLink.propagation = profile.linkPropagation;
              spec.hostLink.headerBytes = profile.linkHeaderBytes;
              spec.edgeLatency = profile.switchLatency;
              return spec;
            }()),
        nic0(engine, net, 0, profile, reg0, mem0),
        nic1(engine, net, 1, profile, reg1, mem1) {
    NicDevice::Handlers h0;
    h0.completion = [this](ViEndpointId ep, Completion&& c) {
      completions0.emplace_back(ep, std::move(c));
    };
    nic0.setHandlers(std::move(h0));
    NicDevice::Handlers h1;
    h1.completion = [this](ViEndpointId ep, Completion&& c) {
      completions1.emplace_back(ep, std::move(c));
    };
    nic1.setHandlers(std::move(h1));
  }

  /// Creates a connected endpoint pair with registered buffers.
  struct Pair {
    ViEndpointId e0, e1;
    mem::PtagId p0, p1;
    mem::VirtAddr buf0, buf1;
    mem::MemHandle h0, h1;
  };
  Pair connect(Reliability rel, std::uint64_t bufBytes = 65536) {
    Pair pr;
    pr.p0 = reg0.createPtag();
    pr.p1 = reg1.createPtag();
    pr.e0 = nic0.createEndpoint(pr.p0);
    pr.e1 = nic1.createEndpoint(pr.p1);
    nic0.configureConnection(pr.e0, 1, pr.e1, rel, 1u << 20);
    nic1.configureConnection(pr.e1, 0, pr.e0, rel, 1u << 20);
    pr.buf0 = mem0.alloc(bufBytes, mem::kPageSize);
    pr.buf1 = mem1.alloc(bufBytes, mem::kPageSize);
    EXPECT_EQ(reg0.registerMem(pr.buf0, bufBytes, {pr.p0, true, true}, pr.h0),
              mem::MemStatus::Ok);
    EXPECT_EQ(reg1.registerMem(pr.buf1, bufBytes, {pr.p1, true, true}, pr.h1),
              mem::MemStatus::Ok);
    return pr;
  }
};

WorkRequest sendWr(mem::VirtAddr addr, mem::MemHandle handle,
                   std::uint32_t bytes, std::uint64_t cookie) {
  WorkRequest wr;
  wr.segments.push_back({addr, handle, bytes});
  wr.cookie = cookie;
  return wr;
}

TEST(NicDeviceTest, FragmentCountMatchesMtuArithmetic) {
  NicProfile p = clanProfile();  // mtu 2048
  Rig rig(p);
  auto pr = rig.connect(Reliability::Unreliable);
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 10000, 1));
  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 10000, 2));
  rig.pdes.run();
  // ceil(10000 / 2048) = 5 data fragments.
  EXPECT_EQ(rig.nic0.stats().fragsTx, 5u);
  EXPECT_EQ(rig.nic1.stats().fragsRx, 5u);
  EXPECT_EQ(rig.nic0.stats().bytesTx, 10000u);
  ASSERT_EQ(rig.completions1.size(), 1u);
  EXPECT_EQ(rig.completions1[0].second.bytes, 10000u);
}

TEST(NicDeviceTest, ZeroByteMessageIsOneFragment) {
  Rig rig(clanProfile());
  auto pr = rig.connect(Reliability::Unreliable);
  WorkRequest recv;
  recv.cookie = 1;
  rig.nic1.postRecv(pr.e1, std::move(recv));
  WorkRequest send;
  send.cookie = 2;
  send.hasImmediate = true;
  send.immediate = 0xABCD;
  rig.nic0.postSend(pr.e0, std::move(send));
  rig.pdes.run();
  EXPECT_EQ(rig.nic0.stats().fragsTx, 1u);
  ASSERT_EQ(rig.completions1.size(), 1u);
  EXPECT_TRUE(rig.completions1[0].second.hasImmediate);
  EXPECT_EQ(rig.completions1[0].second.immediate, 0xABCDu);
  EXPECT_EQ(rig.completions1[0].second.bytes, 0u);
}

TEST(NicDeviceTest, UnreliableSendCompletesWithoutReceiver) {
  // No posted receive: the message is dropped, yet the UD send completes.
  Rig rig(clanProfile());
  auto pr = rig.connect(Reliability::Unreliable);
  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 512, 7));
  rig.pdes.run();
  ASSERT_EQ(rig.completions0.size(), 1u);
  EXPECT_EQ(rig.completions0[0].second.status, WorkStatus::Ok);
  EXPECT_EQ(rig.completions1.size(), 0u);
  EXPECT_EQ(rig.nic1.stats().rxDroppedNoDescriptor, 1u);
}

TEST(NicDeviceTest, ReliableDeliveryCompletionWaitsForAck) {
  NicProfile p = clanProfile();
  Rig rig(p);
  auto pr = rig.connect(Reliability::ReliableDelivery);
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 4096, 1));

  sim::SimTime sendDone = 0;
  sim::SimTime recvDone = 0;
  NicDevice::Handlers h0;
  h0.completion = [&](ViEndpointId, Completion&&) {
    sendDone = rig.engine.now();
  };
  rig.nic0.setHandlers(std::move(h0));
  NicDevice::Handlers h1;
  h1.completion = [&](ViEndpointId, Completion&&) {
    recvDone = rig.engine.now();
  };
  rig.nic1.setHandlers(std::move(h1));

  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 4096, 2));
  rig.pdes.run();
  ASSERT_GT(sendDone, 0);
  ASSERT_GT(recvDone, 0);
  // The RD send completion needs the remote receipt-ack: it can only land
  // after one full one-way trip plus the ack's return.
  EXPECT_GT(sendDone, recvDone - sim::usec(50));
  EXPECT_GT(rig.nic0.stats().acksRx, 0u);
}

TEST(NicDeviceTest, PostToUnconnectedEndpointFailsCleanly) {
  Rig rig(clanProfile());
  const auto ptag = rig.reg0.createPtag();
  const ViEndpointId e = rig.nic0.createEndpoint(ptag);
  rig.nic0.postSend(e, sendWr(0x1000, 1, 16, 5));
  rig.pdes.run();
  ASSERT_EQ(rig.completions0.size(), 1u);
  EXPECT_EQ(rig.completions0[0].second.status, WorkStatus::Aborted);
}

TEST(NicDeviceTest, DestroyedEndpointDropsArrivals) {
  Rig rig(clanProfile());
  auto pr = rig.connect(Reliability::Unreliable);
  rig.nic1.destroyEndpoint(pr.e1);
  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 128, 1));
  rig.pdes.run();
  EXPECT_EQ(rig.nic1.stats().rxDroppedBadEndpoint, 1u);
  EXPECT_EQ(rig.nic1.activeEndpoints(), 0u);
}

TEST(NicDeviceTest, TeardownFlushesPostedWork) {
  Rig rig(clanProfile());
  auto pr = rig.connect(Reliability::ReliableDelivery);
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 128, 11));
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 128, 12));
  rig.nic1.teardownConnection(pr.e1);
  rig.pdes.run();
  ASSERT_EQ(rig.completions1.size(), 2u);
  for (const auto& [ep, c] : rig.completions1) {
    EXPECT_EQ(c.status, WorkStatus::Aborted);
    EXPECT_FALSE(c.isSend);
  }
}

TEST(NicDeviceTest, RetransmissionRecoversFromBurstLoss) {
  NicProfile p = clanProfile();
  Rig* rigPtr = nullptr;
  // Build a rig, then crank the loss on node0's uplink after connect.
  Rig rig(p);
  rigPtr = &rig;
  (void)rigPtr;
  auto pr = rig.connect(Reliability::ReliableDelivery);
  rig.net.hostUplink(0).setLossRate(0.4);
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 8192, 1));
  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 8192, 2));
  rig.pdes.run();
  ASSERT_EQ(rig.completions1.size(), 1u);
  EXPECT_EQ(rig.completions1[0].second.status, WorkStatus::Ok);
  ASSERT_EQ(rig.completions0.size(), 1u);
  EXPECT_EQ(rig.completions0[0].second.status, WorkStatus::Ok);
}

TEST(NicDeviceTest, FirmwarePollProfileScalesDiscoveryWithEndpoints) {
  // Measure one message's latency with 1 vs 17 active endpoints on the
  // firmware-polling profile: the delta must be ~16 * perVi on each side.
  auto oneWay = [](int extraEndpoints) {
    NicProfile p = bviaProfile();
    Rig rig(p);
    auto pr = rig.connect(Reliability::Unreliable);
    for (int i = 0; i < extraEndpoints; ++i) {
      rig.nic0.createEndpoint(rig.reg0.createPtag());
      rig.nic1.createEndpoint(rig.reg1.createPtag());
    }
    sim::SimTime done = 0;
    NicDevice::Handlers h1;
    h1.completion = [&](ViEndpointId, Completion&&) {
      done = rig.engine.now();
    };
    rig.nic1.setHandlers(std::move(h1));
    rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 64, 1));
    rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 64, 2));
    rig.pdes.run();
    return done;
  };
  const sim::SimTime base = oneWay(0);
  const sim::SimTime many = oneWay(16);
  const NicProfile p = bviaProfile();
  // Only the sender-side firmware scan grows (one doorbell discovery).
  EXPECT_NEAR(sim::toUsec(many - base),
              sim::toUsec(p.firmwarePollPerVi) * 16, 1.0);
}

TEST(NicDeviceTest, MviaSendChargesNothingWithoutProcessContext) {
  // HostInline sends from event context route their kernel time through
  // the hostKernel resource instead of crashing on a missing process.
  Rig rig(mviaProfile());
  auto pr = rig.connect(Reliability::Unreliable);
  rig.nic1.postRecv(pr.e1, sendWr(pr.buf1, pr.h1, 3000, 1));
  rig.nic0.postSend(pr.e0, sendWr(pr.buf0, pr.h0, 3000, 2));
  rig.pdes.run();
  ASSERT_EQ(rig.completions1.size(), 1u);
  EXPECT_EQ(rig.completions1[0].second.status, WorkStatus::Ok);
  EXPECT_GT(rig.completions1[0].second.hostCpuCost, 0);  // kernel RX time
}

TEST(NicDeviceTest, RdmaWriteValidationFailureBreaksConnection) {
  Rig rig(clanProfile());
  auto pr = rig.connect(Reliability::ReliableDelivery);
  bool errorSeen = false;
  NicDevice::Handlers h1;
  h1.completion = [](ViEndpointId, Completion&&) {};
  h1.connectionError = [&](ViEndpointId, WorkStatus why) {
    errorSeen = true;
    EXPECT_EQ(why, WorkStatus::ProtectionError);
  };
  rig.nic1.setHandlers(std::move(h1));

  // Register the target WITHOUT RDMA-write permission.
  const mem::VirtAddr target = rig.mem1.alloc(4096, mem::kPageSize);
  mem::MemHandle th = 0;
  ASSERT_EQ(rig.reg1.registerMem(target, 4096, {pr.p1, false, false}, th),
            mem::MemStatus::Ok);
  WorkRequest wr = sendWr(pr.buf0, pr.h0, 512, 9);
  wr.op = WorkOp::RdmaWrite;
  wr.remoteAddr = target;
  wr.remoteHandle = th;
  rig.nic0.postSend(pr.e0, std::move(wr));
  rig.pdes.run();
  EXPECT_TRUE(errorSeen);
  // The sender learns through the error ack.
  ASSERT_EQ(rig.completions0.size(), 1u);
  EXPECT_NE(rig.completions0[0].second.status, WorkStatus::Ok);
}

}  // namespace
}  // namespace vibe::nic
