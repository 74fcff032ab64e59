// Reliability-engine tests under injected frame loss: go-back-N
// retransmission, exactly-once in-order delivery for Reliable Delivery,
// placement-acknowledged completion for Reliable Reception, and the
// documented drop semantics of Unreliable connections.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using vipl::PendingConn;
using vipl::Provider;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;

constexpr sim::Duration kTimeout = sim::kSecond * 10;
constexpr std::uint64_t kDisc = 5;

struct Buf {
  mem::VirtAddr va = 0;
  mem::MemHandle handle = 0;
};

Buf makeBuf(Provider& nic, mem::PtagId ptag, std::uint64_t len) {
  Buf b;
  b.va = nic.memory().alloc(len, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag;
  EXPECT_EQ(vipl::VipRegisterMem(nic, b.va, len, ma, b.handle),
            VipResult::VIP_SUCCESS);
  return b;
}

void fillSeeded(Provider& nic, mem::VirtAddr va, std::size_t len,
                std::uint8_t seed) {
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(seed ^ (i * 31)));
  }
  nic.memory().write(va, data);
}

bool checkSeeded(Provider& nic, mem::VirtAddr va, std::size_t len,
                 std::uint8_t seed) {
  std::vector<std::byte> data(len);
  nic.memory().read(va, data);
  for (std::size_t i = 0; i < len; ++i) {
    if (data[i] != std::byte(static_cast<std::uint8_t>(seed ^ (i * 31)))) {
      return false;
    }
  }
  return true;
}

class ReliabilityLossTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndLoss, ReliabilityLossTest,
    ::testing::Combine(::testing::Values("mvia", "bvia", "clan"),
                       ::testing::Values(0.0, 0.02, 0.10)),
    [](const auto& paramInfo) {
      return std::get<0>(paramInfo.param) + "_loss" +
             std::to_string(
                 static_cast<int>(std::get<1>(paramInfo.param) * 100));
    });

TEST_P(ReliabilityLossTest, ReliableDeliveryIsExactlyOnceInOrder) {
  const auto [profile, loss] = GetParam();
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(profile);
  cfg.lossRate = loss;
  cfg.seed = 1234;
  Cluster cluster(cfg);

  constexpr int kMessages = 30;
  constexpr std::size_t kBytes = 5000;  // multi-fragment on every profile
  int completed = 0;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    for (int i = 0; i < kMessages; ++i) {
      fillSeeded(nic, buf.va + i * kBytes, kBytes,
                 static_cast<std::uint8_t>(i));
    }
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> sends;
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(std::make_unique<VipDescriptor>(VipDescriptor::send(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostSend(nic, vi, sends[i].get()),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done, sends[i].get()) << "send completions out of order";
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, recvs[i].get()) << "recv completions out of order";
      EXPECT_EQ(done->cs.length, kBytes);
      EXPECT_TRUE(checkSeeded(nic, buf.va + i * kBytes, kBytes,
                              static_cast<std::uint8_t>(i)))
          << "payload corrupted for message " << i;
      ++completed;
    }
    // Exactly once: no extra completion may show up afterwards.
    VipDescriptor* extra = nullptr;
    EXPECT_EQ(nic.recvDone(vi, extra), VipResult::VIP_NOT_DONE);
  };

  cluster.run({sender, receiver});
  EXPECT_EQ(completed, kMessages);
  if (loss >= 0.10) {
    // At 2% loss a short run can get lucky; at 10% over ~100 frames the
    // probability of zero drops is negligible.
    const auto& stats = cluster.node(0).device().stats();
    EXPECT_GT(stats.retransmits, 0u) << "loss but no retransmissions?";
  }
}

TEST_P(ReliabilityLossTest, ReliableReceptionCompletesAllSends) {
  const auto [profile, loss] = GetParam();
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(profile);
  cfg.lossRate = loss;
  cfg.seed = 77;
  Cluster cluster(cfg);

  constexpr int kMessages = 12;
  constexpr std::size_t kBytes = 3000;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableReception;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor d =
          VipDescriptor::send(buf.va + i * kBytes, buf.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      // RR: completion implies the data reached target memory.
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableReception;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  cluster.run({sender, receiver});
}

TEST(ReliabilityTest, UnreliableLossDropsButNeverCorrupts) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.lossRate = 0.15;
  cfg.seed = 99;
  Cluster cluster(cfg);

  constexpr int kMessages = 40;
  constexpr std::size_t kBytes = 4000;
  int ok = 0;
  int errored = 0;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    for (int i = 0; i < kMessages; ++i) {
      fillSeeded(nic, buf.va + i * kBytes, kBytes,
                 static_cast<std::uint8_t>(i));
    }
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::Unreliable;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor d =
          VipDescriptor::send(buf.va + i * kBytes, buf.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      // UD sends complete locally regardless of delivery.
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      // Pace the stream so each message is an independent trial.
      env.self.advance(sim::usec(500), sim::CpuUse::Idle);
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::Unreliable;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    // Give the stream time to finish, then drain whatever completed.
    env.self.advance(sim::msec(50), sim::CpuUse::Idle);
    for (;;) {
      VipDescriptor* done = nullptr;
      const VipResult r = nic.recvDone(vi, done);
      if (r == VipResult::VIP_NOT_DONE) break;
      if (r == VipResult::VIP_SUCCESS) {
        // With drops, descriptor slots receive whichever message arrived
        // next, so identify the message by its first byte (== seed) and
        // verify the whole payload is that message, intact.
        for (int i = 0; i < kMessages; ++i) {
          if (done == recvs[i].get()) {
            std::byte first{};
            nic.memory().read(buf.va + i * kBytes, {&first, 1});
            EXPECT_TRUE(checkSeeded(nic, buf.va + i * kBytes, kBytes,
                                    static_cast<std::uint8_t>(first)));
          }
        }
        ++ok;
      } else {
        ++errored;  // PartialMessage from mid-message loss
      }
    }
  };

  cluster.run({sender, receiver});
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, kMessages);  // 15% frame loss must kill some messages
  EXPECT_LE(ok + errored, kMessages);
  const auto& rxStats = cluster.node(1).device().stats();
  EXPECT_EQ(rxStats.retransmits, 0u);
  EXPECT_EQ(cluster.node(0).device().stats().retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Loss bursts: a window of 100% frame loss (link down) that ends before the
// retry budget runs out. Reliable levels must ride it out and resume
// exactly-once in-order delivery; Unreliable must lose the burst's messages
// without ever retransmitting.
// ---------------------------------------------------------------------------

/// Shared driver: stream kMessages through a 100%-loss window on the
/// sender's uplink, then assert complete in-order delivery and that the
/// recovery is visible both in NicStats and in the Reliability trace.
void runLossBurstRecovery(nic::Reliability rel) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 321;
  sim::Tracer tracer;
  tracer.enable(sim::TraceCategory::Reliability);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  // Connection setup takes ~2.7ms of virtual time (the CM dialog is
  // loss-exempt), so a [0, 6ms) window blacks out the first ~3ms of data.
  // The ~3ms outage costs 2-3 RTO strikes, well under the budget of 16.
  cluster.topology().hostUplink(0).scheduleLossWindow(0, sim::msec(6), 1.0);

  constexpr int kMessages = 40;
  constexpr std::size_t kBytes = 5000;
  int completed = 0;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    for (int i = 0; i < kMessages; ++i) {
      fillSeeded(nic, buf.va + i * kBytes, kBytes,
                 static_cast<std::uint8_t>(i));
    }
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = rel;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> sends;
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(std::make_unique<VipDescriptor>(VipDescriptor::send(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostSend(nic, vi, sends[i].get()),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done, sends[i].get()) << "send completions out of order";
    }
    EXPECT_EQ(vi->state(), vipl::ViState::Connected)
        << "burst shorter than the retry budget must not break the VI";
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = rel;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, recvs[i].get()) << "delivery out of order after burst";
      EXPECT_TRUE(checkSeeded(nic, buf.va + i * kBytes, kBytes,
                              static_cast<std::uint8_t>(i)));
      ++completed;
    }
    VipDescriptor* extra = nullptr;
    EXPECT_EQ(nic.recvDone(vi, extra), VipResult::VIP_NOT_DONE)
        << "retransmissions must not duplicate deliveries";
  };

  cluster.run({sender, receiver});
  EXPECT_EQ(completed, kMessages);

  // The outage must actually have exercised the retransmission machinery,
  // and the recovery must be visible in the Reliability trace stream.
  EXPECT_GT(cluster.node(0).device().stats().retransmits, 0u);
  int rtoRecords = 0;
  for (const auto& rec : tracer.snapshot()) {
    if (rec.category == sim::TraceCategory::Reliability &&
        rec.message.compare(0, 4, "RTO ") == 0) {
      ++rtoRecords;
    }
  }
  EXPECT_GT(rtoRecords, 0) << "no RTO retransmissions traced";
}

TEST(ReliabilityTest, LossBurstRecoveryReliableDelivery) {
  runLossBurstRecovery(nic::Reliability::ReliableDelivery);
}

TEST(ReliabilityTest, LossBurstRecoveryReliableReception) {
  runLossBurstRecovery(nic::Reliability::ReliableReception);
}

TEST(ReliabilityTest, LossBurstOnUnreliableDropsWithoutRetransmission) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 321;
  Cluster cluster(cfg);

  // Data flows from ~2.7ms (post-connect); the sender paces one message
  // per 100us, so a [3ms, 5ms) outage swallows a middle chunk.
  cluster.topology().hostUplink(0).scheduleLossWindow(sim::msec(3), sim::msec(5),
                                                 1.0);

  constexpr int kMessages = 40;
  constexpr std::size_t kBytes = 512;  // single-fragment on every profile
  int delivered = 0;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kBytes);
    fillSeeded(nic, buf.va, kBytes, 0x5A);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::Unreliable;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      env.self.advance(sim::usec(100), sim::CpuUse::Idle);
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::Unreliable;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
          buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (;;) {
      VipDescriptor* done = nullptr;
      const VipResult r = nic.recvWait(vi, sim::msec(20), done);
      if (r != VipResult::VIP_SUCCESS) break;
      ++delivered;
    }
  };

  cluster.run({sender, receiver});
  // The burst's messages are gone for good; everything else arrived, and
  // nothing was ever retransmitted.
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, kMessages);
  EXPECT_EQ(cluster.node(0).device().stats().retransmits, 0u);
  EXPECT_GT(cluster.topology().hostUplink(0).framesDropped(), 0u);
}

TEST(ReliabilityTest, ReliableMissingDescriptorBreaksConnection) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  Cluster cluster(cfg);
  bool senderSawError = false;
  bool receiverSawError = false;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    nic.setErrorCallback(
        [&](Vi*, nic::WorkStatus) { senderSawError = true; });
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, 16);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    EXPECT_EQ(nic.sendWait(vi, kTimeout, done),
              VipResult::VIP_DESCRIPTOR_ERROR);
    EXPECT_EQ(d.cs.status.error, nic::WorkStatus::NoDescriptor);
    EXPECT_EQ(vi->state(), vipl::ViState::Error);
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    nic.setErrorCallback(
        [&](Vi*, nic::WorkStatus why) {
          receiverSawError = true;
          EXPECT_EQ(why, nic::WorkStatus::NoDescriptor);
        });
    auto ptag = vipl::VipCreatePtag(nic);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    // Deliberately never post a receive descriptor.
    env.self.advance(sim::msec(5), sim::CpuUse::Idle);
    EXPECT_EQ(vi->state(), vipl::ViState::Error);
  };

  cluster.run({sender, receiver});
  EXPECT_TRUE(senderSawError);
  EXPECT_TRUE(receiverSawError);
}

TEST(ReliabilityTest, LossySendRecvUnderRdmaWrite) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.lossRate = 0.05;
  cfg.seed = 3;
  Cluster cluster(cfg);
  mem::VirtAddr target = 0;
  mem::MemHandle targetH = 0;
  constexpr std::size_t kBytes = 20000;  // several fragments
  bool verified = false;

  auto writer = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf src = makeBuf(nic, ptag, kBytes);
    fillSeeded(nic, src.va, kBytes, 0x5C);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableReception;
    va.enableRdmaWrite = true;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    VipDescriptor d = VipDescriptor::rdmaWrite(src.va, src.handle, kBytes,
                                               target, targetH);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    // RR: completion implies remote placement even under loss.
    ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
  };

  auto targetNode = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf dst;
    dst.va = nic.memory().alloc(kBytes, mem::kPageSize);
    vipl::VipMemAttributes ma;
    ma.ptag = ptag;
    ma.enableRdmaWrite = true;
    ASSERT_EQ(vipl::VipRegisterMem(nic, dst.va, kBytes, ma, dst.handle),
              VipResult::VIP_SUCCESS);
    target = dst.va;
    targetH = dst.handle;
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableReception;
    va.enableRdmaWrite = true;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    // Wait out retransmissions, then verify placement.
    env.self.advance(sim::msec(100), sim::CpuUse::Idle);
    EXPECT_TRUE(checkSeeded(nic, dst.va, kBytes, 0x5C));
    verified = true;
  };

  cluster.run({writer, targetNode});
  EXPECT_TRUE(verified);
}

}  // namespace
}  // namespace vibe
