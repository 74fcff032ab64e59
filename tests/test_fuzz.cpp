// Seeded randomized stress tests: long streams of random-sized messages
// with random descriptor shapes, interleaved control-plane churn, and loss.
// Deterministic per seed (the simulator has no hidden entropy), so any
// failure is replayable. Invariants: no deadlock, exactly-once in-order
// delivery on reliable connections, every delivered payload intact.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "simcore/prng.hpp"
#include "test_seed.hpp"
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

constexpr std::uint64_t kDisc = 77;
constexpr sim::Duration kTimeout = sim::kSecond * 30;

/// Message payload: [u32 length][u8 seed][pattern...], self-verifying.
void fillMessage(Provider& nic, mem::VirtAddr va, std::uint32_t len,
                 std::uint8_t seed) {
  std::vector<std::byte> data(len);
  if (len >= 5) {
    std::memcpy(data.data(), &len, 4);
    data[4] = std::byte(seed);
    for (std::uint32_t i = 5; i < len; ++i) {
      data[i] = std::byte(static_cast<std::uint8_t>(seed ^ (i * 131)));
    }
  }
  nic.memory().write(va, data);
}

bool verifyMessage(Provider& nic, mem::VirtAddr va, std::uint32_t len) {
  if (len < 5) return true;
  std::vector<std::byte> data(len);
  nic.memory().read(va, data);
  std::uint32_t storedLen = 0;
  std::memcpy(&storedLen, data.data(), 4);
  if (storedLen != len) return false;
  const auto seed = static_cast<std::uint8_t>(data[4]);
  for (std::uint32_t i = 5; i < len; ++i) {
    if (data[i] != std::byte(static_cast<std::uint8_t>(seed ^ (i * 131)))) {
      return false;
    }
  }
  return true;
}

struct FuzzParams {
  std::string profile;
  std::uint64_t seed;
  double loss;
  nic::Reliability rel;
  int messages;
};

// gtest_discover_tests bakes the printed parameter into each ctest name.
// gtest's default dump of this struct is its raw bytes, including the
// string's heap pointer, which changes from build to build; print the
// fields instead.
void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << p.profile << " seed " << p.seed << ", loss " << p.loss << ", "
      << nic::toString(p.rel) << ", " << p.messages << " messages";
}

class FuzzStream : public ::testing::TestWithParam<FuzzParams> {};

// Seeds are testRunSeed() + k: pinned by default, shiftable as a family
// via VIBE_TEST_SEED, and the effective seed lands in the test name so a
// failing case is replayable from the gtest output alone.
INSTANTIATE_TEST_SUITE_P(
    Streams, FuzzStream,
    ::testing::Values(
        FuzzParams{"mvia", vibe::testing::testRunSeed() + 1, 0.0,
                   nic::Reliability::ReliableDelivery, 60},
        FuzzParams{"mvia", vibe::testing::testRunSeed() + 2, 0.05,
                   nic::Reliability::ReliableDelivery, 40},
        FuzzParams{"bvia", vibe::testing::testRunSeed() + 3, 0.0,
                   nic::Reliability::ReliableReception, 60},
        FuzzParams{"bvia", vibe::testing::testRunSeed() + 4, 0.08,
                   nic::Reliability::ReliableDelivery, 40},
        FuzzParams{"clan", vibe::testing::testRunSeed() + 5, 0.0,
                   nic::Reliability::ReliableDelivery, 80},
        FuzzParams{"clan", vibe::testing::testRunSeed() + 6, 0.10,
                   nic::Reliability::ReliableReception, 40},
        FuzzParams{"clan", vibe::testing::testRunSeed() + 7, 0.02,
                   nic::Reliability::ReliableDelivery, 60}),
    [](const auto& pi) {
      return pi.param.profile + "_s" + std::to_string(pi.param.seed);
    });

TEST_P(FuzzStream, RandomTrafficDeliversExactlyOnceInOrder) {
  const FuzzParams& fp = GetParam();
  ClusterConfig cc;
  cc.profile = nic::profileByName(fp.profile);
  cc.lossRate = fp.loss;
  cc.seed = fp.seed;
  Cluster cluster(cc);

  // Pre-draw the whole random schedule so both sides agree on it.
  sim::Xoshiro256 rng(fp.seed, "fuzz");
  struct Msg {
    std::uint32_t bytes;
    std::uint8_t seed;
    int segments;
    bool immediate;
    std::uint32_t senderPauseUs;
    std::uint32_t receiverPauseUs;
  };
  std::vector<Msg> schedule;
  const std::uint32_t maxBytes =
      std::min<std::uint32_t>(60000, cc.profile.maxTransferSize);
  for (int i = 0; i < fp.messages; ++i) {
    Msg m;
    // Mix tiny, fragment-boundary, and large sizes.
    switch (rng.below(4)) {
      case 0: m.bytes = static_cast<std::uint32_t>(rng.below(64) + 5); break;
      case 1:
        m.bytes = cc.profile.mtu + static_cast<std::uint32_t>(rng.below(7)) - 3;
        break;
      case 2: m.bytes = static_cast<std::uint32_t>(rng.below(8192) + 5); break;
      default:
        m.bytes = static_cast<std::uint32_t>(rng.below(maxBytes - 5) + 5);
    }
    m.seed = static_cast<std::uint8_t>(rng.below(256));
    m.segments = static_cast<int>(rng.below(4)) + 1;
    m.immediate = rng.chance(0.2);
    m.senderPauseUs = static_cast<std::uint32_t>(rng.below(120));
    m.receiverPauseUs = static_cast<std::uint32_t>(rng.below(120));
    schedule.push_back(m);
  }

  int delivered = 0;
  auto makeDesc = [&](mem::VirtAddr va, mem::MemHandle h, const Msg& m) {
    VipDescriptor d;
    std::uint32_t left = m.bytes;
    std::uint32_t off = 0;
    const auto segs = static_cast<std::uint32_t>(m.segments);
    for (std::uint32_t sIdx = 0; sIdx < segs; ++sIdx) {
      const std::uint32_t chunk =
          sIdx + 1 == segs ? left : std::max<std::uint32_t>(1, m.bytes / segs);
      if (chunk == 0 || left == 0) break;
      const std::uint32_t take = std::min(chunk, left);
      d.ds.push_back({va + off, h, take});
      off += take;
      left -= take;
    }
    d.cs.segCount = static_cast<std::uint16_t>(d.ds.size());
    if (m.immediate) {
      d.cs.control |= vipl::VIP_CONTROL_IMMEDIATE;
      d.cs.immediateData = m.seed;
    }
    return d;
  };

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr buf = nic.memory().alloc(maxBytes, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, maxBytes, {ptag, false, false},
                                   h),
              VipResult::VIP_SUCCESS);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = fp.rel;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (const Msg& m : schedule) {
      env.self.advance(sim::usec(m.senderPauseUs), sim::CpuUse::Idle);
      fillMessage(nic, buf, m.bytes, m.seed);
      VipDescriptor d = makeDesc(buf, h, m);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    // One arena slice per scheduled message, all descriptors preposted —
    // reliable VIA requires receives to be there before the data, and the
    // sender's pacing gives no usable repost window.
    const std::uint64_t arenaBytes =
        static_cast<std::uint64_t>(maxBytes) * schedule.size();
    const mem::VirtAddr arena = nic.memory().alloc(arenaBytes, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, arena, arenaBytes,
                                   {ptag, false, false}, h),
              VipResult::VIP_SUCCESS);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = fp.rel;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> descs;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      descs.push_back(std::make_unique<VipDescriptor>(
          makeDesc(arena + i * maxBytes, h, schedule[i])));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, descs.back().get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);

    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Msg& m = schedule[i];
      env.self.advance(sim::usec(m.receiverPauseUs), sim::CpuUse::Idle);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS)
          << "message " << i;
      EXPECT_EQ(done, descs[i].get()) << "completion out of order at " << i;
      EXPECT_EQ(done->cs.length, m.bytes) << "message " << i;
      EXPECT_TRUE(verifyMessage(nic, arena + i * maxBytes, m.bytes))
          << "message " << i;
      if (m.immediate) {
        EXPECT_TRUE(done->hasImmediate());
        EXPECT_EQ(done->cs.immediateData, m.seed);
      }
      ++delivered;
    }
    // Exactly once: nothing further may arrive.
    VipDescriptor* extra = nullptr;
    EXPECT_EQ(nic.recvDone(vi, extra), VipResult::VIP_NOT_DONE);
  };

  cluster.run({sender, receiver});
  EXPECT_EQ(delivered, fp.messages);
}

TEST(FuzzControlPlane, ViChurnWithTrafficSurvives) {
  // Random create/connect/transfer/disconnect/destroy cycles.
  const std::uint64_t seed = vibe::testing::testRunSeed() + 99;
  ClusterConfig cc;
  cc.profile = nic::clanProfile();
  cc.seed = seed;
  Cluster cluster(cc);
  sim::Xoshiro256 rng(seed, "churn");
  constexpr int kRounds = 25;
  // Pre-draw per-round message sizes.
  std::vector<std::uint32_t> sizes;
  for (int i = 0; i < kRounds; ++i) {
    sizes.push_back(static_cast<std::uint32_t>(rng.below(20000) + 8));
  }

  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr buf = nic.memory().alloc(32768, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 32768, {ptag, false, false}, h),
              VipResult::VIP_SUCCESS);
    for (int round = 0; round < kRounds; ++round) {
      vipl::VipViAttributes va;
      va.ptag = ptag;
      va.reliabilityLevel = nic::Reliability::ReliableDelivery;
      Vi* vi = nullptr;
      ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
                VipResult::VIP_SUCCESS);
      ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
                VipResult::VIP_SUCCESS);
      fillMessage(nic, buf, sizes[round],
                  static_cast<std::uint8_t>(round));
      VipDescriptor d = VipDescriptor::send(buf, h, sizes[round]);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(vipl::VipDisconnect(nic, vi), VipResult::VIP_SUCCESS);
      ASSERT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_SUCCESS);
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr buf = nic.memory().alloc(32768, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 32768, {ptag, false, false}, h),
              VipResult::VIP_SUCCESS);
    for (int round = 0; round < kRounds; ++round) {
      vipl::VipViAttributes va;
      va.ptag = ptag;
      va.reliabilityLevel = nic::Reliability::ReliableDelivery;
      Vi* vi = nullptr;
      ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
                VipResult::VIP_SUCCESS);
      VipDescriptor d = VipDescriptor::recv(buf, h, 32768);
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), VipResult::VIP_SUCCESS);
      PendingConn conn;
      ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
                VipResult::VIP_SUCCESS);
      ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
                VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done->cs.length, sizes[round]);
      EXPECT_TRUE(verifyMessage(nic, buf, sizes[round]));
      // Wait out the client's disconnect, then recycle.
      while (vi->state() == vipl::ViState::Connected) {
        env.self.advance(sim::usec(20), sim::CpuUse::Idle);
      }
      ASSERT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_SUCCESS);
    }
  };
  cluster.run({client, server});
}

}  // namespace
}  // namespace vibe
