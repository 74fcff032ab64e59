// Determinism tests: the simulator is a pure function of its seed. The
// same ClusterConfig::seed must reproduce an identical event history —
// verified byte-for-byte via the tracer's running FNV-1a digest — across
// all NIC profiles, and different seeds must actually change the history
// (the digest is sensitive enough to see a single reordered drop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "simcore/pdes.hpp"
#include "simcore/trace.hpp"
#include "test_env.hpp"
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

struct RunOutcome {
  std::uint64_t digest = 0;
  sim::SimTime endTime = 0;
  std::uint64_t retransmits = 0;
};

/// A lossy ping-pong whose retransmission pattern depends on every PRNG
/// draw: any divergence between two runs of the same seed shows up in the
/// digest, and different seeds drop different frames.
/// `simShards` 0 = the whole stack in one domain on one shard; >= 1 one
/// domain per switch, each node on its own leaf-switch domain of a
/// two-level tree so every frame crosses a domain boundary.
RunOutcome lossyPingPong(const std::string& profile, std::uint64_t seed,
                         std::uint32_t simShards = 0) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(profile);
  cfg.seed = seed;
  cfg.lossRate = 0.08;
  if (simShards > 0) {
    cfg.nodesPerSwitch = 1;  // leaf per node: 3 PDES domains
    cfg.simShards = simShards;
  }
  sim::Tracer tracer;
  tracer.enableAll();
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  constexpr int kRounds = 40;
  constexpr std::size_t kBytes = 2048;

  auto node0 = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRounds * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kRounds; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(rx.va + i * kBytes, rx.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (int i = 0; i < kRounds; ++i) {
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  auto node1 = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRounds * kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kRounds; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(rx.va + i * kBytes, rx.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < kRounds; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  cluster.run({node0, node1});

  RunOutcome out;
  out.digest = tracer.digest();
  out.endTime = cluster.now();
  out.retransmits = cluster.node(0).device().stats().retransmits +
                    cluster.node(1).device().stats().retransmits;
  return out;
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Profiles, DeterminismTest,
                         ::testing::Values("mvia", "bvia", "clan"),
                         [](const auto& pi) { return pi.param; });

TEST_P(DeterminismTest, SameSeedReplaysByteIdentically) {
  const std::string profile = GetParam();
  const RunOutcome a = lossyPingPong(profile, 2024);
  const RunOutcome b = lossyPingPong(profile, 2024);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.retransmits, b.retransmits);
  // 8% loss over ~160 data frames: the run must actually have exercised
  // the retransmission machinery for the digest check to mean anything.
  EXPECT_GT(a.retransmits, 0u);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const std::string profile = GetParam();
  const RunOutcome a = lossyPingPong(profile, 2024);
  const RunOutcome b = lossyPingPong(profile, 2025);
  EXPECT_NE(a.digest, b.digest);
}

// A seed sweep run through the parallel harness composes the same
// sweep-level digest (per-shard digests folded in index order) at any
// worker count — the property every harness-ported bench relies on.
TEST_P(DeterminismTest, SeedSweepComposesDigestIndependentOfJobs) {
  const std::string profile = GetParam();
  auto sweepDigest = [&](unsigned jobs) {
    harness::SweepOptions opts;
    opts.jobs = jobs;
    const auto outs = harness::runSweep(
        8,
        [&](harness::PointEnv& env) {
          return lossyPingPong(profile, 3000 + env.index * 17);
        },
        opts);
    std::uint64_t acc = sim::Tracer::kDigestSeed;
    for (const RunOutcome& o : outs) {
      acc = sim::Tracer::combineDigest(acc, o.digest);
    }
    return acc;
  };
  const std::uint64_t serial = sweepDigest(1);
  EXPECT_EQ(serial, sweepDigest(2));
  EXPECT_EQ(serial, sweepDigest(harness::jobCount()));
}

// --- VIBE_SIM_SHARDS axis -------------------------------------------------
//
// The two parallelism dimensions must not interact: VIBE_JOBS fans out
// independent sweep points, VIBE_SIM_SHARDS threads a single simulation.
// Digests must be byte-identical across the full {shards} x {jobs}
// matrix — for the serial VIA stack (which ignores shards entirely) and
// for the stack hosted on the sharded engine (whose digest is
// shard-invariant by the domain-ordered merge contract).

using vibe::testing::ScopedEnv;

TEST(ShardsAxis, SerialStackDigestIgnoresSimShards) {
  // The full VIA stack runs in one domain on one shard; flipping the
  // PDES shard count must not move a single byte of its trace digest.
  const RunOutcome base = [&] {
    ScopedEnv env("VIBE_SIM_SHARDS", "1");
    return lossyPingPong("clan", 7331);
  }();
  constexpr const char* kShards[] = {"2", "7", nullptr};
  for (const char* shards : kShards) {
    ScopedEnv env("VIBE_SIM_SHARDS", shards);
    const RunOutcome got = lossyPingPong("clan", 7331);
    EXPECT_EQ(got.digest, base.digest)
        << "VIBE_SIM_SHARDS=" << (shards ? shards : "<unset>");
    EXPECT_EQ(got.endTime, base.endTime);
    EXPECT_EQ(got.retransmits, base.retransmits);
  }
}

TEST(ShardsAxis, PdesSweepDigestInvariantAcrossShardsTimesJobs) {
  // A seed sweep of hosted clusters, swept through the jobs harness:
  // every (VIBE_SIM_SHARDS, jobs) cell folds the identical digest. Each
  // cluster resolves VIBE_SIM_SHARDS into simShards the way the hosted
  // golden tables do — the exact path a harness-ported bench uses.
  auto sweepDigest = [&](const char* shards, unsigned jobs) {
    ScopedEnv env("VIBE_SIM_SHARDS", shards);
    harness::SweepOptions opts;
    opts.jobs = jobs;
    const auto outs = harness::runSweep(
        6,
        [&](harness::PointEnv& env2) {
          return lossyPingPong("clan", 5000 + env2.index * 13,
                               std::max(1u, sim::shardCount()));
        },
        opts);
    std::uint64_t acc = sim::Tracer::kDigestSeed;
    for (const RunOutcome& o : outs) {
      acc = sim::Tracer::combineDigest(acc, o.digest);
      acc = sim::Tracer::combineDigest(acc,
                                       static_cast<std::uint64_t>(o.endTime));
    }
    return acc;
  };
  const std::uint64_t base = sweepDigest("1", 1);
  constexpr const char* kShards[] = {"1", "2", "7", nullptr};
  for (const char* shards : kShards) {
    for (unsigned jobs : {1u, 4u}) {
      EXPECT_EQ(sweepDigest(shards, jobs), base)
          << "VIBE_SIM_SHARDS=" << (shards ? shards : "<unset>")
          << " jobs=" << jobs;
    }
  }
}

// --- the VIA stack hosted on the sharded engine ---------------------------

// The full reliability machinery (8% loss keeps the RTO timers firing)
// on a sharded Cluster: digest, end time, and retransmit count must not
// move with the worker shard count, and every shard count must replay a
// seed byte-for-byte. This is the in-sweep face of the deeper wall in
// test_pdes_stack.
TEST_P(DeterminismTest, ShardedStackDigestInvariantAcrossShardCounts) {
  const std::string profile = GetParam();
  const RunOutcome base = lossyPingPong(profile, 2024, /*simShards=*/1);
  EXPECT_GT(base.retransmits, 0u);
  const std::uint32_t counts[] = {1, 2, 7, harness::jobCount()};
  for (std::uint32_t shards : counts) {
    const RunOutcome got = lossyPingPong(profile, 2024, shards);
    EXPECT_EQ(got.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(got.endTime, base.endTime) << "shards=" << shards;
    EXPECT_EQ(got.retransmits, base.retransmits) << "shards=" << shards;
  }
}

// Sharded-Cluster seed sweep through the jobs harness: concurrent
// sharded simulations (each spinning its own worker pool) still fold
// the same sweep digest at any jobs count.
TEST(ShardedClusterAxis, SeedSweepComposesDigestIndependentOfJobs) {
  auto sweepDigest = [&](std::uint32_t simShards, unsigned jobs) {
    harness::SweepOptions opts;
    opts.jobs = jobs;
    const auto outs = harness::runSweep(
        6,
        [&](harness::PointEnv& env) {
          return lossyPingPong("clan", 6000 + env.index * 17, simShards);
        },
        opts);
    std::uint64_t acc = sim::Tracer::kDigestSeed;
    for (const RunOutcome& o : outs) {
      acc = sim::Tracer::combineDigest(acc, o.digest);
    }
    return acc;
  };
  const std::uint64_t base = sweepDigest(1, 1);
  EXPECT_EQ(base, sweepDigest(2, 1));
  EXPECT_EQ(base, sweepDigest(2, 4));
  EXPECT_EQ(base, sweepDigest(harness::jobCount(), 2));
}

}  // namespace
}  // namespace vibe
