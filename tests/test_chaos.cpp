// Seed-sweep chaos harness: runs workloads under generated FaultPlans,
// asserts the reliability invariants on every run (via fault::
// InvariantChecker consuming the trace stream), and verifies determinism
// by running each seed twice and comparing trace digests byte-for-byte.
//
// Also covers the explicit fault scenarios the sweep keeps recoverable:
// a partition outlasting the retry budget (must tear down cleanly, never
// hang), payload corruption (detected, counted, retransmitted around),
// and the empty-plan identity (an armed injector with nothing to do is
// byte-identical to no injector at all).
//
// Seed count: VIBE_CHAOS_SEEDS env var (default 32).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariants.hpp"
#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "test_env.hpp"
#include "upper/msg/communicator.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using fault::FaultAction;
using fault::FaultInjector;
using vibe::testing::ScopedEnv;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanParams;
using fault::InvariantChecker;
using fault::LinkSide;
using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using upper::msg::CommConfig;
using upper::msg::Communicator;
using vipl::PendingConn;
using vipl::Provider;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;

constexpr sim::Duration kTimeout = sim::kSecond * 10;
constexpr std::uint64_t kDisc = 5;

int seedCount() {
  if (const char* env = std::getenv("VIBE_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 32;
}

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

Vi* makeVi(Provider& nic, mem::PtagId ptag, nic::Reliability rel) {
  vipl::VipViAttributes va;
  va.ptag = ptag;
  va.reliabilityLevel = rel;
  Vi* vi = nullptr;
  EXPECT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
            VipResult::VIP_SUCCESS);
  return vi;
}

// ---------------------------------------------------------------------------
// Workloads. Every reliable receiver preposts ALL descriptors before the
// connection is accepted: on reliable VIA a missing descriptor is a fatal
// protocol error by design, not a fault-tolerance gap.
// ---------------------------------------------------------------------------

/// node0 <-> node1 request/response rounds, ReliableDelivery.
void pingPong(Cluster& cluster, std::uint64_t seed) {
  constexpr int kRounds = 150;
  constexpr std::size_t kBytes = 1024;
  int rounds = 0;

  auto node0 = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRounds * kBytes);
    fillSeeded(nic, tx.va, kBytes, static_cast<std::uint8_t>(seed));
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
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
      ASSERT_EQ(done, recvs[i].get()) << "pong out of order at round " << i;
      ++rounds;
    }
  };

  auto node1 = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRounds * kBytes);
    fillSeeded(nic, tx.va, kBytes, static_cast<std::uint8_t>(seed + 1));
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
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
      ASSERT_EQ(done, recvs[i].get()) << "ping out of order at round " << i;
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  cluster.run({node0, node1});
  EXPECT_EQ(rounds, kRounds);
}

/// node0 streams multi-fragment messages at node1; the reliability level
/// rotates with the seed so both RD and RR see chaos.
void streaming(Cluster& cluster, std::uint64_t seed) {
  constexpr int kMessages = 120;
  constexpr std::size_t kBytes = 6000;
  const nic::Reliability rel = (seed >> 2) % 2 == 0
                                   ? nic::Reliability::ReliableDelivery
                                   : nic::Reliability::ReliableReception;
  int received = 0;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    for (int i = 0; i < kMessages; ++i) {
      fillSeeded(nic, buf.va + i * kBytes, kBytes,
                 static_cast<std::uint8_t>(i));
    }
    Vi* vi = makeVi(nic, ptag, rel);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> sends;
    for (int i = 0; i < kMessages; ++i) {
      sends.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::send(buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostSend(nic, vi, sends[i].get()),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < kMessages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, sends[i].get()) << "send completions out of order";
    }
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kMessages * kBytes);
    Vi* vi = makeVi(nic, ptag, rel);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kMessages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va + i * kBytes, buf.handle, kBytes)));
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
      EXPECT_TRUE(checkSeeded(nic, buf.va + i * kBytes, kBytes,
                              static_cast<std::uint8_t>(i)))
          << "payload corrupted for message " << i;
      ++received;
    }
  };

  cluster.run({sender, receiver});
  EXPECT_EQ(received, kMessages);
}

/// node0 client drives two VIs into a node1 server, alternating
/// request/response traffic across them (ReliableDelivery).
void clientServer(Cluster& cluster, std::uint64_t seed) {
  constexpr int kRequests = 100;  // total across both VIs
  constexpr std::size_t kBytes = 512;
  (void)seed;
  int responses = 0;

  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRequests * kBytes);
    fillSeeded(nic, tx.va, kBytes, 0x11);
    Vi* vis[2];
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int v = 0; v < 2; ++v) {
      vis[v] = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
      for (int i = 0; i < kRequests / 2; ++i) {
        const int slot = v * (kRequests / 2) + i;
        recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
            rx.va + slot * kBytes, rx.handle, kBytes)));
        ASSERT_EQ(vipl::VipPostRecv(nic, vis[v], recvs.back().get()),
                  VipResult::VIP_SUCCESS);
      }
    }
    for (int v = 0; v < 2; ++v) {
      ASSERT_EQ(vipl::VipConnectRequest(nic, vis[v], {1, kDisc + v},
                                        kTimeout),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < kRequests; ++i) {
      Vi* vi = vis[i % 2];
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ++responses;
    }
  };

  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, kBytes);
    Buf rx = makeBuf(nic, ptag, kRequests * kBytes);
    fillSeeded(nic, tx.va, kBytes, 0x22);
    Vi* vis[2];
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int v = 0; v < 2; ++v) {
      vis[v] = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
      for (int i = 0; i < kRequests / 2; ++i) {
        const int slot = v * (kRequests / 2) + i;
        recvs.push_back(std::make_unique<VipDescriptor>(VipDescriptor::recv(
            rx.va + slot * kBytes, rx.handle, kBytes)));
        ASSERT_EQ(vipl::VipPostRecv(nic, vis[v], recvs.back().get()),
                  VipResult::VIP_SUCCESS);
      }
    }
    for (int v = 0; v < 2; ++v) {
      PendingConn conn;
      ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc + v}, kTimeout, conn),
                VipResult::VIP_SUCCESS);
      // Requests race in on both discriminators; match by token order.
      Vi* vi = conn.discriminator == kDisc ? vis[0] : vis[1];
      ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < kRequests; ++i) {
      Vi* vi = vis[i % 2];
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };

  cluster.run({client, server});
  EXPECT_EQ(responses, kRequests);
}

/// MPI-like layer over the chaos: eager and rendezvous round trips through
/// upper::msg::Communicator (ReliableDelivery underneath).
void msgLayer(Cluster& cluster, std::uint64_t seed) {
  constexpr int kRounds = 30;
  int echoed = 0;

  auto pattern = [seed](std::size_t len, std::uint8_t tagSeed) {
    std::vector<std::byte> out(len);
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = std::byte(
          static_cast<std::uint8_t>(tagSeed + seed + i * 13));
    }
    return out;
  };

  std::vector<std::function<void(NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < 2; ++r) {
    programs.push_back([&, r](NodeEnv& env) {
      auto comm = Communicator::create(env, r, 2, CommConfig{});
      for (int i = 0; i < kRounds; ++i) {
        // Alternate eager (below the 8 KiB threshold) and rendezvous.
        const std::size_t len = i % 2 == 0 ? 300 : 12000;
        if (r == 0) {
          comm->send(1, i, pattern(len, static_cast<std::uint8_t>(i)));
          const auto back = comm->recv(1, 1000 + i);
          EXPECT_EQ(back, pattern(len, static_cast<std::uint8_t>(i + 1)));
          ++echoed;
        } else {
          const auto got = comm->recv(0, i);
          EXPECT_EQ(got, pattern(len, static_cast<std::uint8_t>(i)));
          comm->send(0, 1000 + i, pattern(len, static_cast<std::uint8_t>(i + 1)));
        }
      }
    });
  }
  cluster.run(std::move(programs));
  EXPECT_EQ(echoed, kRounds);
}

// ---------------------------------------------------------------------------
// The sweep driver
// ---------------------------------------------------------------------------

using WorkloadFn = void (*)(Cluster&, std::uint64_t);

struct RunResult {
  std::uint64_t digest = 0;
  sim::SimTime endTime = 0;
  std::uint64_t reliableDeliveries = 0;
  std::vector<std::string> violations;
  std::string planText;
};

/// One chaos run: cluster + tracer + invariant checker + injector with the
/// seed-generated plan, then the workload, then finalize. `simShards` 0
/// runs the stack in one domain on one shard; >= 1 puts the two nodes on
/// separate leaf domains of a two-level tree, so every frame and every
/// fault window crosses a domain boundary.
RunResult runOnce(std::uint64_t seed, WorkloadFn workload,
                  std::uint32_t simShards = 0) {
  static const char* kProfiles[] = {"mvia", "bvia", "clan"};
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(kProfiles[seed % 3]);
  cfg.seed = seed;
  if (simShards > 0) {
    cfg.nodesPerSwitch = 1;  // leaf per node: 3 PDES domains
    cfg.simShards = simShards;
  }
  sim::Tracer tracer(512);  // digest and sink are ring-capacity independent
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  FaultPlanParams pp;
  pp.nodes = 2;
  pp.actions = 8;
  pp.horizon = sim::msec(8);
  pp.maxBurst = sim::msec(2);
  pp.allowPartitions = false;  // sweep stays recoverable; budget never trips
  FaultInjector injector(FaultPlan::generate(seed, pp));
  injector.arm(cluster);

  workload(cluster, seed);
  checker.finalize(cluster);

  RunResult r;
  r.digest = tracer.digest();
  r.endTime = cluster.now();
  r.reliableDeliveries = checker.reliableDeliveries();
  r.violations = checker.violations();
  r.planText = injector.plan().toString();
  return r;
}

struct SweepCase {
  const char* name;
  WorkloadFn fn;
};

// gtest_discover_tests bakes the printed parameter into each ctest name.
// gtest's default dump of this struct is its raw pointer bytes, which ASLR
// moves on every build; print the workload name so the names are stable.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class ChaosSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, ChaosSweep,
    ::testing::Values(SweepCase{"pingpong", pingPong},
                      SweepCase{"streaming", streaming},
                      SweepCase{"clientserver", clientServer},
                      SweepCase{"msg", msgLayer}),
    [](const auto& pi) { return std::string(pi.param.name); });

TEST_P(ChaosSweep, InvariantsHoldAndRunsAreDeterministic) {
  const SweepCase& wc = GetParam();
  const int seeds = seedCount();
  // Seeds are independent points: shard them across the sweep harness
  // (VIBE_JOBS workers) and assert on the collected results in seed order,
  // so failure output reads identically at any thread count.
  struct SeedResult {
    RunResult first;
    RunResult second;
  };
  const auto results = harness::runSweep(
      static_cast<std::size_t>(seeds), [&](harness::PointEnv& env) {
        const std::uint64_t seed = 1000 + env.index * 7919;
        SeedResult r;
        r.first = runOnce(seed, wc.fn);
        // Determinism: the same seed must replay byte-for-byte.
        r.second = runOnce(seed, wc.fn);
        return r;
      });
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(s) * 7919;
    SCOPED_TRACE("workload=" + std::string(wc.name) +
                 " seed=" + std::to_string(seed));
    const RunResult& first = results[static_cast<std::size_t>(s)].first;
    const RunResult& second = results[static_cast<std::size_t>(s)].second;
    EXPECT_TRUE(first.violations.empty())
        << "invariant violations:\n"
        << ::testing::PrintToString(first.violations) << "\nplan:\n"
        << first.planText;
    EXPECT_GT(first.reliableDeliveries, 0u);
    EXPECT_EQ(first.digest, second.digest)
        << "trace digest diverged on replay; plan:\n" << first.planText;
    EXPECT_EQ(first.endTime, second.endTime);
  }
}

TEST(ChaosShardsAxis, DigestSweepIgnoresSimShards) {
  // The chaos stack runs in one domain; VIBE_SIM_SHARDS threads a
  // *sharded PDES* simulation and must not move a single chaos digest —
  // at any jobs count. This is the cheap half of the shards x jobs
  // matrix (test_determinism and test_pdes carry the PDES half); the
  // pdes-tsan CI job reruns this whole binary at VIBE_SIM_SHARDS=4.
  const int seeds = std::min(seedCount(), 8);
  auto foldedDigest = [&](const char* shards, unsigned jobs) {
    ScopedEnv env("VIBE_SIM_SHARDS", shards);
    harness::SweepOptions opts;
    opts.jobs = jobs;
    const auto digests = harness::runSweep(
        static_cast<std::size_t>(seeds),
        [&](harness::PointEnv& penv) {
          return runOnce(1000 + penv.index * 7919, pingPong).digest;
        },
        opts);
    std::uint64_t acc = sim::Tracer::kDigestSeed;
    for (std::uint64_t d : digests) acc = sim::Tracer::combineDigest(acc, d);
    return acc;
  };
  const std::uint64_t base = foldedDigest("1", 1);
  constexpr const char* kShards[] = {"2", "7", nullptr};
  for (const char* shards : kShards) {
    for (unsigned jobs : {1u, 4u}) {
      EXPECT_EQ(foldedDigest(shards, jobs), base)
          << "VIBE_SIM_SHARDS=" << (shards ? shards : "<unset>")
          << " jobs=" << jobs;
    }
  }
}

TEST(ChaosShardedCluster, SweepIsShardCountInvariantAndReplays) {
  // The other half of the axis: here the chaos stack itself runs on the
  // hosted ShardedEngine (runOnce simShards >= 1 puts each node on its
  // own leaf-switch domain). The per-domain schedules are a function of
  // the simulation alone, so digest, end time, delivery count, and the
  // invariant wall must not move with the worker shard count — and every
  // seed must still replay byte-for-byte.
  const int seeds = std::min(seedCount(), 6);
  const WorkloadFn workloads[] = {pingPong, streaming};
  const char* names[] = {"pingpong", "streaming"};
  for (std::size_t w = 0; w < std::size(workloads); ++w) {
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 4000 + static_cast<std::uint64_t>(s) * 7919;
      SCOPED_TRACE("workload=" + std::string(names[w]) +
                   " seed=" + std::to_string(seed));
      const RunResult base = runOnce(seed, workloads[w], /*simShards=*/1);
      EXPECT_TRUE(base.violations.empty())
          << "invariant violations:\n"
          << ::testing::PrintToString(base.violations) << "\nplan:\n"
          << base.planText;
      EXPECT_GT(base.reliableDeliveries, 0u);
      for (std::uint32_t shards : {2u, 7u}) {
        const RunResult got = runOnce(seed, workloads[w], shards);
        EXPECT_EQ(got.digest, base.digest)
            << "sharded chaos digest moved at shards=" << shards
            << "; plan:\n" << base.planText;
        EXPECT_EQ(got.endTime, base.endTime) << "shards=" << shards;
        EXPECT_EQ(got.reliableDeliveries, base.reliableDeliveries);
        EXPECT_TRUE(got.violations.empty())
            << ::testing::PrintToString(got.violations);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit fault scenarios
// ---------------------------------------------------------------------------

TEST(ChaosFaults, PartitionOutlastingRetryBudgetTearsDownCleanly) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 7;
  sim::Tracer tracer;
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  // Node 1 falls off the fabric at t=1ms for 400ms — far beyond the
  // ~111ms the retry budget tolerates (rtoBase * (1+2+4+8 + 12 *
  // rtoBackoffCap) of backoff at clan's 1ms base, cap 8, budget 16).
  FaultPlan plan;
  plan.seed = 7;
  FaultAction part;
  part.kind = FaultKind::Partition;
  part.node = 1;
  part.side = LinkSide::Both;
  part.start = sim::msec(1);
  part.duration = sim::msec(400);
  part.rate = 1.0;
  plan.actions.push_back(part);
  FaultInjector injector(plan);
  injector.arm(cluster);

  constexpr std::size_t kBytes = 512;
  bool senderSawCallback = false;
  bool senderSawError = false;

  auto sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    nic.setErrorCallback([&](Vi*, nic::WorkStatus why) {
      senderSawCallback = true;
      EXPECT_EQ(why, nic::WorkStatus::ConnectionLost);
    });
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kBytes);
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    // Keep sending into the partition until the reliability engine gives
    // up. Every wait uses a generous virtual timeout: the run must END
    // with a clean error, not hang on an RTO loop.
    while (env.now() < sim::msec(300)) {
      VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, kBytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      const VipResult r = nic.sendWait(vi, sim::kSecond, done);
      if (r == VipResult::VIP_DESCRIPTOR_ERROR) {
        senderSawError = true;
        EXPECT_EQ(d.cs.status.error, nic::WorkStatus::ConnectionLost);
        break;
      }
      ASSERT_EQ(r, VipResult::VIP_SUCCESS);
    }
    EXPECT_EQ(vi->state(), vipl::ViState::Error);
  };

  auto receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    constexpr int kSlots = 4096;
    Buf buf = makeBuf(nic, ptag, kSlots * kBytes);
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < kSlots; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va + i * kBytes, buf.handle, kBytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    // Drain until the partition starves the stream; the receiver's side
    // never breaks (it has nothing unacked), it simply times out.
    for (;;) {
      VipDescriptor* done = nullptr;
      const VipResult r = nic.recvWait(vi, sim::msec(150), done);
      if (r != VipResult::VIP_SUCCESS) break;
    }
  };

  cluster.run({sender, receiver});
  checker.finalize(cluster);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_TRUE(senderSawError) << "sendWait never surfaced the teardown";
  EXPECT_TRUE(senderSawCallback) << "error callback never fired";
  EXPECT_GT(cluster.node(0).device().stats().protocolErrors, 0u);
}

TEST(ChaosFaults, CorruptionIsDetectedCountedAndRecovered) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 11;
  sim::Tracer tracer;
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  FaultPlan plan;
  plan.seed = 11;
  FaultAction corrupt;
  corrupt.kind = FaultKind::Corruption;
  corrupt.node = 0;
  corrupt.side = LinkSide::Uplink;
  corrupt.start = 0;
  corrupt.duration = sim::kSecond;  // the whole run: every frame at risk
  corrupt.rate = 0.4;
  plan.actions.push_back(corrupt);
  FaultInjector injector(plan);
  injector.arm(cluster);

  streaming(cluster, /*seed=*/0);  // asserts full in-order delivery itself
  checker.finalize(cluster);
  EXPECT_TRUE(checker.ok()) << checker.report();

  // The corrupted frames were counted by the wire and by the receiving
  // NIC, and the reliability engine retransmitted around them.
  EXPECT_GT(cluster.topology().hostUplink(0).framesCorrupted(), 0u);
  EXPECT_GT(cluster.topology().framesCorrupted(), 0u);
  EXPECT_GT(cluster.node(1).device().stats().rxCorrupted, 0u);
  EXPECT_GT(cluster.node(0).device().stats().retransmits, 0u);
}

TEST(ChaosFaults, TrunkFlapHitsCrossLeafTrafficAndRecovers) {
  // Regression for the trunk-injection gap: with nodesPerSwitch=1 every
  // node0 <-> node1 frame crosses both trunks, so a flap armed on the
  // shared leaf0 -> root trunk must drop frames there — something that
  // was impossible when FaultInjector could only reach uplink/downlink.
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.seed = 21;
  cfg.nodesPerSwitch = 1;  // two leaves, all traffic via the root
  sim::Tracer tracer;
  InvariantChecker checker(cfg.profile.rtoRetryBudget);
  checker.attach(tracer);
  cfg.tracer = &tracer;
  Cluster cluster(cfg);

  FaultPlan plan;
  plan.seed = 21;
  FaultAction flap;
  flap.kind = FaultKind::LinkFlap;
  flap.target = fault::FaultTarget::Trunk;
  flap.node = 0;  // leaf index, not host id
  flap.side = LinkSide::Uplink;
  // cLAN connection install alone costs ~2.4 ms; open the window mid-run
  // where data frames are actually crossing the trunk. A 2 ms outage sits
  // far inside the ~119 ms retry budget, so the connection must survive.
  flap.start = sim::msec(5);
  flap.duration = sim::msec(2);
  plan.actions.push_back(flap);
  FaultInjector injector(plan);
  injector.arm(cluster);

  pingPong(cluster, /*seed=*/3);  // asserts in-order completion itself
  checker.finalize(cluster);
  EXPECT_TRUE(checker.ok()) << checker.report();

  fabric::Topology& net = cluster.topology();
  EXPECT_GT(net.trunkUp(0).framesDropped(), 0u);
  EXPECT_EQ(net.hostUplink(0).framesDropped(), 0u);  // host links untouched
  EXPECT_EQ(net.hostUplink(1).framesDropped(), 0u);
  EXPECT_GT(cluster.node(0).device().stats().retransmits, 0u);
}

TEST(ChaosFaults, TrunkActionOnFlatStarFailsLoudly) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  Cluster cluster(cfg);  // star: no trunks
  FaultPlan plan;
  FaultAction a;
  a.kind = FaultKind::LossBurst;
  a.target = fault::FaultTarget::Trunk;
  a.node = 0;
  a.duration = sim::usec(10);
  a.rate = 0.5;
  plan.actions.push_back(a);
  FaultInjector injector(plan);
  EXPECT_THROW(injector.arm(cluster), sim::SimError);
}

TEST(ChaosFaults, EmptyPlanIsByteIdenticalToNoInjector) {
  auto run = [](bool withInjector) {
    ClusterConfig cfg;
    cfg.profile = nic::profileByName("bvia");
    cfg.seed = 99;
    cfg.lossRate = 0.05;  // exercise the base Bernoulli path too
    sim::Tracer tracer;
    tracer.enableAll();
    cfg.tracer = &tracer;
    Cluster cluster(cfg);
    FaultInjector injector{FaultPlan{}};
    if (withInjector) injector.arm(cluster);
    pingPong(cluster, 5);
    return std::pair<std::uint64_t, sim::SimTime>(tracer.digest(),
                                                  cluster.now());
  };
  const auto bare = run(false);
  const auto armedEmpty = run(true);
  EXPECT_EQ(bare.first, armedEmpty.first);
  EXPECT_EQ(bare.second, armedEmpty.second);
}

// ---------------------------------------------------------------------------
// FaultPlan as data
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, GenerateIsDeterministicPerSeed) {
  FaultPlanParams pp;
  pp.allowPartitions = true;
  const FaultPlan a = FaultPlan::generate(42, pp);
  const FaultPlan b = FaultPlan::generate(42, pp);
  const FaultPlan c = FaultPlan::generate(43, pp);
  EXPECT_EQ(a.toString(), b.toString());
  EXPECT_NE(a.toString(), c.toString());
  EXPECT_EQ(a.actions.size(), pp.actions);
}

TEST(FaultPlanTest, TextRoundTripIsExact) {
  FaultPlanParams pp;
  pp.actions = 12;
  pp.allowPartitions = true;
  const FaultPlan plan = FaultPlan::generate(1234, pp);
  const FaultPlan back = FaultPlan::parse(plan.toString());
  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.actions.size(), plan.actions.size());
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    EXPECT_EQ(back.actions[i].kind, plan.actions[i].kind) << i;
    EXPECT_EQ(back.actions[i].node, plan.actions[i].node) << i;
    EXPECT_EQ(back.actions[i].side, plan.actions[i].side) << i;
    EXPECT_EQ(back.actions[i].start, plan.actions[i].start) << i;
    EXPECT_EQ(back.actions[i].duration, plan.actions[i].duration) << i;
    EXPECT_EQ(back.actions[i].rate, plan.actions[i].rate) << i;
    EXPECT_EQ(back.actions[i].extraLatency, plan.actions[i].extraLatency)
        << i;
  }
  EXPECT_EQ(back.toString(), plan.toString());
}

TEST(FaultPlanTest, TrunkTargetRoundTripsAndDefaultStaysImplicit) {
  FaultPlan plan;
  plan.seed = 9;
  FaultAction host;
  host.kind = FaultKind::LossBurst;
  host.node = 1;
  host.duration = sim::usec(5);
  host.rate = 0.5;
  plan.actions.push_back(host);
  FaultAction trunk = host;
  trunk.target = fault::FaultTarget::Trunk;
  trunk.node = 0;
  plan.actions.push_back(trunk);

  const std::string text = plan.toString();
  // Host-link actions print exactly as before the target field existed
  // (pre-trunk plan strings remain parseable AND reproducible), trunk
  // actions carry the explicit key.
  EXPECT_EQ(text.find("target="), text.rfind("target="));
  EXPECT_NE(text.find("target=trunk"), std::string::npos);

  const FaultPlan back = FaultPlan::parse(text);
  ASSERT_EQ(back.actions.size(), 2u);
  EXPECT_EQ(back.actions[0].target, fault::FaultTarget::HostLink);
  EXPECT_EQ(back.actions[1].target, fault::FaultTarget::Trunk);
  EXPECT_EQ(back.toString(), text);
}

}  // namespace
}  // namespace vibe
