// Extension: collective operations at the programming-model level —
// barrier and allreduce time versus rank count, per VIA implementation.
// This is the scalability study the paper says VIBe should enable ("insight
// about the number of VIs to be used in an implementation and scalability
// studies", §1): a collective over N ranks holds N-1 VI pairs per node, so
// on the firmware model every extra rank taxes every message twice.
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "simcore/pdes.hpp"
#include "upper/msg/communicator.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace {

using namespace vibe;
using upper::msg::Communicator;

struct CollectiveTimes {
  double barrierUsec = 0;
  double allreduceUsec = 0;
};

CollectiveTimes measure(const nic::NicProfile& profile, std::uint32_t ranks,
                        int repetitions, const harness::PointEnv& penv,
                        std::uint32_t fatTreeK = 0,
                        const upper::msg::CommConfig& commCfg = {}) {
  suite::ClusterConfig cc = bench::clusterFor(profile, ranks, penv);
  cc.fatTreeK = fatTreeK;
  suite::Cluster cluster(cc);
  CollectiveTimes result;
  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    programs.push_back([&, r](suite::NodeEnv& env) {
      auto comm = Communicator::create(env, r, ranks, commCfg);
      comm->barrier();  // align all ranks before timing

      sim::SimTime t0 = env.now();
      for (int i = 0; i < repetitions; ++i) comm->barrier();
      const double barrier =
          sim::toUsec(env.now() - t0) / repetitions;

      std::vector<double> v(64, static_cast<double>(r));
      t0 = env.now();
      for (int i = 0; i < repetitions; ++i) comm->allreduceSum(v);
      const double allreduce =
          sim::toUsec(env.now() - t0) / repetitions;

      if (r == 0) {
        result.barrierUsec = barrier;
        result.allreduceUsec = allreduce;
      }
    });
  }
  cluster.run(std::move(programs));
  return result;
}

// --- raw-VIPL hypercube collectives ------------------------------------
//
// The Communicator wires a full O(N^2) VI mesh, which is what bounds the
// rank counts above. Recursive doubling needs only log2(N) VIs per rank
// (dimension d pairs rank r with r ^ 2^d), so the same barrier and
// allreduce reach thousands of ranks — the scale where hosting the stack
// on the sharded PDES engine starts to pay.

constexpr std::uint64_t kHcDisc = 0x4859'5043;  // "HYPC" + dimension
constexpr sim::Duration kHcTimeout = sim::kSecond * 10;
constexpr std::size_t kHcAllredDoubles = 64;
constexpr std::size_t kHcAllredBytes = kHcAllredDoubles * sizeof(double);
constexpr std::size_t kHcBarrierBytes = 8;

constexpr vipl::ResultCheck hcRequire{"hypercube: "};

CollectiveTimes hypercube(const nic::NicProfile& profile,
                          std::uint32_t ranks, std::uint32_t fatTreeK,
                          int reps, std::uint32_t simShards,
                          const harness::PointEnv* penv,
                          bench::RunWitness* witness = nullptr) {
  if (!std::has_single_bit(ranks)) {
    throw std::invalid_argument("hypercube: ranks must be a power of two");
  }
  const std::uint32_t dims =
      static_cast<std::uint32_t>(std::countr_zero(ranks));
  suite::ClusterConfig cc = penv ? bench::clusterFor(profile, ranks, *penv)
                                 : bench::clusterFor(profile, ranks);
  cc.fatTreeK = fatTreeK;
  cc.simShards = simShards;
  suite::Cluster cluster(cc);
  CollectiveTimes result;

  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    programs.push_back([&, r](suite::NodeEnv& env) {
      vipl::Provider& nic = env.nic;
      const auto ptag = vipl::VipCreatePtag(nic);
      // Per dimension: one VI, one tx buffer, and a rx arena preposted in
      // exactly the order the exchanges will consume it — (1 + reps)
      // barrier messages, then reps allreduce payloads. The VI is a
      // single-writer ReliableDelivery channel, so completions pop FIFO.
      struct Dim {
        vipl::Vi* vi = nullptr;
        mem::VirtAddr txVa = 0;
        mem::MemHandle txHandle = 0;
        mem::VirtAddr rxVa = 0;
        mem::MemHandle rxHandle = 0;
        std::vector<std::unique_ptr<vipl::VipDescriptor>> rxDescs;
        std::vector<mem::VirtAddr> rxSlots;
        std::size_t rxNext = 0;
      };
      const std::size_t rxArena =
          (1 + reps) * kHcBarrierBytes + reps * kHcAllredBytes;
      std::vector<Dim> dim(dims);
      for (std::uint32_t d = 0; d < dims; ++d) {
        Dim& dd = dim[d];
        dd.txVa = nic.memory().alloc(kHcAllredBytes, mem::kPageSize);
        dd.rxVa = nic.memory().alloc(rxArena, mem::kPageSize);
        vipl::VipMemAttributes ma;
        ma.ptag = ptag;
        hcRequire(vipl::VipRegisterMem(nic, dd.txVa, kHcAllredBytes, ma,
                                       dd.txHandle),
                  "register tx");
        hcRequire(
            vipl::VipRegisterMem(nic, dd.rxVa, rxArena, ma, dd.rxHandle),
            "register rx");
        vipl::VipViAttributes va;
        va.ptag = ptag;
        va.reliabilityLevel = nic::Reliability::ReliableDelivery;
        hcRequire(vipl::VipCreateVi(nic, va, nullptr, nullptr, dd.vi),
                  "create vi");
        mem::VirtAddr slot = dd.rxVa;
        auto prepost = [&](std::size_t bytes) {
          dd.rxDescs.push_back(std::make_unique<vipl::VipDescriptor>(
              vipl::VipDescriptor::recv(slot, dd.rxHandle, bytes)));
          hcRequire(vipl::VipPostRecv(nic, dd.vi, dd.rxDescs.back().get()),
                    "post recv");
          dd.rxSlots.push_back(slot);
          slot += bytes;
        };
        for (int i = 0; i < 1 + reps; ++i) prepost(kHcBarrierBytes);
        for (int i = 0; i < reps; ++i) prepost(kHcAllredBytes);
      }
      // Dial the cube: dimension d pairs r with r ^ 2^d, the lower rank
      // requests and the higher accepts. Every rank owns exactly one side
      // of one dialog per dimension, so all dialogs of a dimension run in
      // parallel — no accept serialization, no stagger needed.
      for (std::uint32_t d = 0; d < dims; ++d) {
        const std::uint32_t peer = r ^ (1u << d);
        const std::uint64_t disc = kHcDisc + d;
        if (r < peer) {
          hcRequire(vipl::VipConnectRequest(nic, dim[d].vi, {peer, disc},
                                            kHcTimeout),
                    "connect request");
        } else {
          vipl::PendingConn conn;
          hcRequire(vipl::VipConnectWait(nic, {r, disc}, kHcTimeout, conn),
                    "connect wait");
          hcRequire(vipl::VipConnectAccept(nic, conn, dim[d].vi),
                    "connect accept");
        }
      }
      // One exchange along dimension d; returns the VA of the peer's
      // payload (the next FIFO rx slot).
      auto exchange = [&](std::uint32_t d,
                          std::size_t bytes) -> mem::VirtAddr {
        Dim& dd = dim[d];
        vipl::VipDescriptor s =
            vipl::VipDescriptor::send(dd.txVa, dd.txHandle, bytes);
        hcRequire(vipl::VipPostSend(nic, dd.vi, &s), "post send");
        vipl::VipDescriptor* done = nullptr;
        hcRequire(nic.sendWait(dd.vi, kHcTimeout, done), "send wait");
        hcRequire(nic.recvWait(dd.vi, kHcTimeout, done), "recv wait");
        if (done != dd.rxDescs[dd.rxNext].get()) {
          throw std::runtime_error("hypercube: rx completion out of order");
        }
        return dd.rxSlots[dd.rxNext++];
      };
      auto barrier = [&] {
        for (std::uint32_t d = 0; d < dims; ++d) {
          (void)exchange(d, kHcBarrierBytes);
        }
      };
      barrier();  // align all ranks before timing

      sim::SimTime t0 = env.now();
      for (int i = 0; i < reps; ++i) barrier();
      const double barrierUsec = sim::toUsec(env.now() - t0) / reps;

      std::vector<double> v(kHcAllredDoubles, static_cast<double>(r));
      std::vector<std::byte> wire(kHcAllredBytes);
      std::vector<double> peerV(kHcAllredDoubles);
      t0 = env.now();
      for (int i = 0; i < reps; ++i) {
        for (std::uint32_t d = 0; d < dims; ++d) {
          std::memcpy(wire.data(), v.data(), kHcAllredBytes);
          nic.memory().write(dim[d].txVa, wire);
          const mem::VirtAddr peerVa = exchange(d, kHcAllredBytes);
          nic.memory().read(peerVa, wire);
          std::memcpy(peerV.data(), wire.data(), kHcAllredBytes);
          for (std::size_t j = 0; j < kHcAllredDoubles; ++j) {
            v[j] += peerV[j];
          }
        }
      }
      const double allreduceUsec = sim::toUsec(env.now() - t0) / reps;

      // After rep 1 every rank holds S1 = N(N-1)/2; each further rep
      // multiplies by N. Exact in doubles while under 2^53.
      double expect = static_cast<double>(ranks) *
                      (static_cast<double>(ranks) - 1) / 2;
      for (int i = 1; i < reps; ++i) expect *= static_cast<double>(ranks);
      if (expect < 9.0e15 && v[0] != expect) {
        throw std::runtime_error("hypercube: allreduce sum mismatch");
      }
      if (r == 0) {
        result.barrierUsec = barrierUsec;
        result.allreduceUsec = allreduceUsec;
      }
    });
  }
  const bool prof = std::getenv("VIBE_PDES_PROFILE") != nullptr;
  if (prof) cluster.shardedEngine().setProfiling(true);
  cluster.run(std::move(programs));
  if (prof) {
    for (const sim::ShardProfile& p :
         cluster.shardedEngine().shardProfiles()) {
      std::fprintf(stderr,
                   "  [prof] shard %u: domains=%u events=%llu active=%llu "
                   "exec_ms=%.1f completion_ms=%.1f parked_ms=%.1f\n",
                   p.shard, p.domains,
                   static_cast<unsigned long long>(p.events),
                   static_cast<unsigned long long>(p.windowsActive),
                   p.execNs / 1e6, p.completionNs / 1e6,
                   p.barrierWaitNs / 1e6);
    }
  }
  if (witness) *witness = bench::witnessOf(cluster);
  return result;
}

/// Golden: the hypercube collectives hosted on the sharded PDES engine.
/// Per-domain schedules are shard-count-invariant, so the table is
/// byte-identical at any VIBE_SIM_SHARDS >= 1 — the golden matrix's
/// shards axis re-runs it on real worker threads against the same bytes.
void shardedHypercubeTable() {
  using namespace vibe::bench;
  suite::ResultTable t(
      "Hypercube barrier / allreduce (us), cLAN k=8 fat-tree, hosted on "
      "the sharded PDES engine vs the serial engine",
      {"ranks", "pdes_barrier", "pdes_allred", "serial_barrier",
       "serial_allred"});
  const std::vector<std::uint32_t> counts = {32u, 64u};
  struct Pair {
    CollectiveTimes hosted;
    CollectiveTimes serial;
  };
  const auto points = harness::runSweep(
      counts.size(),
      [&](harness::PointEnv& env) {
        const std::uint32_t ranks = counts[env.index];
        return Pair{hypercube(nic::clanProfile(), ranks, 8, 4, simShards(),
                              &env),
                    hypercube(nic::clanProfile(), ranks, 8, 4, 0, &env)};
      },
      sweepOptions());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    t.addRow({static_cast<double>(counts[i]), points[i].hosted.barrierUsec,
              points[i].hosted.allreduceUsec, points[i].serial.barrierUsec,
              points[i].serial.allreduceUsec});
  }
  emit(t, 0);
  std::printf(
      "log2(N) VIs per rank instead of the Communicator's O(N^2) mesh;\n"
      "the pdes and serial columns run the same collective on the hosted\n"
      "sharded engine and on the classic serial engine.\n");
}

#ifndef VIBE_BENCH_LIBRARY
/// Standalone-only (wall-clock columns cannot be golden): the hypercube
/// at 4096 ranks on a k=32 fat-tree — 1280 PDES domains — swept over
/// worker shard counts. Every run must reproduce the shards=1 witness
/// bit-for-bit; the speedup column is the point of the exercise.
int shardedHypercubeDemo() {
  const std::uint32_t ranks = 4096;
  std::printf(
      "\nScale demo: %u-rank hypercube barrier + allreduce, k=32 fat-tree "
      "(4096 hosts, 1280 PDES domains)\n",
      ranks);
  struct ShardRun {
    std::uint32_t shards = 0;
    double wallMs = 0;
    CollectiveTimes times;
    bench::RunWitness w;
  };
  std::vector<std::uint32_t> sweptShards = {1u, 2u, 4u};
  const std::uint32_t hw = bench::simShards();
  if (hw > 4) sweptShards.push_back(hw);
  std::vector<ShardRun> runs;
  for (std::uint32_t s : sweptShards) {
    ShardRun r;
    r.shards = s;
    const auto t0 = std::chrono::steady_clock::now();
    r.times = hypercube(nic::clanProfile(), ranks, 32, 2, s, nullptr, &r.w);
    r.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    runs.push_back(r);
  }
  const ShardRun& base = runs.front();
  bool deterministic = true;
  std::printf("%8s %12s %14s %12s %12s %10s %10s\n", "shards", "wall_ms",
              "events/sec", "barrier_us", "allred_us", "speedup",
              "witness");
  for (const ShardRun& r : runs) {
    const bool same = r.w == base.w;
    deterministic = deterministic && same;
    std::printf("%8u %12.0f %14.0f %12.1f %12.1f %9.2fx %10s\n", r.shards,
                r.wallMs, static_cast<double>(r.w.events) / (r.wallMs / 1e3),
                r.times.barrierUsec, r.times.allreduceUsec,
                base.wallMs / r.wallMs, same ? "match" : "DIVERGED");
  }
  std::printf("determinism across shard counts: %s\n",
              deterministic ? "OK (witnesses byte-identical)" : "FAILED");
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "note: single-core host; worker threads time-slice one core, so "
        "speedup ~= 1.0 here by necessity (see docs/PDES.md)\n");
  }
  return deterministic ? 0 : 1;
}
#endif  // VIBE_BENCH_LIBRARY

int run(int, char**) {
  using namespace vibe::bench;
  printHeader("Collective operations vs rank count",
              "Extension of §1's scalability question: dissemination "
              "barrier and 64-double allreduce through the message layer");

  suite::ResultTable barrier("Barrier time (us)",
                             {"ranks", "mvia", "bvia", "clan"});
  suite::ResultTable allreduce("Allreduce time, 64 doubles (us)",
                               {"ranks", "mvia", "bvia", "clan"});
  const std::vector<std::uint32_t> rankCounts = {2u, 4u, 8u};
  const auto points = sweepGrid(
      rankCounts, paperProfiles(),
      [](std::uint32_t ranks, const NamedProfile& np, harness::PointEnv& env) {
        return measure(np.profile, ranks, 12, env);
      });
  addGridRows(barrier, rankCounts, points, &CollectiveTimes::barrierUsec);
  addGridRows(allreduce, rankCounts, points, &CollectiveTimes::allreduceUsec);
  emit(barrier);
  emit(allreduce);
  std::printf(
      "The dissemination barrier costs ceil(log2 N) rounds of one-way\n"
      "latency — but on the firmware model each node also holds 2(N-1) VIs\n"
      "(control+bulk per peer), so every round's messages pay a longer\n"
      "doorbell scan as N grows: the Fig. 6 effect compounding with depth.\n");

  // Collectives across the fabric: the same barrier/allreduce on cLAN at
  // 16 and 32 ranks, flat star vs k=8 fat-tree. Every rank pair holds a VI
  // pair (the mesh is O(N^2) — and so is the wall cost of wiring it, which
  // is what bounds the rank count here), so credits and eager buffers are
  // trimmed to keep the mesh's preposted memory small; both columns use the
  // same trimmed config, so the delta is purely the fabric's path lengths —
  // dissemination rounds hit ever-farther partners (rank +1, +2, +4 ...):
  // with 4 hosts per edge switch and 16 per pod, rounds past +4 cross the
  // aggregation tier and rounds past +16 pay the full core crossing.
  suite::ResultTable fabricT(
      "Barrier / allreduce (us), cLAN, flat star vs k=8 fat-tree",
      {"ranks", "flat_barrier", "ft_barrier", "flat_allred", "ft_allred"});
  const std::vector<std::uint32_t> bigRanks = {16u, 32u};
  upper::msg::CommConfig lean;
  lean.eagerThreshold = 2048;
  lean.creditsPerPeer = 4;
  lean.controlReserve = 4;
  struct FabricPoint {
    CollectiveTimes flat;
    CollectiveTimes fatTree;
  };
  const auto fabricPoints = harness::runSweep(
      bigRanks.size(),
      [&](harness::PointEnv& env) {
        const std::uint32_t ranks = bigRanks[env.index];
        return FabricPoint{
            measure(nic::clanProfile(), ranks, 4, env, 0, lean),
            measure(nic::clanProfile(), ranks, 4, env, 8, lean)};
      },
      sweepOptions());
  for (std::size_t i = 0; i < bigRanks.size(); ++i) {
    const FabricPoint& p = fabricPoints[i];
    fabricT.addRow({static_cast<double>(bigRanks[i]), p.flat.barrierUsec,
                    p.fatTree.barrierUsec, p.flat.allreduceUsec,
                    p.fatTree.allreduceUsec});
  }
  emit(fabricT);
  std::printf(
      "On the fat-tree the early dissemination rounds stay inside an edge\n"
      "switch or pod while the late rounds cross the cores, so the barrier\n"
      "pays a weighted mix of the path tiers rather than N times the flat\n"
      "latency — the Clos tax grows with log N, not with N.\n");
  shardedHypercubeTable();
#ifndef VIBE_BENCH_LIBRARY
  return shardedHypercubeDemo();
#else
  return 0;
#endif
}

}  // namespace

VIBE_BENCH_MAIN_SHARDED(ext_collectives, run)
