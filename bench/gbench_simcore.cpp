// Wall-clock microbenchmarks of the simulation substrate itself
// (google-benchmark): event throughput, process context-switch cost, the
// cost of a thin PDES window, resource pipeline arithmetic, and PRNG speed.
// These bound how fast the VIBe suite itself runs — useful when extending
// the workloads.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench_json.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/process.hpp"
#include "simcore/prng.hpp"
#include "simcore/resource.hpp"
#include "vibe/datatransfer.hpp"
#include "nic/profiles.hpp"

namespace {

using namespace vibe::sim;

void BM_EventDispatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    for (int i = 0; i < batch; ++i) {
      eng.post(i, [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.executedEvents());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(10000);

void BM_SelfRescheduling(benchmark::State& state) {
  // A single event chain of depth N: stresses push/pop interleaving.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    int remaining = depth;
    std::function<void()> step = [&] {
      if (--remaining > 0) eng.post(1, step);
    };
    eng.post(1, step);
    eng.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SelfRescheduling)->Arg(10000);

/// A process body that advances `hops` times.
std::function<void()> hopper(Engine& eng, int hops) {
  return [&eng, hops] {
    for (int i = 0; i < hops; ++i) {
      eng.currentProcess()->advance(10);
    }
  };
}

void BM_ProcessContextSwitch(benchmark::State& state) {
  // Two processes advance in lockstep: each resume ties with the other
  // process's, which was posted first, so no advance() steps in place.
  // Each one posts an engine event and costs two user-space fiber
  // switches (proc->engine->proc).
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    Process a(eng, "hopper-a", hopper(eng, hops));
    Process b(eng, "hopper-b", hopper(eng, hops));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * hops);
}
BENCHMARK(BM_ProcessContextSwitch)->Arg(200);

void BM_ProcessAdvanceInPlace(benchmark::State& state) {
  // A lone process: each resume would be the engine's next event, so
  // advance() moves the clock in place, with no event posted and no fiber
  // switch. Most of an iteration is the process's stack mapping.
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    Process p(eng, "hopper", hopper(eng, hops));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_ProcessAdvanceInPlace)->Arg(200);

/// A token that hops from each domain to the next, one lookahead ahead.
struct HopToken {
  ShardedEngine& eng;
  std::uint64_t left = 0;
  void hop(std::uint32_t d) {
    if (--left == 0) return;
    const std::uint32_t next = d + 1 == eng.domainCount() ? 0 : d + 1;
    eng.sendAt(d, next, eng.domainEngine(d).now() + eng.lookahead(),
               [this, next] { hop(next); });
  }
};

void BM_ShardedThinWindows(benchmark::State& state) {
  // The cost of a PDES window beyond its event: a token hops domain to
  // domain at 4 shards, each arrival exactly one lookahead after its send,
  // so every window runs one event, inline on the calling thread. The
  // argument is the domain count (a k=4 fat-tree has 20 switch domains, a
  // k=32 one 1280); ns_per_window should not grow with it.
  constexpr std::uint64_t kHops = 10000;
  ShardedEngine eng({.domains = static_cast<std::uint32_t>(state.range(0)),
                     .lookahead = 100,
                     .shards = 4});
  HopToken token{eng};
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    token.left = kHops;
    eng.domainEngine(0).postAt(eng.maxNow() + eng.lookahead(),
                               [&token] { token.hop(0); });
    eng.run();
    benchmark::DoNotOptimize(eng.windowsExecuted());
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const auto windows = static_cast<double>(eng.windowsExecuted());
  if (eng.windowsExecuted() != state.iterations() * kHops) {
    state.SkipWithError("a window ran more or less than one event");
  }
  state.SetItemsProcessed(state.iterations() * kHops);
  state.counters["ns_per_window"] = windows > 0 ? ns / windows : 0;
}
BENCHMARK(BM_ShardedThinWindows)->Arg(20)->Arg(1280);

void BM_ResourceAcquire(benchmark::State& state) {
  Resource r("bench");
  SimTime t = 0;
  for (auto _ : state) {
    t = r.acquire(t, 3);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceAcquire);

void BM_PrngUniform(benchmark::State& state) {
  Xoshiro256 rng(42);
  double acc = 0;
  for (auto _ : state) {
    acc += rng.uniform();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrngUniform);

// --- VIBE_JSON=1 trajectory: direct wall-clock measurements, written to
// BENCH_simcore.json so successive PRs have a recorded perf history. ---

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-3 wall-clock events/sec: batches of timer posts drained by run(),
/// the same shape as BM_EventDispatch.
double measureEventsPerSec() {
  constexpr int kBatch = 10000;
  constexpr int kBatches = 100;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < kBatches; ++b) {
      Engine eng;
      for (int i = 0; i < kBatch; ++i) {
        eng.post(i, [] {});
      }
      eng.run();
      benchmark::DoNotOptimize(eng.executedEvents());
    }
    best = std::max(best, kBatch * kBatches / secondsSince(t0));
  }
  return best;
}

/// Best-of-3 post+cancel pairs/sec: the retransmit-timer pattern.
double measureCancelsPerSec() {
  constexpr int kPairs = 1000000;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Engine eng;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPairs; ++i) {
      const EventId id = eng.post(1000000, [] {});
      eng.cancel(id);
    }
    best = std::max(best, kPairs / secondsSince(t0));
    eng.run();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (vibe::bench::jsonRequested()) {
    // Simulated 64-byte cLAN ping-pong: wall cost of the full stack plus
    // the (deterministic) virtual-time latency it reports.
    vibe::suite::ClusterConfig cluster;
    cluster.profile = vibe::nic::clanProfile();
    vibe::suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = 200;
    cfg.warmup = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto pp = vibe::suite::runPingPong(cluster, cfg);
    const double ppWall = secondsSince(t0);
    vibe::bench::writeBenchJson(
        "simcore", {{"events_per_sec", measureEventsPerSec()},
                    {"post_cancel_pairs_per_sec", measureCancelsPerSec()},
                    {"pingpong_sim_usec", pp.latencyUsec},
                    {"pingpong_wall_sec", ppWall}});
  }
  return 0;
}
