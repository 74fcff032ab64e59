// Bench entry-point registry.
//
// Every bench driver defines one `int run(int, char**)` function and
// declares it with VIBE_BENCH_MAIN(name, run), or with
// VIBE_BENCH_MAIN_SHARDED(name, run) when it reads bench::simShards().
// Built standalone (the default), the macro expands to a real main() and
// the driver is an ordinary binary. Built with -DVIBE_BENCH_LIBRARY, the
// macro instead registers the function in a process-wide registry so the
// golden-table tests can link every driver into one binary and re-run
// each table in-process, capturing stdout without spawning subprocesses.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vibe::bench {

using BenchFn = int (*)(int argc, char** argv);

struct BenchInfo {
  std::string name;
  BenchFn fn = nullptr;
  /// Reads VIBE_SIM_SHARDS through bench::simShards(): the golden suite
  /// crosses its shards axis with the jobs axis; every other bench runs
  /// its shards axis at jobs 1 only.
  bool readsShards = false;
};

/// Registered drivers, in static-init order. Call sites should sort by
/// name before iterating: registration order depends on link order.
inline std::vector<BenchInfo>& benchRegistry() {
  static std::vector<BenchInfo> registry;
  return registry;
}

/// Calls of bench::simShards() so far in this process. Atomic: sweep
/// points call it on worker threads. The golden suite checks a case's
/// count against BenchInfo::readsShards.
inline std::atomic<std::uint64_t>& shardReads() {
  static std::atomic<std::uint64_t> reads{0};
  return reads;
}

struct BenchRegistrar {
  BenchRegistrar(const char* name, BenchFn fn, bool readsShards) {
    benchRegistry().push_back({name, fn, readsShards});
  }
};

}  // namespace vibe::bench

#ifdef VIBE_BENCH_LIBRARY
#define VIBE_BENCH_REGISTER(name, fn, readsShards)               \
  namespace {                                                    \
  const ::vibe::bench::BenchRegistrar vibeBenchRegistrar_##name( \
      #name, fn, readsShards);                                   \
  }
#else
#define VIBE_BENCH_REGISTER(name, fn, readsShards) \
  int main(int argc, char** argv) {                \
    return fn(argc, argv);                         \
  }
#endif
#define VIBE_BENCH_MAIN(name, fn) VIBE_BENCH_REGISTER(name, fn, false)
#define VIBE_BENCH_MAIN_SHARDED(name, fn) VIBE_BENCH_REGISTER(name, fn, true)
