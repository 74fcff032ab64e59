// The benchmark's workloads. Each runs closed-loop episodes on the cLAN
// profile: build a fresh suite::Cluster, set up VIs, memory and
// connections, run a fixed number of ops, tear down. A fixed op count
// keeps every virtual-time result and engine counter of an episode
// deterministic, so the correctness gate can compare them exactly; the
// benchmark repeats episodes to fill the measured time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// suite::ClusterConfig's default seed; virtual-time results are pinned
/// for it.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct EpisodeSpec {
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t ops = 0;  // ops in the timed phase; 0 = set-up and teardown
  bool traced = false;    // round-trip samples and shard profiling
};

/// Whole-episode totals from the engine and from the MetricsRegistry that
/// Cluster::publishStats fills.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;     // sharded engine only
  std::uint64_t crossShard = 0;  // sharded engine only
  std::uint64_t frags = 0;       // nic.frags_tx, all nodes
  std::uint64_t acks = 0;        // nic.acks_tx, all nodes
  std::uint64_t retransmits = 0; // nic.retransmits, all nodes
  std::uint64_t forwards = 0;    // fabric/packets_forwarded
};

struct EpisodeResult {
  std::uint64_t ops = 0;     // ops attempted in the timed phase
  std::uint64_t failed = 0;  // ops that failed or returned wrong data
  std::string error;         // first failure, for the log
  double setupSec = 0;       // Cluster construction up to the first timed op
  double timedSec = 0;       // first timed op to the last op's completion
  double userSec = 0;        // process CPU over the timed phase
  double sysSec = 0;
  std::int64_t ctxSwitches = 0;  // voluntary + involuntary, timed phase
  std::int64_t virtualNs = 0;    // the workload's virtual-time result
  Counters counters;
  double barrierWaitFrac = 0;  // traced sharded episodes only
  double loadImbalance = 1.0;  // sharded engine only
  double residentMb = 0;       // simulated host memory resident at the end
  std::vector<double> roundTripUs;  // traced: wall post-to-completion per op
};

enum class WorkloadId : std::uint8_t {
  PingPong64B,
  Stream64KFatTree,
  RpcIncastSharded,
};

struct Workload {
  WorkloadId id;
  std::string_view name;
  std::string_view op;  // what one op is
  unsigned shards;      // 0 = the serial engine
  Nesting nesting;      // how spans nest (see spans.hpp)
  std::uint64_t opsPerEpisode;
  std::string_view virtualLabel;  // what virtualFigure() reports
  std::int64_t pinnedVirtualNs;   // virtualNs of a full episode at kDefaultSeed
  EpisodeResult (*run)(const EpisodeSpec&);
};

std::span<const Workload> workloads();
const Workload* findWorkload(std::string_view name);

/// The virtual-time result in the paper's terms: one-way latency (us),
/// stream completion time (us) or mean call round trip (us).
double virtualFigure(const Workload& w, const EpisodeResult& r);

/// The correctness gate for one episode: NIC retransmits must be zero, and
/// at kDefaultSeed a full episode's virtual-time result must equal the
/// pinned value. A trip fails every op of the episode.
void applyGate(const Workload& w, const EpisodeSpec& spec, EpisodeResult& r);

}  // namespace perfbench
