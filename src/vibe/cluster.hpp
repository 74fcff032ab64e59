// Cluster: a ready-to-use simulated testbed — engine + SAN fabric + one
// VIA provider stack per host — assembled from a NicProfile. Micro-
// benchmarks run node programs (lambdas) as cooperative processes on it.
//
// Every Cluster runs on a sim::ShardedEngine. With simShards == 0 the
// whole stack sits in one domain, run in one window to the drain; with
// simShards >= 1 each switch is a domain (see ClusterConfig::simShards).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fabric/topology.hpp"
#include "nic/profile.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/process.hpp"
#include "simcore/trace.hpp"
#include "vipl/provider.hpp"

namespace vibe::obs {
class MetricsRegistry;
class SpanProfiler;
class TimeSeriesSampler;
}

namespace vibe::suite {

struct ClusterConfig {
  nic::NicProfile profile;
  std::uint32_t nodes = 2;
  std::uint64_t seed = 42;
  double lossRate = 0.0;  // injected Bernoulli frame loss on every link

  // Two-level topology (0 = the paper's single switch): hosts per leaf
  // switch, with leaf<->root trunks of `trunkMBps` (0 = same as the link).
  std::uint32_t nodesPerSwitch = 0;
  double trunkMBps = 0.0;

  // k-ary fat-tree fabric (0 = star/tree above; takes precedence over
  // nodesPerSwitch). k must be even; nodes <= k^3/4. Inter-switch links
  // use trunkMBps when set, the host-link rate otherwise.
  std::uint32_t fatTreeK = 0;
  // Finite per-port switch output buffers, in frames (0 = unbounded).
  std::uint32_t switchBufferFrames = 0;

  // Conservative-PDES sharding. 0 = the whole stack in one domain of the
  // ShardedEngine, run on the calling thread (the serial schedule).
  // >= 1 = one PDES domain per switch, each node's NIC + host program
  // placed in its edge switch's domain, cross-domain frames paying the
  // fabric hop lookahead, with this many worker shards (clamped to the
  // domain count; 1 runs the same window loop inline). Per-domain event
  // schedules, and therefore every stat, digest, and table, are
  // byte-identical at any value >= 1; benches resolve VIBE_SIM_SHARDS
  // into this field.
  std::uint32_t simShards = 0;

  // Observability attachments (all optional; null = zero-cost disabled).
  // The only way to attach them: the Cluster constructor wires each one
  // through the stack, and runners that build their own Cluster (e.g.
  // runPingPong) take them the same way. Each must outlive the Cluster.
  //
  // tracer: every node's NIC device records into it. With one domain
  // the devices record straight into it, in execution order; with more,
  // per-node shadows are replayed into it after run() in (time, node,
  // record) order, the same at any shard count.
  sim::Tracer* tracer = nullptr;
  // spans: Post spans from every provider, Doorbell/NicTx/Rx/Reassembly/
  // Completion/EndToEnd from every NIC device, Wire from the fabric. With
  // more than one domain the emits go to per-domain shadows, merged in
  // domain order after run().
  obs::SpanProfiler* spans = nullptr;
  // metrics: run() publishes per-node NIC and fabric counters into it
  // (delta-based, so repeated run() calls and several clusters sharing
  // one registry accumulate correctly).
  obs::MetricsRegistry* metrics = nullptr;
  // sampler: the Cluster registers aggregate queue-depth probes (NIC
  // tx/rx backlog, CQ depth, link + switch occupancy) and the engine's
  // boundary hook fills the sampler at its period() during run(). The
  // sampler's period must be set (> 0; the constructor throws SimError
  // otherwise). Null = no probes registered, no hook set, zero cost.
  obs::TimeSeriesSampler* sampler = nullptr;
};

/// Per-node view handed to a node program.
struct NodeEnv {
  std::uint32_t nodeId;
  vipl::Provider& nic;
  sim::Process& self;
  sim::Engine& engine;

  sim::SimTime now() const { return engine.now(); }
  sim::Duration cpuBusy() const { return self.cpuBusy(); }
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();  // out-of-line: shadow profilers are forward-declared here

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The engine the cluster runs on: one domain when simShards == 0,
  /// one per switch otherwise.
  sim::ShardedEngine& shardedEngine() { return *pdes_; }
  /// The engine node `i`'s NIC, programs, and timers run on: its edge
  /// switch's domain engine (domain 0's with one domain).
  sim::Engine& nodeEngine(std::uint32_t i);
  /// Virtual time of the cluster: the max over domain clocks.
  sim::SimTime now() const { return pdes_->maxNow(); }
  fabric::Topology& topology() { return *topo_; }
  vipl::Provider& node(std::uint32_t i) { return *providers_.at(i); }
  std::uint32_t nodeCount() const { return config_.nodes; }
  const ClusterConfig& config() const { return config_; }

  /// The config's tracer (null when none): fault::FaultInjector::arm
  /// records its fault marks into it.
  sim::Tracer* tracer() const { return config_.tracer; }

  /// Publishes NIC/fabric counter deltas since the last publish into the
  /// config's registry (no-op when none is attached). Called at the end
  /// of run(); exposed for programs that inspect metrics mid-simulation.
  void publishStats();

  /// Runs one program per entry (program i on node i) to completion.
  /// Throws if the simulation deadlocks or a program throws.
  void run(std::vector<std::function<void(NodeEnv&)>> programs);

 private:
  /// Wire the config's attachments through the stack (constructor only).
  void attachTracer();
  void attachSpans();
  void attachSampler();
  /// Replays the per-node shadow trace streams into the user tracer in
  /// (time, node, record) order — an interleaving that is a function of
  /// the simulation alone, so it is identical at any shard count.
  void replayShadowTraces();
  /// Folds the per-domain shadow span profilers into the user profiler
  /// in domain order, then clears them for the next run.
  void mergeShadowSpans();

  ClusterConfig config_;
  std::unique_ptr<sim::ShardedEngine> pdes_;
  std::shared_ptr<vipl::NameService> ns_;
  std::unique_ptr<fabric::Topology> topo_;
  std::vector<std::unique_ptr<vipl::Provider>> providers_;
  // Observability shadows for more than one domain: every tracer/span
  // emit must stay domain-local during a window, so devices write into
  // per-node tracers and per-domain span profilers, merged
  // deterministically after run().
  std::vector<std::unique_ptr<sim::Tracer>> shadowTracers_;
  std::vector<std::vector<sim::TraceRecord>> shadowTraceLogs_;
  std::vector<std::unique_ptr<obs::SpanProfiler>> shadowSpans_;
  // Counter snapshots from the last publishStats() (delta publishing).
  std::vector<nic::NicStats> lastPublished_;
  std::uint64_t lastFramesDropped_ = 0;
  std::uint64_t lastFramesCorrupted_ = 0;
  std::uint64_t lastForwarded_ = 0;
  std::uint64_t lastSwitchDrops_ = 0;
};

}  // namespace vibe::suite
