// Time-series telemetry: metric-over-sim-time sampling.
//
// A TimeSeriesSampler snapshots a set of registered probes (arbitrary
// callables over simulation state) at a fixed virtual-time cadence into a
// bounded ring that flushUntil(t) fills: every whole period boundary <= t
// not yet captured becomes one row stamped at exactly that boundary. A
// Cluster calls flushUntil from its ShardedEngine's boundary hook, which
// clamps every PDES window to the sample grid and runs in the
// single-threaded completion step, so the state a row sees is "every
// event strictly before the boundary has executed". That is a property
// of the event timeline, not of the host schedule, so the captured series
// is byte-identical across VIBE_JOBS and VIBE_SIM_SHARDS.
//
// Like every obs attachment the sampler is null-by-default: nothing in
// the simulator references one unless a ClusterConfig carries it, and a
// cluster without one sets no boundary hook (proven by golden-table
// byte-identity). Export paths: renderCsv() for plotting/diffing, and
// exportCounterTracks() merging ph:"C" counter tracks into the
// VIBE_TRACE_OUT Perfetto stream (see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/pdes.hpp"

namespace vibe::obs {

class TraceJsonExporter;

class TimeSeriesSampler {
 public:
  /// A probe reads one value at a window boundary. `at` is the boundary
  /// timestamp; probes must only read simulation state, never mutate it
  /// or post events.
  using Probe = std::function<double(sim::SimTime at)>;

  /// `maxWindows` bounds the ring: when full, the oldest window is
  /// dropped (droppedWindows() counts them) so a long soak cannot grow
  /// without bound.
  explicit TimeSeriesSampler(std::size_t maxWindows = 4096)
      : maxWindows_(maxWindows == 0 ? 1 : maxWindows) {}

  /// Sampling cadence in virtual nanoseconds; must be > 0 before a
  /// Cluster takes the sampler from its config.
  void setPeriod(sim::Duration periodNs);
  sim::Duration period() const { return period_; }

  /// Registers a probe; returns its series index. Register all probes
  /// before the first window is captured — rows are rectangular.
  std::size_t addProbe(std::string name, Probe probe);

  /// Registers a probe that reads an object which may die before the
  /// sampler (a Cluster, an SloMonitor): `owner` is a token the object
  /// holds. Once the token is gone no flush calls the probe, and its
  /// series reads NaN. Throws SimError if a series of this name exists
  /// already, as it does when another such object bound the sampler.
  std::size_t addProbe(std::string name, Probe probe,
                       std::weak_ptr<const void> owner);

  /// Captures every boundary <= `now` not yet captured, starting at the
  /// first period. Idempotent per boundary.
  void flushUntil(sim::SimTime now);

  /// --- captured data ---
  std::size_t seriesCount() const { return names_.size(); }
  const std::string& seriesName(std::size_t i) const { return names_[i]; }
  std::size_t windowCount() const { return times_.size(); }
  std::uint64_t droppedWindows() const { return dropped_; }
  sim::SimTime windowTime(std::size_t w) const { return times_[w]; }
  double value(std::size_t w, std::size_t series) const {
    return rows_[w][series];
  }

  /// "t_ns,<name>,<name>,...\n" header plus one row per window. Values
  /// render with %.17g so the CSV is a byte-exact determinism witness.
  std::string renderCsv() const;

  /// Emits every window of every series as ph:"C" counter-track samples.
  void exportCounterTracks(TraceJsonExporter& exporter,
                           std::uint32_t pid = 0) const;

  void clear();

 private:
  void capture(sim::SimTime at);

  std::size_t maxWindows_;
  sim::Duration period_ = 0;
  sim::SimTime nextDue_ = 0;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::deque<sim::SimTime> times_;
  std::deque<std::vector<double>> rows_;
  std::uint64_t dropped_ = 0;
};

/// Publishes a PDES shard-profile snapshot into a metrics registry under
/// `scope` (e.g. "pdes"): per-shard counters for events, windows-active,
/// exec/parked/completion wall nanoseconds (`barrier_wait_ns` is the
/// parked time), and cross-shard sends, plus the
/// engine-wide load-imbalance gauge. Wall-clock values are inherently
/// non-deterministic — callers keep them out of golden output.
void publishShardProfiles(MetricsRegistry& registry, std::string_view scope,
                          const std::vector<sim::ShardProfile>& profiles,
                          double loadImbalance);

}  // namespace vibe::obs
