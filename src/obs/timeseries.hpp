// Time-series telemetry: metric-over-sim-time sampling.
//
// A TimeSeriesSampler snapshots a set of registered probes (counters,
// gauges, histogram quantiles, arbitrary callables) at a fixed virtual-
// time cadence into bounded ring buffers. It drives itself through the
// engine's TimeObserver hook: whenever virtual time crosses a window
// boundary the sampler captures one row stamped at exactly that
// boundary — the simulation state at the stamp is "every event strictly
// before the boundary has executed", which is a property of the event
// timeline, not of the host schedule, so the captured series is byte-
// identical across VIBE_JOBS and (for serial-engine workloads)
// VIBE_SIM_SHARDS.
//
// Like every obs attachment the sampler is null-by-default: nothing in
// the simulator references one unless it was attached, and a detached
// engine pays one pointer test per event (proven by golden-table
// byte-identity). Export paths: renderCsv() for plotting/diffing, and
// exportCounterTracks() merging ph:"C" counter tracks into the
// VIBE_TRACE_OUT Perfetto stream (see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"

namespace vibe::obs {

class TraceJsonExporter;

class TimeSeriesSampler : public sim::TimeObserver {
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

  /// Sampling cadence in virtual nanoseconds; must be > 0 before attach.
  void setPeriod(sim::Duration periodNs);
  sim::Duration period() const { return period_; }

  /// Registers a probe; returns its series index. Register all probes
  /// before the first window is captured — rows are rectangular.
  std::size_t addProbe(std::string name, Probe probe);
  /// Convenience registrations over the metrics primitives. The referred
  /// objects must outlive the sampler's use.
  std::size_t addCounter(std::string name, const Counter& c);
  std::size_t addGauge(std::string name, const Gauge& g);
  std::size_t addHistogramQuantile(std::string name, const Histogram& h,
                                   double q);

  /// Runs after each captured window (same boundary timestamp). The SLO
  /// monitor binds through this to compute its rolling-window stats in
  /// lockstep with the sampler cadence.
  void addWindowHook(std::function<void(sim::SimTime)> hook);

  /// Starts observing `engine`: the next boundary is the first multiple
  /// of the period strictly after engine.now(). detach() (or the
  /// sampler's destruction — caller's responsibility) must happen before
  /// the engine outlives it.
  void attach(sim::Engine& engine);
  void detach();

  /// TimeObserver: captures every boundary in (prev, now].
  void onTimeAdvance(sim::SimTime now) override;

  /// Captures any remaining boundaries <= `now`; call after a run drains
  /// so the tail of the timeline is not lost. Idempotent per boundary.
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
  sim::Engine* engine_ = nullptr;
  std::vector<std::string> names_;
  std::vector<Probe> probes_;
  std::vector<std::function<void(sim::SimTime)>> hooks_;
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
