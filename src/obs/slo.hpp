// SLO monitoring over rolling latency windows.
//
// An SloMonitor watches one cumulative latency Histogram and, sampled at
// the TimeSeriesSampler cadence (or manually), computes per-window
// statistics from the delta of the histogram's bucket counts since the
// previous window: p50/p99/p99.9 at bucket resolution, the fraction of
// samples over the SLO threshold, and the burn rate — how fast the error
// budget (1 - target) is being consumed; burn 1.0 means "exactly on
// budget", >1 means the budget depletes early. Threshold crossings of
// the windowed p99 emit TraceCategory::User records into an attached
// Tracer, so a flight-recorder dump shows when the SLO went red.
//
// Because windows are diffed from the same log-bucketed histogram the
// offline tooling reads, a window's quantiles match an offline
// recomputation from the exact window samples to within one log-bucket —
// pinned by test (tests/test_obs.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/trace.hpp"

namespace vibe::obs {

class TimeSeriesSampler;

class SloMonitor {
 public:
  struct Window {
    sim::SimTime t = 0;             // boundary timestamp (window end)
    std::uint64_t count = 0;        // samples recorded in the window
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double p9999 = 0.0;
    std::uint64_t overThreshold = 0;
    double burnRate = 0.0;          // (over/count) / (1 - target)
  };

  /// Watches `source`; the histogram must outlive the monitor's use.
  /// `maxWindows` bounds the retained window history (drop-oldest).
  SloMonitor(std::string name, const Histogram& source,
             std::size_t maxWindows = 4096)
      : name_(std::move(name)),
        source_(&source),
        maxWindows_(maxWindows == 0 ? 1 : maxWindows) {}
  // Bound probes capture `this`: a copy would not own them.
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  const std::string& name() const { return name_; }

  /// SLO: `target` fraction of samples (default 0.99) must land at or
  /// under `thresholdNs`. The threshold also drives p99 crossing events.
  void setThresholdNs(std::uint64_t ns) { thresholdNs_ = ns; }
  void setTarget(double fraction);
  std::uint64_t thresholdNs() const { return thresholdNs_; }
  double target() const { return target_; }

  /// Crossing events (windowed p99 rising above / falling back under the
  /// threshold) are recorded as TraceCategory::User with `component`.
  void setTracer(sim::Tracer* tracer, std::uint32_t component = 0) {
    tracer_ = tracer;
    component_ = component;
  }

  /// Registers five probes on the sampler: <name>/p50_ns (which calls
  /// sample() for the boundary), then p99_ns, p999_ns, p9999_ns and
  /// burn_rate reading that window, so the monitor runs in lockstep with
  /// the sampler cadence and its stats land in the same CSV / counter
  /// tracks. The probes run only while this monitor lives (later flushes
  /// read NaN for them). Throws SimError when a monitor of the same name,
  /// this one included, is bound to the sampler already.
  void bindTo(TimeSeriesSampler& sampler);

  /// Computes one window from the histogram delta since the last call.
  void sample(sim::SimTime t);

  const std::deque<Window>& windows() const { return windows_; }
  const Window& lastWindow() const { return windows_.back(); }
  /// Total threshold crossings (each direction counts one).
  std::uint64_t crossingCount() const { return crossings_; }
  /// True while the most recent window's p99 exceeds the threshold.
  bool breached() const { return over_; }

 private:
  std::string name_;
  const Histogram* source_;
  std::size_t maxWindows_;
  std::uint64_t thresholdNs_ = 0;
  double target_ = 0.99;
  sim::Tracer* tracer_ = nullptr;
  std::uint32_t component_ = 0;
  std::vector<std::uint64_t> prevBuckets_;
  std::uint64_t prevAbove_ = 0;
  std::deque<Window> windows_;
  std::uint64_t crossings_ = 0;
  bool over_ = false;
  std::shared_ptr<const void> probeOwner_;  // alive as long as this monitor
};

}  // namespace vibe::obs
