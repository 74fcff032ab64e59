#include "obs/slo.hpp"

#include <algorithm>

#include "obs/timeseries.hpp"

namespace vibe::obs {

void SloMonitor::setTarget(double fraction) {
  if (!(fraction > 0.0) || !(fraction < 1.0)) {
    throw sim::SimError("SloMonitor: target must be in (0, 1)");
  }
  target_ = fraction;
}

double SloMonitor::quantileFromCounts(
    const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double inBucket = static_cast<double>(counts[i]);
    if (rank < cumulative + inBucket) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      Histogram::bucketBounds(i, lo, hi);
      const double frac = (rank - cumulative) / inBucket;
      return static_cast<double>(lo) +
             frac * static_cast<double>(hi - lo);
    }
    cumulative += inBucket;
  }
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  Histogram::bucketBounds(counts.size() - 1, lo, hi);
  return static_cast<double>(hi);
}

void SloMonitor::bindTo(TimeSeriesSampler& sampler) {
  // Probes run in registration order, so the first series computes the
  // window for this boundary and the rest read it — row and window stay
  // aligned at the same timestamp.
  if (!probeOwner_) probeOwner_ = std::make_shared<char>();
  sampler.addProbe(name_ + "/p50_ns", [this](sim::SimTime t) {
    sample(t);
    return windows_.back().p50;
  }, probeOwner_);
  sampler.addProbe(name_ + "/p99_ns", [this](sim::SimTime) {
    return windows_.empty() ? 0.0 : windows_.back().p99;
  }, probeOwner_);
  sampler.addProbe(name_ + "/p999_ns", [this](sim::SimTime) {
    return windows_.empty() ? 0.0 : windows_.back().p999;
  }, probeOwner_);
  sampler.addProbe(name_ + "/p9999_ns", [this](sim::SimTime) {
    return windows_.empty() ? 0.0 : windows_.back().p9999;
  }, probeOwner_);
  sampler.addProbe(name_ + "/burn_rate", [this](sim::SimTime) {
    return windows_.empty() ? 0.0 : windows_.back().burnRate;
  }, probeOwner_);
}

void SloMonitor::sample(sim::SimTime t) {
  const std::vector<std::uint64_t>& cur = source_->bucketCounts();
  std::vector<std::uint64_t> delta(cur.size(), 0);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint64_t prev = i < prevBuckets_.size() ? prevBuckets_[i] : 0;
    delta[i] = cur[i] - prev;
  }
  prevBuckets_ = cur;

  Window w;
  w.t = t;
  for (const std::uint64_t c : delta) w.count += c;
  if (w.count > 0) {
    w.p50 = quantileFromCounts(delta, 0.5);
    w.p99 = quantileFromCounts(delta, 0.99);
    w.p999 = quantileFromCounts(delta, 0.999);
    w.p9999 = quantileFromCounts(delta, 0.9999);
  }
  const std::uint64_t above = source_->countAbove(thresholdNs_);
  w.overThreshold = above - prevAbove_;
  prevAbove_ = above;
  if (w.count > 0 && thresholdNs_ > 0) {
    const double errFrac = static_cast<double>(w.overThreshold) /
                           static_cast<double>(w.count);
    w.burnRate = errFrac / (1.0 - target_);
  }

  if (thresholdNs_ > 0 && w.count > 0) {
    const bool nowOver = w.p99 > static_cast<double>(thresholdNs_);
    if (nowOver != over_) {
      ++crossings_;
      over_ = nowOver;
      sim::trace(tracer_, t, sim::TraceCategory::User, component_, [&] {
        return "slo " + name_ + (nowOver ? " breach" : " recover") +
               " p99_ns=" + std::to_string(w.p99) +
               " threshold_ns=" + std::to_string(thresholdNs_);
      });
    }
  }

  if (windows_.size() == maxWindows_) windows_.pop_front();
  windows_.push_back(w);
}

}  // namespace vibe::obs
