// Metrics primitives for the observability layer.
//
// A MetricsRegistry is a named collection of counters, gauges, and
// log-bucketed latency histograms. Producers (NIC models, the cluster
// harness, benchmarks) publish into a registry that the consumer owns;
// nothing in the simulator allocates or records unless a registry was
// attached, so the data path stays byte-identical with observability off.
//
// Naming convention (see docs/OBSERVABILITY.md): lower_snake metric names,
// scoped by "/"-joined prefixes, coarsest first — "node0/nic.frags_tx",
// "node1/vi3/rtt_ns", "bench.pingpong/latency_ns". The registry itself
// treats names as opaque keys; scopes exist so renderText() groups related
// metrics and trajectory tooling can diff stable keys.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vibe::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram of non-negative integer samples (latencies in
/// nanoseconds by convention).
//
// Bucketing is HDR-style: values below 2^kSubBits get exact unit buckets;
// above that, each power-of-two octave is split into 2^kSubBits sub-buckets,
// so relative bucket error is bounded by 1/2^kSubBits (~12.5%) at any
// magnitude. Samples beyond kMaxValue land in a terminal overflow bucket
// (and are counted separately); quantiles clamp to the recorded min/max, so
// single-sample and extreme queries are exact.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr std::uint64_t kMaxValue = 1ull << 62;

  /// Records one sample; negative values clamp to zero.
  void add(std::int64_t value);

  std::size_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Samples that exceeded kMaxValue and were clamped into the overflow
  /// bucket (still included in count/sum/max).
  std::uint64_t overflowCount() const { return overflow_; }

  /// q in [0,1]; interpolates inside the covering bucket and clamps to the
  /// recorded [min, max]. Returns 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// The same bucket walk over raw bucket counts, without the clamp (a
  /// count vector keeps no min/max): SloMonitor windows and offline
  /// recomputation in tests use it. Returns 0 when every count is 0.
  static double quantileFromCounts(const std::vector<std::uint64_t>& counts,
                                   double q);

  /// Merges another histogram into this one.
  void merge(const Histogram& other);

  void clear();

  /// Samples strictly greater than `threshold`, at bucket resolution:
  /// counts every bucket whose lower bound exceeds the threshold, plus an
  /// interpolation-free inclusion of the covering bucket when the
  /// threshold sits below its upper bound is deliberately avoided — the
  /// answer is exact whenever `threshold` is a bucket boundary and within
  /// one bucket otherwise. The SLO monitor's burn rate is built on this.
  std::uint64_t countAbove(std::uint64_t threshold) const;

  /// Raw bucket counts, index-aligned with bucketBounds(). The vector is
  /// only as long as the highest occupied bucket. Exposed so rolling-
  /// window consumers (SloMonitor) can diff successive snapshots.
  const std::vector<std::uint64_t>& bucketCounts() const { return buckets_; }

  /// Bucket index for a value (exposed for tests).
  static std::size_t bucketIndex(std::uint64_t value);
  /// Inclusive [lo, hi] value range of a bucket (exposed for tests).
  static void bucketBounds(std::size_t index, std::uint64_t& lo,
                           std::uint64_t& hi);

 private:
  std::vector<std::uint64_t> buckets_;  // grown lazily to the highest index
  std::size_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
  std::uint64_t overflow_ = 0;
};

/// Named metrics, created on first use. Iteration is name-ordered, so
/// rendered output and JSON emission are deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// Merges another registry into this one: counters add, histograms
  /// merge bucket-wise, gauges take the other's value (last write wins,
  /// so merging shard registries in shard order reproduces the serial
  /// write order). The sweep harness merges per-shard registries through
  /// this after a parallel run; shard registries must no longer be
  /// written when called.
  void mergeFrom(const MetricsRegistry& other);

  /// Aligned text dump: counters, then gauges, then histograms with
  /// count/mean/p50/p99/max columns (nanosecond samples shown in usec).
  std::string renderText() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Renders a registry as the schema-2 JSON the bench trajectory tooling
/// consumes: {"schema":2,"counters":{...},"gauges":{...},"histograms":
/// {name:{count,min,max,sum,mean,p50,p99,p999}}}. Names are escaped;
/// iteration is name-ordered, so output is deterministic. Used by
/// VIBE_METRICS_OUT (see bench_common.hpp and docs/OBSERVABILITY.md).
std::string renderMetricsJson(const MetricsRegistry& registry);

/// Joins scope and name with the conventional "/" separator.
inline std::string scoped(std::string_view scope, std::string_view name) {
  std::string out;
  out.reserve(scope.size() + 1 + name.size());
  out.append(scope);
  out.push_back('/');
  out.append(name);
  return out;
}

}  // namespace vibe::obs
