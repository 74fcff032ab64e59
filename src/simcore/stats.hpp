// Streaming statistics used by micro-benchmarks and device models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vibe::sim {

/// Welford-style streaming accumulator: count / min / max / mean / stddev.
/// Numerically stable for the long sample streams the bandwidth tests emit.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  /// Merges another accumulator into this one (parallel-combine form).
  void merge(const Accumulator& other);

 private:
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Reservoir of samples with exact quantiles. Micro-benchmark iteration
/// counts are bounded (<= a few hundred thousand), so storing samples and
/// sorting on demand is simpler and exact compared to a sketch.
class QuantileTracker {
 public:
  explicit QuantileTracker(std::size_t expected = 0);

  void add(double x);
  std::size_t count() const { return samples_.size(); }

  /// Exact q-quantile (q in [0,1]) by linear interpolation; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace vibe::sim
