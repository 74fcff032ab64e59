// Exact sample quantiles for the micro-benchmarks' per-iteration numbers.
#pragma once

#include <cstddef>
#include <vector>

namespace vibe::sim {

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
