#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// ceil(q * n) with a guard against q * n landing a hair above an integer.
std::size_t nearestRank(double q, std::size_t n) {
  const double x = q * static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(x - 1e-9 * std::max(1.0, x)));
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  const std::size_t k = std::max<std::size_t>(1, nearestRank(q, n));
  if (n == 0 || k > n) return std::nullopt;
  const std::size_t beyond = q >= 0.5 ? n - k : k - 1;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  return values[k - 1];
}

}  // namespace perfbench
