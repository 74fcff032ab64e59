// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, in its tail; below that it is noise from a handful of
/// outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median (mean of the middle pair for an even count); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank q-quantile (0 < q < 1): the k-th smallest sample with
/// k = ceil(q * n). Empty when fewer than kMinSamplesBeyond samples lie
/// beyond rank k in q's tail: above it (n - k) for q >= 0.5, below it
/// (k - 1) for q < 0.5.
std::optional<double> percentile(std::vector<double> values, double q);

}  // namespace perfbench
