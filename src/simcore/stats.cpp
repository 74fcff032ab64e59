#include "simcore/stats.hpp"

#include <algorithm>

namespace vibe::sim {

QuantileTracker::QuantileTracker(std::size_t expected) {
  samples_.reserve(expected);
}

void QuantileTracker::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double QuantileTracker::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace vibe::sim
