#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

#include "obs/json.hpp"

namespace vibe::obs {

namespace {
constexpr std::uint64_t kSubCount = 1ull << Histogram::kSubBits;
}  // namespace

std::size_t Histogram::bucketIndex(std::uint64_t value) {
  value = std::min(value, kMaxValue);
  if (value < kSubCount) return static_cast<std::size_t>(value);
  const int octave = std::bit_width(value) - 1;  // >= kSubBits
  const std::uint64_t sub = (value >> (octave - kSubBits)) & (kSubCount - 1);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(octave - kSubBits + 1) << kSubBits) + sub);
}

void Histogram::bucketBounds(std::size_t index, std::uint64_t& lo,
                             std::uint64_t& hi) {
  if (index < kSubCount) {
    lo = hi = index;
    return;
  }
  const int octave =
      static_cast<int>(index >> kSubBits) + kSubBits - 1;
  const std::uint64_t sub = index & (kSubCount - 1);
  const std::uint64_t width = 1ull << (octave - kSubBits);
  lo = (1ull << octave) + sub * width;
  hi = lo + width - 1;
}

void Histogram::add(std::int64_t value) {
  const std::uint64_t v =
      value < 0 ? 0 : static_cast<std::uint64_t>(value);
  if (v > kMaxValue) ++overflow_;
  const std::size_t idx = bucketIndex(v);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += static_cast<double>(v);
}

double Histogram::quantileFromCounts(const std::vector<std::uint64_t>& counts,
                                     double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [0, total-1]; q=0 names the smallest sample, q=1 the largest.
  const double rank = q * static_cast<double>(total - 1);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double inBucket = static_cast<double>(counts[i]);
    if (rank < cumulative + inBucket) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      bucketBounds(i, lo, hi);
      const double frac = (rank - cumulative) / inBucket;
      return static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
    }
    cumulative += inBucket;
  }
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bucketBounds(counts.size() - 1, lo, hi);
  return static_cast<double>(hi);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  return std::clamp(quantileFromCounts(buckets_, q), static_cast<double>(min_),
                    static_cast<double>(max_));
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  overflow_ += other.overflow_;
}

std::uint64_t Histogram::countAbove(std::uint64_t threshold) const {
  std::uint64_t n = 0;
  for (std::size_t i = buckets_.size(); i-- > 0;) {
    if (buckets_[i] == 0) continue;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bucketBounds(i, lo, hi);
    if (lo <= threshold) break;  // buckets below are all <= threshold
    n += buckets_[i];
  }
  return n;
}

void Histogram::clear() {
  buckets_.clear();
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
  overflow_ = 0;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::mergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].set(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge(h);
  }
}

std::string MetricsRegistry::renderText() const {
  std::ostringstream os;
  std::size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_) {
    width = std::max(width, name.size());
  }
  const int w = static_cast<int>(width);
  for (const auto& [name, c] : counters_) {
    os << "  " << std::left << std::setw(w) << name << "  "
       << std::right << std::setw(12) << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << "  " << std::left << std::setw(w) << name << "  "
       << std::right << std::setw(12) << std::fixed << std::setprecision(3)
       << g.value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "  " << std::left << std::setw(w) << name << "  count="
       << h.count() << std::fixed << std::setprecision(3)
       << "  mean=" << h.mean() / 1e3 << "us  p50=" << h.quantile(0.5) / 1e3
       << "us  p99=" << h.quantile(0.99) / 1e3
       << "us  max=" << static_cast<double>(h.max()) / 1e3 << "us\n";
  }
  return os.str();
}

std::string renderMetricsJson(const MetricsRegistry& registry) {
  std::ostringstream os;
  os << "{\n  \"schema\": 2,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
       << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
       << "\": " << jsonNumber(g.value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
       << "\": {\"count\": " << h.count() << ", \"min\": " << h.min()
       << ", \"max\": " << h.max() << ", \"sum\": " << jsonNumber(h.sum())
       << ", \"mean\": " << jsonNumber(h.mean())
       << ", \"p50\": " << jsonNumber(h.quantile(0.5))
       << ", \"p99\": " << jsonNumber(h.quantile(0.99))
       << ", \"p999\": " << jsonNumber(h.quantile(0.999))
       << ", \"overflow\": " << h.overflowCount() << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace vibe::obs
