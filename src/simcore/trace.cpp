#include "simcore/trace.hpp"

#include <iomanip>
#include <sstream>

namespace vibe::sim {

const char* toString(TraceCategory c) {
  switch (c) {
    case TraceCategory::Engine: return "engine";
    case TraceCategory::Process: return "process";
    case TraceCategory::Doorbell: return "doorbell";
    case TraceCategory::Dma: return "dma";
    case TraceCategory::Wire: return "wire";
    case TraceCategory::Rx: return "rx";
    case TraceCategory::Completion: return "completion";
    case TraceCategory::Reliability: return "reliability";
    case TraceCategory::Connection: return "connection";
    case TraceCategory::Translation: return "translation";
    case TraceCategory::Session: return "session";
    case TraceCategory::User: return "user";
    case TraceCategory::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void Tracer::enableAll() {
  for (auto& e : enabled_) e = true;
}

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
inline std::uint64_t fnv1aValue(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof(v));
}
}  // namespace

void Tracer::record(SimTime time, TraceCategory c, std::uint32_t component,
                    std::string message) {
  if (!enabled(c)) return;
  ++total_;
  digest_ = fnv1aValue(digest_, time);
  digest_ = fnv1aValue(digest_, static_cast<std::uint8_t>(c));
  digest_ = fnv1aValue(digest_, component);
  digest_ = fnv1a(digest_, message.data(), message.size());
  digest_ = fnv1aValue(digest_, static_cast<std::uint32_t>(message.size()));
  TraceRecord rec{time, c, component, std::move(message)};
  if (sink_) sink_(rec);
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[next_] = std::move(rec);
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring full: oldest record is at next_.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

std::string Tracer::dump() const {
  std::ostringstream os;
  for (const TraceRecord& r : snapshot()) {
    os << std::fixed << std::setprecision(3) << std::setw(12)
       << toUsec(r.time) << "us  [" << std::setw(11) << toString(r.category)
       << "] n" << r.component << "  " << r.message << '\n';
  }
  return os.str();
}

void Tracer::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
  digest_ = 0xcbf29ce484222325ull;
}

}  // namespace vibe::sim
