#include "obs/timeseries.hpp"

#include <cstdio>
#include <sstream>

#include "obs/trace_export.hpp"

namespace vibe::obs {

void TimeSeriesSampler::setPeriod(sim::Duration periodNs) {
  if (periodNs <= 0) {
    throw sim::SimError("TimeSeriesSampler: period must be > 0 ns");
  }
  period_ = periodNs;
}

std::size_t TimeSeriesSampler::addProbe(std::string name, Probe probe) {
  if (!probe) throw sim::SimError("TimeSeriesSampler: null probe");
  if (!times_.empty()) {
    throw sim::SimError(
        "TimeSeriesSampler: register probes before the first window is "
        "captured (rows are rectangular)");
  }
  names_.push_back(std::move(name));
  probes_.push_back(std::move(probe));
  return names_.size() - 1;
}

void TimeSeriesSampler::flushUntil(sim::SimTime now) {
  if (period_ <= 0) return;
  if (nextDue_ == 0) nextDue_ = period_;
  while (nextDue_ <= now) {
    capture(nextDue_);
    nextDue_ += period_;
  }
}

void TimeSeriesSampler::capture(sim::SimTime at) {
  std::vector<double> row;
  row.reserve(probes_.size());
  for (Probe& p : probes_) row.push_back(p(at));
  if (times_.size() == maxWindows_) {
    times_.pop_front();
    rows_.pop_front();
    ++dropped_;
  }
  times_.push_back(at);
  rows_.push_back(std::move(row));
}

std::string TimeSeriesSampler::renderCsv() const {
  std::ostringstream os;
  os << "t_ns";
  for (const std::string& n : names_) os << ',' << n;
  os << '\n';
  char buf[32];
  for (std::size_t w = 0; w < times_.size(); ++w) {
    os << times_[w];
    for (const double v : rows_[w]) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os << ',' << buf;
    }
    os << '\n';
  }
  return os.str();
}

void TimeSeriesSampler::exportCounterTracks(TraceJsonExporter& exporter,
                                            std::uint32_t pid) const {
  for (std::size_t w = 0; w < times_.size(); ++w) {
    for (std::size_t s = 0; s < names_.size(); ++s) {
      exporter.counter(names_[s], times_[w], rows_[w][s], pid);
    }
  }
}

void TimeSeriesSampler::clear() {
  times_.clear();
  rows_.clear();
  dropped_ = 0;
}

void publishShardProfiles(MetricsRegistry& registry, std::string_view scope,
                          const std::vector<sim::ShardProfile>& profiles,
                          double loadImbalance) {
  for (const sim::ShardProfile& p : profiles) {
    const std::string base =
        scoped(scope, "shard" + std::to_string(p.shard));
    registry.counter(base + "/events").add(p.events);
    registry.counter(base + "/windows_active").add(p.windowsActive);
    registry.counter(base + "/exec_ns").add(p.execNs);
    registry.counter(base + "/barrier_wait_ns").add(p.barrierWaitNs);
    registry.counter(base + "/completion_ns").add(p.completionNs);
    registry.counter(base + "/cross_shard_sent").add(p.crossShardSent);
    registry.gauge(base + "/domains").set(static_cast<double>(p.domains));
  }
  registry.gauge(scoped(scope, "load_imbalance")).set(loadImbalance);
}

}  // namespace vibe::obs
