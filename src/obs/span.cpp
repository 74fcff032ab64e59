#include "obs/span.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace vibe::obs {

const char* toString(Stage s) {
  switch (s) {
    case Stage::Post: return "post";
    case Stage::Doorbell: return "doorbell";
    case Stage::NicTx: return "nic_tx";
    case Stage::Wire: return "wire";
    case Stage::Rx: return "rx";
    case Stage::Reassembly: return "reassembly";
    case Stage::Completion: return "completion";
    case Stage::EndToEnd: return "end_to_end";
    case Stage::Reconnect: return "reconnect";
    case Stage::kCount: break;
  }
  return "?";
}

void SpanProfiler::emit(Stage stage, std::uint32_t node, std::uint32_t vi,
                        sim::SimTime begin, sim::SimTime end,
                        std::uint64_t bytes) {
  if (end < begin || stage >= Stage::kCount) {
    ++mismatches_;
    return;
  }
  byStage_[static_cast<std::size_t>(stage)].add(end - begin);
  ++totalSpans_;
  if (keepEvents_) {
    if (events_.size() < maxEvents_) {
      events_.push_back({stage, node, vi, begin, end, bytes});
    } else {
      ++eventsDropped_;
    }
  }
}

std::size_t SpanProfiler::messageCount() const {
  // The EndToEnd span is emitted once per delivered message; when it is
  // absent (e.g. only the send side was instrumented), fall back to the
  // busiest once-per-message stage so per-message division stays sane.
  const std::size_t e2e = stage(Stage::EndToEnd).count();
  if (e2e > 0) return e2e;
  std::size_t best = 0;
  for (std::size_t i = 0; i < byStage_.size(); ++i) {
    if (!isPipelineStage(static_cast<Stage>(i))) continue;
    best = std::max(best, byStage_[i].count());
  }
  return best;
}

double SpanProfiler::stageMeanSumUsec() const {
  // Per-message attribution: stages traversed multiple times per message
  // (Wire crosses link + switch + link; NicTx once per fragment) must
  // contribute their total, so divide each stage's time by the message
  // count, not its own span count.
  const std::size_t msgs = messageCount();
  if (msgs == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < byStage_.size(); ++i) {
    if (!isPipelineStage(static_cast<Stage>(i))) continue;
    sum += byStage_[i].sum() / static_cast<double>(msgs);
  }
  return sum / 1e3;
}

std::string SpanProfiler::renderAttribution() const {
  std::ostringstream os;
  os << "stage attribution (per message; where does a microsecond go)\n";
  os << "  " << std::left << std::setw(11) << "stage" << std::right
     << std::setw(9) << "spans" << std::setw(12) << "per_msg_us"
     << std::setw(12) << "span_p50_us" << std::setw(12) << "span_p99_us"
     << std::setw(9) << "share" << '\n';
  const double sumUs = stageMeanSumUsec();
  const std::size_t msgs = messageCount();
  for (std::size_t i = 0; i < byStage_.size(); ++i) {
    const auto stg = static_cast<Stage>(i);
    if (!isPipelineStage(stg)) continue;
    const Histogram& h = byStage_[i];
    const double perMsgUs =
        msgs ? h.sum() / static_cast<double>(msgs) / 1e3 : 0.0;
    os << "  " << std::left << std::setw(11) << toString(stg) << std::right
       << std::setw(9) << h.count() << std::fixed << std::setprecision(3)
       << std::setw(12) << perMsgUs << std::setw(12) << h.quantile(0.5) / 1e3
       << std::setw(12) << h.quantile(0.99) / 1e3 << std::setprecision(1)
       << std::setw(8) << (sumUs > 0.0 ? 100.0 * perMsgUs / sumUs : 0.0)
       << "%" << '\n';
  }
  os << std::fixed << std::setprecision(3);
  os << "  per-message stage sum: " << sumUs << " us\n";
  const Histogram& e2e = stage(Stage::EndToEnd);
  if (e2e.count() > 0) {
    os << "  end-to-end (post -> recv completion): mean " << e2e.mean() / 1e3
       << " us  p50 " << e2e.quantile(0.5) / 1e3 << " us  p99 "
       << e2e.quantile(0.99) / 1e3 << " us over " << e2e.count()
       << " messages\n";
  }
  if (mismatches_ > 0) os << "  (" << mismatches_ << " mismatched)\n";
  return os.str();
}

void SpanProfiler::mergeFrom(const SpanProfiler& other) {
  for (std::size_t i = 0; i < byStage_.size(); ++i) {
    byStage_[i].merge(other.byStage_[i]);
  }
  // Concatenate retained events up to this profiler's own cap; the shard's
  // recorded order is preserved, so merging shards in index order yields a
  // schedule-independent combined buffer.
  if (keepEvents_) {
    for (const SpanEvent& e : other.events_) {
      if (events_.size() < maxEvents_) {
        events_.push_back(e);
      } else {
        ++eventsDropped_;
      }
    }
  }
  totalSpans_ += other.totalSpans_;
  mismatches_ += other.mismatches_;
  eventsDropped_ += other.eventsDropped_;
}

void SpanProfiler::clear() {
  for (auto& h : byStage_) h.clear();
  events_.clear();
  totalSpans_ = 0;
  mismatches_ = 0;
  eventsDropped_ = 0;
}

}  // namespace vibe::obs
