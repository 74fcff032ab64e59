#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

struct Timeline {
  std::uint32_t index = 0;
  std::vector<Span> spans;
};

std::atomic<bool> gRecording{false};
std::mutex gTimelinesMutex;
std::vector<std::unique_ptr<Timeline>> gTimelines;  // guarded by the mutex
thread_local Timeline* tlTimeline = nullptr;

Timeline& threadTimeline() {
  if (tlTimeline == nullptr) {
    std::lock_guard<std::mutex> lock(gTimelinesMutex);
    auto t = std::make_unique<Timeline>();
    t->index = static_cast<std::uint32_t>(gTimelines.size());
    tlTimeline = t.get();
    gTimelines.push_back(std::move(t));
  }
  return *tlTimeline;
}

}  // namespace

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::ClusterBuild: return "vibe.cluster_build";
    case SpanKind::Register: return "mem.register";
    case SpanKind::Connect: return "vipl.connect";
    case SpanKind::Accept: return "rpc.accept";
    case SpanKind::Post: return "vipl.post";
    case SpanKind::Reap: return "vipl.reap";
    case SpanKind::Call: return "rpc.call";
  }
  return "?";
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void setSpanRecording(bool on) {
  gRecording.store(on, std::memory_order_relaxed);
}

bool spanRecording() { return gRecording.load(std::memory_order_relaxed); }

void recordSpan(SpanKind kind, std::uint64_t op, std::int64_t start,
                std::int64_t end) {
  Timeline& t = threadTimeline();
  t.spans.push_back(Span{kind, t.index, op, start, end, -1});
}

std::vector<Span> collectSpans() {
  std::lock_guard<std::mutex> lock(gTimelinesMutex);
  std::vector<Span> out;
  for (auto& t : gTimelines) {
    out.insert(out.end(), t->spans.begin(), t->spans.end());
    t->spans.clear();
  }
  return out;
}

void assignParents(std::vector<Span>& spans, Nesting nesting) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tuple(a.start, -a.end, a.thread) <
           std::tuple(b.start, -b.end, b.thread);
  });
  std::vector<std::int32_t> open;  // spans not yet ended, in start order
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    std::erase_if(open, [&](std::int32_t j) { return spans[j].end <= s.start; });
    s.parent = -1;
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (nesting == Nesting::Global || spans[*it].thread == s.thread) {
        s.parent = *it;
        break;
      }
    }
    open.push_back(static_cast<std::int32_t>(i));
  }
}

std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  // Children of each span, clipped to the parent's interval. Spans are in
  // start order, so each list is too and merging is one pass.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& c : spans) {
    if (c.parent < 0) continue;
    const Span& p = spans[c.parent];
    const std::int64_t lo = std::max(c.start, p.start);
    const std::int64_t hi = std::min(c.end, p.end);
    if (hi > lo) covered[c.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t busy = 0;
    std::int64_t reach = spans[i].start;  // union covered up to here
    for (const auto& [lo, hi] : covered[i]) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end - spans[i].start) - busy;
  }
  return self;
}

}  // namespace perfbench
