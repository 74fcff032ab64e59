// Tests of the benchmark's own arithmetic: span parents and self time,
// the percentile sample rule, and the correctness gate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Span span(SpanKind kind, std::uint32_t thread, std::int64_t start,
          std::int64_t end) {
  return Span{kind, thread, 1, start, end, -1};
}

/// Self time of the span with the given (thread, start).
std::int64_t selfOf(const std::vector<Span>& spans,
                    const std::vector<std::int64_t>& self,
                    std::uint32_t thread, std::int64_t start) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].thread == thread && spans[i].start == start) return self[i];
  }
  ADD_FAILURE() << "no span on thread " << thread << " at " << start;
  return -1;
}

const Span& at(const std::vector<Span>& spans, std::uint32_t thread,
               std::int64_t start) {
  for (const Span& s : spans) {
    if (s.thread == thread && s.start == start) return s;
  }
  throw std::logic_error("no such span");
}

TEST(SpanSelfTime, NestedSpansOnOneThread) {
  // call [0,100) holds post [10,30) and reap [40,90); the reap holds a
  // post [50,60).
  std::vector<Span> spans = {
      span(SpanKind::Reap, 0, 40, 90), span(SpanKind::Call, 0, 0, 100),
      span(SpanKind::Post, 0, 50, 60), span(SpanKind::Post, 0, 10, 30)};
  assignParents(spans, Nesting::PerThread);
  const auto self = selfTimes(spans);
  EXPECT_EQ(selfOf(spans, self, 0, 0), 100 - 20 - 50);
  EXPECT_EQ(selfOf(spans, self, 0, 10), 20);
  EXPECT_EQ(selfOf(spans, self, 0, 40), 50 - 10);
  EXPECT_EQ(selfOf(spans, self, 0, 50), 10);
  EXPECT_EQ(at(spans, 0, 0).parent, -1);
  EXPECT_EQ(spans[at(spans, 0, 50).parent].start, 40);
}

TEST(SpanSelfTime, ParkedReapContainsThePeersSpans) {
  // Serial engine, two programs. The server (thread 1) parks in a reap at
  // 0; the client (thread 0) posts, then parks in its own reap at 25. The
  // server wakes at 50, echoes (post, reap) and parks again at 70; the
  // client wakes at 100.
  std::vector<Span> spans = {
      span(SpanKind::Reap, 1, 0, 50),   span(SpanKind::Post, 0, 10, 20),
      span(SpanKind::Reap, 0, 25, 100), span(SpanKind::Post, 1, 55, 60),
      span(SpanKind::Reap, 1, 62, 68),  span(SpanKind::Reap, 1, 70, 130)};
  assignParents(spans, Nesting::Global);
  const auto self = selfTimes(spans);
  // The peer's spans are children of whichever reap was parked when they
  // started, so each wall-clock ns is self time of exactly one span.
  EXPECT_EQ(spans[at(spans, 0, 10).parent].start, 0);
  EXPECT_EQ(spans[at(spans, 0, 25).parent].start, 0);
  EXPECT_EQ(spans[at(spans, 1, 55).parent].start, 25);
  EXPECT_EQ(spans[at(spans, 1, 70).parent].start, 25);
  EXPECT_EQ(selfOf(spans, self, 1, 0), 50 - 10 - 25);  // child clipped at 50
  EXPECT_EQ(selfOf(spans, self, 0, 25), 75 - 5 - 6 - 30);
  EXPECT_EQ(selfOf(spans, self, 1, 70), 60);
  std::int64_t total = 0;
  for (std::int64_t s : self) total += s;
  EXPECT_EQ(total, 130);
}

TEST(SpanSelfTime, ShardedProgramsKeepPerThreadTimelines) {
  // Two rpc clients on different shards run at once; neither's call may
  // be charged to the other.
  std::vector<Span> spans = {
      span(SpanKind::Call, 0, 0, 100), span(SpanKind::Call, 1, 10, 50),
      span(SpanKind::Reap, 1, 20, 40), span(SpanKind::Call, 2, 30, 130)};
  assignParents(spans, Nesting::PerThread);
  const auto self = selfTimes(spans);
  EXPECT_EQ(at(spans, 1, 10).parent, -1);
  EXPECT_EQ(at(spans, 2, 30).parent, -1);
  EXPECT_EQ(spans[at(spans, 1, 20).parent].thread, 1u);
  EXPECT_EQ(selfOf(spans, self, 0, 0), 100);
  EXPECT_EQ(selfOf(spans, self, 1, 10), 40 - 20);
  EXPECT_EQ(selfOf(spans, self, 2, 30), 100);

  // The same spans nested globally would wrongly charge thread 1 and 2 to
  // thread 0's call.
  assignParents(spans, Nesting::Global);
  EXPECT_EQ(at(spans, 1, 10).parent, static_cast<std::int32_t>(0));
}

TEST(SpanRecording, ScopesRecordOnlyWhileEnabledAndCollectClears) {
  collectSpans();
  setSpanRecording(false);
  { SpanScope off(SpanKind::Post, 1); }
  setSpanRecording(true);
  { SpanScope on(SpanKind::Reap, 7); }
  setSpanRecording(false);
  const std::vector<Span> spans = collectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::Reap);
  EXPECT_EQ(spans[0].op, 7u);
  EXPECT_LE(spans[0].start, spans[0].end);
  EXPECT_TRUE(collectSpans().empty());
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 0.99).has_value());  // rank 990: 9 beyond
  v.push_back(1000);
  ASSERT_TRUE(percentile(v, 0.99).has_value());  // rank 990: 10 beyond
  EXPECT_EQ(*percentile(v, 0.99), 990.0);
  EXPECT_EQ(*percentile(v, 0.50), 500.0);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(percentile(small, 0.5).has_value());  // rank 10: 9 beyond
  small.push_back(2.0);
  EXPECT_TRUE(percentile(small, 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());

  // A low quantile's tail is below it.
  std::vector<double> q;
  for (int i = 1; i <= 40; ++i) q.push_back(i);
  EXPECT_FALSE(percentile(q, 0.25).has_value());  // rank 10: 9 below
  EXPECT_EQ(*percentile(q, 0.75), 30.0);          // rank 30: 10 above
  q.push_back(41);
  EXPECT_EQ(*percentile(q, 0.25), 11.0);  // rank 11: 10 below
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

EpisodeResult cleanEpisode(const Workload& w) {
  EpisodeResult r;
  r.ops = w.opsPerEpisode;
  r.virtualNs = w.pinnedVirtualNs;
  return r;
}

TEST(CorrectnessGate, PinnedValuesPassAtTheDefaultSeed) {
  for (const Workload& w : workloads()) {
    EpisodeResult r = cleanEpisode(w);
    applyGate(w, {kDefaultSeed, w.opsPerEpisode, false}, r);
    EXPECT_EQ(r.failed, 0u) << w.name << ": " << r.error;
  }
}

TEST(CorrectnessGate, TripsOnAPerturbedPinnedValue) {
  for (const Workload& w : workloads()) {
    EpisodeResult r = cleanEpisode(w);
    r.virtualNs += 1;
    applyGate(w, {kDefaultSeed, w.opsPerEpisode, false}, r);
    EXPECT_EQ(r.failed, w.opsPerEpisode) << w.name;
    EXPECT_NE(r.error.find("pinned"), std::string::npos) << r.error;
  }
}

TEST(CorrectnessGate, OtherSeedsSkipOnlyThePinnedCheck) {
  for (const Workload& w : workloads()) {
    EpisodeResult r = cleanEpisode(w);
    r.virtualNs += 1;
    applyGate(w, {kDefaultSeed + 1, w.opsPerEpisode, false}, r);
    EXPECT_EQ(r.failed, 0u) << w.name;

    r.counters.retransmits = 1;
    applyGate(w, {kDefaultSeed + 1, w.opsPerEpisode, false}, r);
    EXPECT_EQ(r.failed, w.opsPerEpisode) << w.name;
  }
}

}  // namespace
}  // namespace perfbench
