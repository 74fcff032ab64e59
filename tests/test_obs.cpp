// Tests for the observability layer: histogram bucketing and quantiles,
// the metrics registry, span-profiler bookkeeping, Chrome trace-event
// export, and the end-to-end stage-attribution invariant on a live
// ping-pong run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fault/invariants.hpp"
#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_export.hpp"
#include "simcore/engine.hpp"
#include "test_env.hpp"
#include "vibe/datatransfer.hpp"

namespace vibe {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::SpanProfiler;
using obs::Stage;

// --- Histogram -----------------------------------------------------------

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramTest, SingleSampleQuantilesAreExact) {
  Histogram h;
  h.add(1234567);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234567u);
  EXPECT_EQ(h.max(), 1234567u);
  // Quantiles clamp to [min, max], so a lone sample is reported exactly
  // even though its bucket spans a range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1234567.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1234567.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1234567.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1234567.0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.add(-42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, OverflowBucketCountsAndClamps) {
  Histogram h;
  const std::int64_t huge =
      static_cast<std::int64_t>(Histogram::kMaxValue) + 7;
  h.add(5);
  h.add(huge);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflowCount(), 1u);
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(huge));
  // The overflow sample still participates in sum/mean and quantiles
  // clamp to the recorded max rather than the bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(huge));
  // Exactly kMaxValue is representable and not an overflow.
  Histogram edge;
  edge.add(static_cast<std::int64_t>(Histogram::kMaxValue));
  EXPECT_EQ(edge.overflowCount(), 0u);
}

TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(i * i);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), static_cast<double>(h.min()));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(h.max()));
}

TEST(HistogramTest, BucketIndexAndBoundsAreInverse) {
  // Every probed value must land inside its bucket's bounds, and above
  // the unit-bucket region the bucket width must respect the 1/2^kSubBits
  // relative-error guarantee (width * 2^kSubBits <= lo).
  const std::uint64_t probes[] = {0,       1,    7,    8,       9,
                                  15,      16,   17,   255,     256,
                                  1000,    4095, 4096, 1000000,
                                  (1ull << 40) + 12345, Histogram::kMaxValue};
  for (const std::uint64_t v : probes) {
    const std::size_t idx = Histogram::bucketIndex(v);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    Histogram::bucketBounds(idx, lo, hi);
    EXPECT_LE(lo, v) << "value " << v;
    EXPECT_GE(hi, v) << "value " << v;
    if (v >= (1ull << Histogram::kSubBits)) {
      EXPECT_LE((hi - lo + 1) << Histogram::kSubBits, lo) << "value " << v;
    } else {
      EXPECT_EQ(lo, hi) << "unit bucket for " << v;
    }
  }
  // Adjacent buckets tile the value axis with no gaps or overlap.
  std::uint64_t prevHi = 0;
  for (std::size_t idx = 0; idx < 200; ++idx) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    Histogram::bucketBounds(idx, lo, hi);
    if (idx > 0) {
      EXPECT_EQ(lo, prevHi + 1) << "bucket " << idx;
    }
    prevHi = hi;
  }
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.add(10);
  a.add(20);
  b.add(5);
  b.add(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 1000000u);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0 + 20.0 + 5.0 + 1000000.0);
  // Merging an empty histogram is a no-op.
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistryTest, CreatesOnDemandAndRendersSorted) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.counter("node1/nic.frags_tx").add(3);
  m.counter("node0/nic.frags_tx").add(7);
  m.gauge("bench/bandwidth_mbps").set(812.5);
  m.histogram("node0/latency_ns").add(1500);
  EXPECT_FALSE(m.empty());
  // Same name resolves to the same instance.
  m.counter("node0/nic.frags_tx").add(1);
  EXPECT_EQ(m.counter("node0/nic.frags_tx").value(), 8u);
  const std::string text = m.renderText();
  const auto pos0 = text.find("node0/nic.frags_tx");
  const auto pos1 = text.find("node1/nic.frags_tx");
  ASSERT_NE(pos0, std::string::npos);
  ASSERT_NE(pos1, std::string::npos);
  EXPECT_LT(pos0, pos1) << "renderText must be name-ordered";
  EXPECT_NE(text.find("bench/bandwidth_mbps"), std::string::npos);
  EXPECT_NE(text.find("node0/latency_ns"), std::string::npos);
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(MetricsRegistryTest, ScopedJoinsWithSlash) {
  EXPECT_EQ(obs::scoped("node0", "nic.frags_tx"), "node0/nic.frags_tx");
  EXPECT_EQ(obs::scoped("bench.pingpong", "latency_ns"),
            "bench.pingpong/latency_ns");
}

TEST(MetricsRegistryTest, ShardProfilesPublishEveryWallClock) {
  sim::ShardProfile p;
  p.shard = 1;
  p.execNs = 30;
  p.barrierWaitNs = 20;
  p.completionNs = 10;
  MetricsRegistry m;
  obs::publishShardProfiles(m, "pdes", {p}, 1.5);
  EXPECT_EQ(m.counter("pdes/shard1/exec_ns").value(), 30u);
  EXPECT_EQ(m.counter("pdes/shard1/barrier_wait_ns").value(), 20u);
  EXPECT_EQ(m.counter("pdes/shard1/completion_ns").value(), 10u);
  EXPECT_DOUBLE_EQ(m.gauge("pdes/load_imbalance").value(), 1.5);
}

// --- SpanProfiler --------------------------------------------------------

TEST(SpanProfilerTest, MalformedSpanCountsAsMismatch) {
  SpanProfiler p;
  p.emit(Stage::Wire, 0, 0, /*begin=*/100, /*end=*/50, 64);
  EXPECT_EQ(p.mismatchCount(), 1u);
  EXPECT_EQ(p.totalSpans(), 0u);
  EXPECT_EQ(p.stage(Stage::Wire).count(), 0u);
  // Zero-length spans are legal (instantaneous stage).
  p.emit(Stage::Wire, 0, 0, 100, 100, 64);
  EXPECT_EQ(p.totalSpans(), 1u);
}

TEST(SpanProfilerTest, EventRetentionIsBoundedAndOptional) {
  SpanProfiler off;
  off.emit(Stage::Wire, 0, 0, 0, 10, 1);
  EXPECT_TRUE(off.events().empty()) << "keepEvents defaults to off";
  EXPECT_EQ(off.eventsDropped(), 0u);

  SpanProfiler p(/*maxEvents=*/4);
  p.setKeepEvents(true);
  for (int i = 0; i < 6; ++i) {
    p.emit(Stage::Wire, 0, 0, i * 10, i * 10 + 5, 64);
  }
  EXPECT_EQ(p.events().size(), 4u);
  EXPECT_EQ(p.eventsDropped(), 2u);
  // Aggregation is unaffected by the retention cap.
  EXPECT_EQ(p.totalSpans(), 6u);
  EXPECT_EQ(p.stage(Stage::Wire).count(), 6u);
}

TEST(SpanProfilerTest, ClearResetsEverything) {
  SpanProfiler p;
  p.setKeepEvents(true);
  p.emit(Stage::Post, 0, 0, 0, 10, 1);
  p.emit(Stage::Wire, 0, 0, 7, 5);  // mismatch
  p.clear();
  EXPECT_EQ(p.totalSpans(), 0u);
  EXPECT_EQ(p.mismatchCount(), 0u);
  EXPECT_TRUE(p.events().empty());
  EXPECT_EQ(p.stage(Stage::Post).count(), 0u);
  EXPECT_DOUBLE_EQ(p.stageMeanSumUsec(), 0.0);
}

TEST(SpanProfilerTest, StageToStringIsExhaustive) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    const char* name = obs::toString(static_cast<Stage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "stage " << i;
  }
  EXPECT_STREQ(obs::toString(Stage::kCount), "?");
  EXPECT_TRUE(obs::isPipelineStage(Stage::Wire));
  EXPECT_FALSE(obs::isPipelineStage(Stage::EndToEnd));
}

// --- Trace JSON export ---------------------------------------------------

namespace {
std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Counts complete top-level JSON objects inside the traceEvents array by
/// brace balance — a hand-rolled check that the file is structurally sound
/// without a JSON library.
std::size_t countTraceEvents(const std::string& json) {
  const auto start = json.find('[');
  const auto end = json.rfind(']');
  if (start == std::string::npos || end == std::string::npos) return 0;
  std::size_t events = 0;
  int depth = 0;
  bool inString = false;
  for (std::size_t i = start + 1; i < end; ++i) {
    const char c = json[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') inString = true;
    if (c == '{' && depth++ == 0) ++events;
    if (c == '}') --depth;
  }
  return depth == 0 ? events : 0;
}
}  // namespace

TEST(TraceExportTest, RoundTripsSpansAndInstants) {
  const std::string path = ::testing::TempDir() + "vibe_trace_test.json";
  SpanProfiler p;
  p.setKeepEvents(true);
  p.emit(Stage::NicTx, 0, 3, 1000, 2500, 64);
  p.emit(Stage::Wire, 0, 3, 2500, 4000, 84);
  {
    obs::TraceJsonExporter exp(path);
    exp.exportSpans(p);
    sim::TraceRecord rec;
    rec.time = 4200;
    rec.category = sim::TraceCategory::Completion;
    rec.component = 1;
    rec.message = "cq write \"quoted\"\n";
    exp.instant(rec);
    EXPECT_EQ(exp.eventCount(), 3u);
    EXPECT_TRUE(exp.finish());
    EXPECT_TRUE(exp.finish()) << "finish must be idempotent";
  }
  const std::string json = readFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(countTraceEvents(json), 3u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"nic_tx\""), std::string::npos);
  // 1000 ns begin renders as 1.000 us; duration 1500 ns as 1.500 us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  // The quote and newline in the instant's message must be escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExportTest, DestructorFlushesBufferedEvents) {
  const std::string path = ::testing::TempDir() + "vibe_trace_dtor.json";
  {
    obs::TraceJsonExporter exp(path);
    SpanProfiler p;
    p.setKeepEvents(true);
    p.emit(Stage::Post, 1, 0, 0, 50, 4);
    exp.exportSpans(p);
  }  // destructor calls finish()
  EXPECT_EQ(countTraceEvents(readFile(path)), 1u);
  std::remove(path.c_str());
}

// --- Live stage attribution ----------------------------------------------

/// The stage spans of a 64 B ping-pong tile each message's journey on
/// `profile`: their per-message sum matches the EndToEnd envelope.
void expectStageSumMatchesEndToEnd(const nic::NicProfile& profile) {
  SCOPED_TRACE(profile.name);
  SpanProfiler spans;
  suite::ClusterConfig cc{profile};
  cc.spans = &spans;
  suite::TransferConfig cfg;
  cfg.msgBytes = 64;
  cfg.iterations = 100;
  cfg.warmup = 4;
  const auto r = suite::runPingPong(cc, cfg);
  ASSERT_GT(r.latencyUsec, 0.0);

  // Every message (both directions, warmup included) got an envelope.
  EXPECT_EQ(spans.messageCount(),
            static_cast<std::size_t>(cfg.iterations + cfg.warmup) * 2);
  EXPECT_EQ(spans.mismatchCount(), 0u);

  // The per-message stage sum must account for the full post-to-completion
  // envelope: the stages tile the journey, so the sum matches the measured
  // EndToEnd mean closely (small deviations only from pipelining overlap).
  const double e2eUs = spans.stage(Stage::EndToEnd).mean() / 1e3;
  const double sumUs = spans.stageMeanSumUsec();
  ASSERT_GT(e2eUs, 0.0);
  EXPECT_NEAR(sumUs, e2eUs, 0.1 * e2eUs)
      << spans.renderAttribution();
  // ...and the envelope itself sits at or below the measured one-way
  // latency (which adds the receiver's reap overhead).
  EXPECT_LE(e2eUs, r.latencyUsec * 1.05) << spans.renderAttribution();
  EXPECT_GE(r.latencyUsec, e2eUs * 0.75) << spans.renderAttribution();

  const std::string table = spans.renderAttribution();
  EXPECT_NE(table.find("nic_tx"), std::string::npos);
  EXPECT_NE(table.find("wire"), std::string::npos);
  EXPECT_NE(table.find("end-to-end"), std::string::npos);
}

/// Every fragment a NIC sends in a 4096 B ping-pong on `profile` (more
/// than one per message) gets one NicTx span.
void expectOneNicTxSpanPerFragment(const nic::NicProfile& profile) {
  SCOPED_TRACE(profile.name);
  SpanProfiler spans;
  MetricsRegistry metrics;
  suite::ClusterConfig cc{profile};
  cc.spans = &spans;
  cc.metrics = &metrics;
  suite::TransferConfig cfg;
  cfg.msgBytes = 4096;
  cfg.iterations = 100;
  cfg.warmup = 4;
  suite::runPingPong(cc, cfg);
  const std::uint64_t fragsTx = metrics.counter("node0/nic.frags_tx").value() +
                                metrics.counter("node1/nic.frags_tx").value();
  const std::uint64_t messages = (cfg.iterations + cfg.warmup) * 2;
  EXPECT_GT(fragsTx, messages);
  EXPECT_EQ(spans.stage(Stage::NicTx).count(), fragsTx);
}

TEST(ObsIntegration, StageSumMatchesEndToEndOnPingPong) {
  // cLAN and BVIA build fragments on the NIC, M-VIA in the host kernel at
  // the doorbell trap; each path emits its own NicTx spans.
  for (const nic::NicProfile& profile :
       {nic::clanProfile(), nic::bviaProfile(), nic::mviaProfile()}) {
    expectStageSumMatchesEndToEnd(profile);
    expectOneNicTxSpanPerFragment(profile);
  }
}

TEST(ObsIntegration, AttachedProfilerDoesNotPerturbTiming) {
  suite::TransferConfig cfg;
  cfg.msgBytes = 1024;
  cfg.iterations = 50;
  const auto plain =
      suite::runPingPong(suite::ClusterConfig{nic::bviaProfile()}, cfg);
  SpanProfiler spans;
  suite::ClusterConfig cc{nic::bviaProfile()};
  cc.spans = &spans;
  const auto observed = suite::runPingPong(cc, cfg);
  // Observability is measurement, not load: identical virtual-time result.
  EXPECT_DOUBLE_EQ(observed.latencyUsec, plain.latencyUsec);
  EXPECT_DOUBLE_EQ(observed.latencyP99Usec, plain.latencyP99Usec);
  EXPECT_GT(spans.totalSpans(), 0u);
}

// --- countAbove / shard-merge identity -----------------------------------

TEST(HistogramTest, CountAboveIsExactAtBucketBoundaries) {
  Histogram h;
  // Values < 2^kSubBits sit in exact unit buckets.
  for (int v = 0; v < 8; ++v) h.add(v);
  EXPECT_EQ(h.countAbove(3), 4u);  // 4, 5, 6, 7
  EXPECT_EQ(h.countAbove(7), 0u);
  EXPECT_EQ(h.countAbove(0), 7u);

  // For a coarse bucket, a threshold at the bucket's upper bound excludes
  // exactly that bucket; one below its lower bound includes it.
  Histogram big;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  Histogram::bucketBounds(Histogram::bucketIndex(100'000), lo, hi);
  big.add(100'000);
  big.add(static_cast<std::int64_t>(hi) * 100);
  EXPECT_EQ(big.countAbove(hi), 1u);
  EXPECT_EQ(big.countAbove(lo - 1), 2u);
}

TEST(HistogramTest, ShardMergedQuantilesMatchSeriallyBuilt) {
  // Property check for the sweep harness's merge path: a histogram merged
  // from per-shard pieces must report the same quantiles as one built
  // serially from the same samples — identical buckets, identical
  // min/max clamp, so equality is exact, not approximate.
  std::uint64_t lcg = 12345;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  Histogram serial;
  Histogram shards[4];
  for (int i = 0; i < 4000; ++i) {
    // Mixed magnitudes: mostly ~20 us, a heavy tail into tens of ms.
    const std::int64_t v = (next() % 7 == 0)
                               ? static_cast<std::int64_t>(next() % 50'000'000)
                               : static_cast<std::int64_t>(next() % 20'000);
    serial.add(v);
    shards[i % 4].add(v);
  }
  Histogram merged;
  for (const Histogram& s : shards) merged.merge(s);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  EXPECT_DOUBLE_EQ(merged.sum(), serial.sum());
  EXPECT_EQ(merged.bucketCounts(), serial.bucketCounts());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), serial.quantile(q)) << "q=" << q;
  }
}

// --- TimeSeriesSampler ---------------------------------------------------

namespace {
/// Drives `sampler` the way a Cluster does: from the engine's boundary
/// hook (the caller flushes once more at the drain time, as run() does).
void hookSampler(sim::ShardedEngine& eng, obs::TimeSeriesSampler& sampler) {
  eng.setBoundaryHook(sampler.period(),
                      [&sampler](sim::SimTime t) { sampler.flushUntil(t); });
}
}  // namespace

TEST(TimeSeriesSamplerTest, CapturesEveryBoundaryExactlyOnce) {
  sim::ShardedEngine eng(sim::EngineConfig{});
  int applied = 0;
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(100);
  sampler.addProbe("applied", [&](sim::SimTime) {
    return static_cast<double>(applied);
  });
  hookSampler(eng, sampler);
  for (const sim::SimTime t : {5, 105, 110, 399, 400, 401, 1000}) {
    eng.domainEngine(0).postAt(t, [&] { ++applied; });
  }
  eng.run();
  sampler.flushUntil(eng.maxNow());

  ASSERT_EQ(sampler.windowCount(), 10u);
  for (std::size_t w = 0; w < sampler.windowCount(); ++w) {
    EXPECT_EQ(sampler.windowTime(w), static_cast<sim::SimTime>((w + 1) * 100));
  }
  // A boundary captures the state with every event strictly before it
  // applied: at t=400 the event at 399 has run, the one at 400 has not.
  EXPECT_DOUBLE_EQ(sampler.value(0, 0), 1.0);   // t=100: only t=5
  EXPECT_DOUBLE_EQ(sampler.value(1, 0), 3.0);   // t=200: 5, 105, 110
  EXPECT_DOUBLE_EQ(sampler.value(3, 0), 4.0);   // t=400: ... + 399
  EXPECT_DOUBLE_EQ(sampler.value(4, 0), 6.0);   // t=500: ... + 400, 401
  EXPECT_DOUBLE_EQ(sampler.value(9, 0), 6.0);   // t=1000: before the last
  EXPECT_EQ(sampler.droppedWindows(), 0u);
}

TEST(TimeSeriesSamplerTest, RingDropsOldestWindows) {
  obs::TimeSeriesSampler sampler(/*maxWindows=*/4);
  sampler.setPeriod(10);
  sampler.addProbe("t", [](sim::SimTime at) {
    return static_cast<double>(at);
  });
  sampler.flushUntil(100);
  EXPECT_EQ(sampler.windowCount(), 4u);
  EXPECT_EQ(sampler.droppedWindows(), 6u);
  EXPECT_EQ(sampler.windowTime(0), 70);
  EXPECT_EQ(sampler.windowTime(3), 100);
  EXPECT_DOUBLE_EQ(sampler.value(3, 0), 100.0);
}

TEST(TimeSeriesSamplerTest, RegistrationIsValidated) {
  obs::TimeSeriesSampler sampler;
  EXPECT_THROW(sampler.setPeriod(0), sim::SimError);
  EXPECT_THROW(sampler.addProbe("null", nullptr), sim::SimError);
  sampler.setPeriod(50);
  sampler.addProbe("a", [](sim::SimTime) { return 0.0; });
  sampler.flushUntil(50);
  // Rows are rectangular: no new series once a window exists.
  EXPECT_THROW(sampler.addProbe("b", [](sim::SimTime) { return 0.0; }),
               sim::SimError);
  const std::string csv = sampler.renderCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ns,a");
}

TEST(TimeSeriesSamplerTest, ClusterRejectsSamplerWithoutPeriod) {
  obs::TimeSeriesSampler sampler;
  suite::ClusterConfig cc{nic::clanProfile()};
  cc.sampler = &sampler;
  try {
    suite::Cluster cluster(cc);
    ADD_FAILURE() << "a config sampler without a period was accepted";
  } catch (const sim::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("sampler has no period"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sampler.seriesCount(), 0u) << "no probe registered";
}

TEST(TimeSeriesSamplerTest, FlushAfterClusterIsGoneCallsNoProbe) {
  // The Cluster's probes read its providers, links and switches. A flush
  // after the Cluster is gone must call none of them (under ASan such a
  // call reads dead stack memory); their series read NaN from then on.
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(sim::usec(10));
  suite::ClusterConfig cc{nic::clanProfile()};
  cc.sampler = &sampler;
  suite::TransferConfig cfg;
  cfg.msgBytes = 64;
  cfg.iterations = 10;
  (void)suite::runPingPong(cc, cfg);  // builds and destroys its Cluster
  const std::size_t rows = sampler.windowCount();
  ASSERT_GT(rows, 0u);
  sampler.flushUntil(sampler.windowTime(rows - 1) + sim::usec(50));
  ASSERT_EQ(sampler.windowCount(), rows + 5);
  ASSERT_EQ(sampler.seriesCount(), 5u);
  for (std::size_t s = 0; s < sampler.seriesCount(); ++s) {
    EXPECT_FALSE(std::isnan(sampler.value(rows - 1, s)))
        << sampler.seriesName(s);
    EXPECT_TRUE(std::isnan(sampler.value(rows, s))) << sampler.seriesName(s);
  }
}

TEST(TimeSeriesSamplerTest, SecondClusterOnOneSamplerIsRefused) {
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(sim::usec(10));
  suite::ClusterConfig cc{nic::clanProfile()};
  cc.sampler = &sampler;
  suite::Cluster first(cc);
  EXPECT_THROW(suite::Cluster second(cc), sim::SimError);
  EXPECT_EQ(sampler.seriesCount(), 5u) << "a second probe set was stacked";
}

TEST(SloMonitorTest, ProbesStopWithTheMonitor) {
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(100);
  Histogram h;
  {
    obs::SloMonitor slo("x", h);
    slo.bindTo(sampler);
    EXPECT_THROW(slo.bindTo(sampler), sim::SimError);
    obs::SloMonitor twin("x", h);
    EXPECT_THROW(twin.bindTo(sampler), sim::SimError);
    EXPECT_EQ(sampler.seriesCount(), 5u);
    h.add(50);
    sampler.flushUntil(100);
    EXPECT_EQ(slo.windows().size(), 1u);
  }
  sampler.flushUntil(200);
  ASSERT_EQ(sampler.windowCount(), 2u);
  for (std::size_t s = 0; s < sampler.seriesCount(); ++s) {
    EXPECT_FALSE(std::isnan(sampler.value(0, s))) << sampler.seriesName(s);
    EXPECT_TRUE(std::isnan(sampler.value(1, s))) << sampler.seriesName(s);
  }
}

TEST(TimeSeriesSamplerTest, TimelineByteIdenticalAcrossJobsAndShards) {
  // The sampler stamps rows at virtual-time boundaries, so the CSV is a
  // determinism witness: identical across host-parallelism settings. A
  // two-leaf tree (two leaves and a root: 3 domains) runs in one domain
  // (simShards 0) and in per-switch domains on 1 and 3 shards; each
  // setting is a point of a sweep run on 1 and on 4 jobs.
  const std::uint32_t shardCounts[] = {0, 1, 3};
  std::vector<std::string> csvs;
  for (const char* jobs : {"1", "4"}) {
    testing::ScopedEnv j("VIBE_JOBS", jobs);
    const std::vector<std::string> got = harness::runSweep(
        std::size(shardCounts), [&](harness::PointEnv& env) {
          obs::TimeSeriesSampler sampler;
          sampler.setPeriod(sim::usec(20));
          suite::ClusterConfig cc{nic::clanProfile()};
          cc.nodesPerSwitch = 1;
          cc.simShards = shardCounts[env.index];
          cc.sampler = &sampler;
          suite::TransferConfig cfg;
          cfg.msgBytes = 256;
          cfg.iterations = 40;
          cfg.warmup = 2;
          (void)suite::runPingPong(cc, cfg);
          return sampler.renderCsv();
        });
    csvs.insert(csvs.end(), got.begin(), got.end());
  }
  ASSERT_GT(std::count(csvs[0].begin(), csvs[0].end(), '\n'), 1)
      << "no sampled rows";
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    EXPECT_EQ(csvs[i], csvs[0]) << "jobs " << (i < 3 ? 1 : 4)
                                << ", simShards " << shardCounts[i % 3];
  }
}

// --- SloMonitor ----------------------------------------------------------

namespace {
/// One log-bucket of tolerance around `expected` (plus 1 for the unit
/// buckets): the resolution the monitor promises against an offline
/// recomputation from the exact window samples.
double bucketTolerance(double expected) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  Histogram::bucketBounds(
      Histogram::bucketIndex(static_cast<std::uint64_t>(expected)), lo, hi);
  return static_cast<double>(hi - lo) + 1.0;
}
}  // namespace

TEST(SloMonitorTest, WindowQuantilesMatchOfflineRecomputation) {
  std::uint64_t lcg = 99;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  Histogram cumulative;
  obs::SloMonitor slo("lat", cumulative);
  for (int w = 1; w <= 8; ++w) {
    Histogram offline;  // rebuilt from exactly this window's samples
    const std::uint64_t base = 1000ull << w;  // magnitude drifts per window
    for (int i = 0; i < 300; ++i) {
      const std::int64_t v =
          static_cast<std::int64_t>(base + next() % (base * 3));
      cumulative.add(v);
      offline.add(v);
    }
    slo.sample(w * 1000);
    const obs::SloMonitor::Window& win = slo.lastWindow();
    EXPECT_EQ(win.t, w * 1000);
    EXPECT_EQ(win.count, offline.count());
    EXPECT_NEAR(win.p50, offline.quantile(0.5), bucketTolerance(win.p50));
    EXPECT_NEAR(win.p99, offline.quantile(0.99), bucketTolerance(win.p99));
    EXPECT_NEAR(win.p999, offline.quantile(0.999),
                bucketTolerance(win.p999));
  }
  EXPECT_EQ(slo.windows().size(), 8u);
}

TEST(SloMonitorTest, BurnRateSpendsTheErrorBudget) {
  Histogram h;
  obs::SloMonitor slo("lat", h);
  // Threshold on an exact bucket boundary so countAbove has no slack.
  std::uint64_t lo = 0;
  std::uint64_t thr = 0;
  Histogram::bucketBounds(Histogram::bucketIndex(100'000), lo, thr);
  slo.setThresholdNs(thr);
  slo.setTarget(0.9);

  for (int i = 0; i < 95; ++i) h.add(1000);
  for (int i = 0; i < 5; ++i) {
    h.add(static_cast<std::int64_t>(thr) * 50);
  }
  slo.sample(100);
  const obs::SloMonitor::Window& w = slo.lastWindow();
  EXPECT_EQ(w.count, 100u);
  EXPECT_EQ(w.overThreshold, 5u);
  // 5% of samples over, 10% budget: half the budget burned.
  EXPECT_NEAR(w.burnRate, 0.5, 1e-9);

  // A clean second window burns nothing.
  for (int i = 0; i < 10; ++i) h.add(500);
  slo.sample(200);
  EXPECT_EQ(slo.lastWindow().overThreshold, 0u);
  EXPECT_DOUBLE_EQ(slo.lastWindow().burnRate, 0.0);
  EXPECT_THROW(slo.setTarget(1.0), sim::SimError);
  EXPECT_THROW(slo.setTarget(0.0), sim::SimError);
}

TEST(SloMonitorTest, ThresholdCrossingsEmitUserTraceRecords) {
  Histogram h;
  sim::Tracer tracer;
  tracer.enable(sim::TraceCategory::User);
  obs::SloMonitor slo("rpc", h);
  slo.setThresholdNs(10'000);
  slo.setTracer(&tracer, /*component=*/7);

  for (int i = 0; i < 100; ++i) h.add(100);
  slo.sample(100);
  EXPECT_FALSE(slo.breached());
  for (int i = 0; i < 100; ++i) h.add(1'000'000);
  slo.sample(200);
  EXPECT_TRUE(slo.breached());
  for (int i = 0; i < 100; ++i) h.add(100);
  slo.sample(300);
  EXPECT_FALSE(slo.breached());
  EXPECT_EQ(slo.crossingCount(), 2u);

  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].category, sim::TraceCategory::User);
  EXPECT_EQ(records[0].component, 7u);
  EXPECT_NE(records[0].message.find("slo rpc breach"), std::string::npos);
  EXPECT_NE(records[1].message.find("slo rpc recover"), std::string::npos);
}

TEST(SloMonitorTest, BurstStraddlingWindowBoundariesKeepsHysteresis) {
  Histogram cumulative;
  sim::Tracer tracer;
  tracer.enable(sim::TraceCategory::User);
  obs::SloMonitor slo("burst", cumulative);
  slo.setThresholdNs(10'000);
  slo.setTracer(&tracer);

  // Offline replay of the same boundaries: diff the bucket counts, apply
  // quantileFromCounts to the delta, and replicate the monitor's rule
  // that only a non-empty window can flip the breach state.
  std::vector<std::uint64_t> prev;
  std::uint64_t offlineCrossings = 0;
  bool offlineOver = false;
  auto boundary = [&](sim::SimTime t) {
    const std::vector<std::uint64_t>& cur = cumulative.bucketCounts();
    std::vector<std::uint64_t> delta(cur.size(), 0);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      delta[i] = cur[i] - (i < prev.size() ? prev[i] : 0);
      n += delta[i];
    }
    prev = cur;
    if (n > 0) {
      const bool nowOver =
          obs::SloMonitor::quantileFromCounts(delta, 0.99) > 10'000.0;
      if (nowOver != offlineOver) {
        ++offlineCrossings;
        offlineOver = nowOver;
      }
    }
    slo.sample(t);
  };

  // Window 1: healthy baseline.
  for (int i = 0; i < 50; ++i) cumulative.add(1'000);
  boundary(100);
  EXPECT_FALSE(slo.breached());
  // Window 2: a burst lands entirely before the next boundary — breach.
  for (int i = 0; i < 50; ++i) cumulative.add(1'000'000);
  boundary(200);
  EXPECT_TRUE(slo.breached());
  // Window 3: the burst straddles the boundary — this window happens to
  // hold zero samples. An empty window carries no evidence either way,
  // so it must NOT read as a recovery (hysteresis holds).
  boundary(300);
  EXPECT_TRUE(slo.breached());
  EXPECT_EQ(slo.crossingCount(), 1u);
  // Window 4: the tail of the burst, still slow.
  for (int i = 0; i < 50; ++i) cumulative.add(1'000'000);
  boundary(400);
  EXPECT_TRUE(slo.breached());
  // Window 5: healthy again — the one genuine recovery.
  for (int i = 0; i < 50; ++i) cumulative.add(1'000);
  boundary(500);
  EXPECT_FALSE(slo.breached());

  EXPECT_EQ(slo.crossingCount(), 2u);
  EXPECT_EQ(slo.crossingCount(), offlineCrossings);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].message.find("slo burst breach"), std::string::npos);
  EXPECT_EQ(records[0].time, 200);
  EXPECT_NE(records[1].message.find("slo burst recover"), std::string::npos);
  EXPECT_EQ(records[1].time, 500);
}

TEST(SloMonitorTest, BindToSamplerAlignsWindowsWithRows) {
  sim::ShardedEngine eng(sim::EngineConfig{});
  Histogram h;
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(100);
  obs::SloMonitor slo("x", h);
  slo.bindTo(sampler);
  hookSampler(eng, sampler);
  for (int i = 1; i <= 10; ++i) {
    eng.domainEngine(0).postAt(i * 37, [&, i] { h.add(i * 10); });
  }
  eng.run();
  sampler.flushUntil(eng.maxNow());
  ASSERT_EQ(sampler.windowCount(), 3u);
  ASSERT_EQ(slo.windows().size(), 3u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(slo.windows()[w].t, sampler.windowTime(w));
    // The row's p50 series is the window's p50, captured in the same pass.
    EXPECT_DOUBLE_EQ(sampler.value(w, 0), slo.windows()[w].p50);
  }
  const std::string header =
      sampler.renderCsv().substr(0, sampler.renderCsv().find('\n'));
  EXPECT_EQ(header, "t_ns,x/p50_ns,x/p99_ns,x/p999_ns,x/p9999_ns,x/burn_rate");
}

// --- SpanProfiler retention under sampler load ---------------------------

TEST(SpanProfilerTest, RetentionCapHoldsUnderSamplerLoad) {
  SpanProfiler spans(/*maxEvents=*/64);
  spans.setKeepEvents(true);
  obs::TimeSeriesSampler sampler;
  suite::ClusterConfig cc{nic::clanProfile()};
  sampler.setPeriod(sim::usec(10));
  cc.spans = &spans;
  cc.sampler = &sampler;
  suite::TransferConfig cfg;
  cfg.msgBytes = 64;
  cfg.iterations = 100;
  cfg.warmup = 4;
  (void)suite::runPingPong(cc, cfg);
  EXPECT_GT(sampler.windowCount(), 0u);
  EXPECT_EQ(spans.events().size(), 64u);
  EXPECT_GT(spans.eventsDropped(), 0u);
  // The retention cap bounds raw events only; aggregation still sees all.
  EXPECT_EQ(spans.messageCount(),
            static_cast<std::size_t>(cfg.iterations + cfg.warmup) * 2);
}

// --- hostile-name JSON round trips ---------------------------------------

namespace {
/// String-aware brace balance plus a raw-control-character scan: the
/// structural soundness check for emitters that don't write traceEvents.
bool jsonStructurallySound(const std::string& json) {
  int depth = 0;
  bool inString = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (static_cast<unsigned char>(c) < 0x20 && c != '\n') {
      return false;  // control characters must be escaped
    }
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') inString = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth < 0) return false;
  }
  return depth == 0 && !inString;
}
}  // namespace

TEST(JsonEscapeTest, EscapesEveryHostileByte) {
  EXPECT_EQ(obs::jsonEscape("plain"), "plain");
  EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::jsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(obs::jsonEscape("a\b\f"), "a\\b\\f");
  EXPECT_EQ(obs::jsonNumber(1.5), "1.5");
  EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonEscapeTest, HostileNamesSurviveAllEmitters) {
  // Split the literal so \x01 doesn't greedily absorb the 'c' after it.
  const std::string hostile = "evil\"name\\ with\nnewline\tand\x01" "ctrl";

  // Trace exporter: counter tracks and instants.
  const std::string path = ::testing::TempDir() + "vibe_hostile_trace.json";
  {
    obs::TraceJsonExporter exp(path);
    exp.counter(hostile, 1000, 42.0);
    sim::TraceRecord rec;
    rec.time = 2000;
    rec.message = hostile;
    exp.instant(rec);
    EXPECT_TRUE(exp.finish());
  }
  const std::string trace = readFile(path);
  EXPECT_EQ(countTraceEvents(trace), 2u);
  EXPECT_TRUE(jsonStructurallySound(trace)) << trace;
  EXPECT_NE(trace.find("evil\\\"name\\\\ with\\nnewline\\tand\\u0001ctrl"),
            std::string::npos);
  std::remove(path.c_str());

  // Metrics JSON: hostile metric names in every section.
  MetricsRegistry reg;
  reg.counter(hostile).add(3);
  reg.gauge("g\"\\").set(1.25);
  reg.histogram("h\n").add(5000);
  const std::string metrics = obs::renderMetricsJson(reg);
  EXPECT_TRUE(jsonStructurallySound(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"schema\": 2"), std::string::npos);
  EXPECT_NE(metrics.find("g\\\"\\\\"), std::string::npos);
  EXPECT_NE(metrics.find("h\\n"), std::string::npos);
}

// --- FlightRecorder ------------------------------------------------------

TEST(FlightRecorderTest, DumpWritesRingsAndReason) {
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(100);
  sampler.addProbe("depth", [](sim::SimTime at) {
    return static_cast<double>(at) / 100.0;
  });
  sampler.flushUntil(300);

  Histogram h;
  obs::SloMonitor slo("lat", h);
  for (int i = 0; i < 10; ++i) h.add(1000 * (i + 1));
  slo.sample(300);

  sim::Tracer tracer;
  tracer.enable(sim::TraceCategory::User);
  tracer.record(250, sim::TraceCategory::User, 3, "mark \"one\"");

  const std::string path = ::testing::TempDir() + "vibe_flight.json";
  obs::FlightRecorder rec(path);
  rec.setSampler(&sampler);
  rec.setSlo(&slo);
  rec.setTracer(&tracer);
  ASSERT_TRUE(rec.dump("it broke \"badly\"\n"));
  EXPECT_EQ(rec.dumps(), 1u);

  const std::string json = readFile(path);
  EXPECT_TRUE(jsonStructurallySound(json)) << json;
  EXPECT_NE(json.find("it broke \\\"badly\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("mark \\\"one\\\""), std::string::npos);

  ASSERT_TRUE(rec.dump("second"));
  EXPECT_EQ(rec.dumps(), 2u);
  EXPECT_NE(readFile(path).find("\"second\""), std::string::npos)
      << "latest dump wins";
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, InvariantViolationTriggersOneDump) {
  // With VIBE_FLIGHT_OUT set, dump there and keep the file — CI runs this
  // test as its flight-recorder smoke and uploads the dump as an artifact.
  const char* envPath = obs::FlightRecorder::envPath();
  const std::string path =
      envPath ? envPath : ::testing::TempDir() + "vibe_flight_inv.json";
  std::remove(path.c_str());
  obs::FlightRecorder rec(path);
  obs::TimeSeriesSampler sampler;
  sampler.setPeriod(5);
  sampler.addProbe("inflight", [](sim::SimTime at) {
    return static_cast<double>(at % 3);
  });
  sampler.flushUntil(10);
  sim::Tracer tracer;
  tracer.enable(sim::TraceCategory::Rx);
  rec.setSampler(&sampler);
  rec.setTracer(&tracer);
  fault::InvariantChecker checker;
  checker.setViolationHook(rec.violationHook());

  sim::TraceRecord bad;
  bad.time = 10;
  bad.category = sim::TraceCategory::Rx;
  bad.component = 0;
  bad.message = "deliver vi=1 rel=Reliable";  // no msg= -> unparseable
  tracer.record(bad.time, bad.category, bad.component, bad.message);
  checker.onRecord(bad);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(rec.dumps(), 1u);
  const std::string dump = readFile(path);
  EXPECT_NE(dump.find("unparseable deliver record"), std::string::npos);
  EXPECT_TRUE(jsonStructurallySound(dump)) << dump;
  EXPECT_NE(dump.find("\"inflight\""), std::string::npos);

  // Later violations do not thrash the dump: first-failure state wins.
  checker.onRecord(bad);
  EXPECT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(rec.dumps(), 1u);
  if (envPath == nullptr) std::remove(path.c_str());
}

TEST(FlightRecorderTest, FromEnvReadsVibeFlightOut) {
  {
    testing::ScopedEnv env("VIBE_FLIGHT_OUT", nullptr);
    EXPECT_EQ(obs::FlightRecorder::envPath(), nullptr);
    EXPECT_EQ(obs::FlightRecorder::fromEnv(), nullptr);
  }
  {
    const std::string path = ::testing::TempDir() + "vibe_flight_env.json";
    testing::ScopedEnv env("VIBE_FLIGHT_OUT", path.c_str());
    auto rec = obs::FlightRecorder::fromEnv();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->path(), path);
  }
}

}  // namespace
}  // namespace vibe
