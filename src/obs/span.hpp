// Sim-time span profiler: stage-attributed latency decomposition.
//
// Each message moving through the simulated VIA stack traverses a fixed
// pipeline of stages (post -> doorbell -> NIC tx -> wire -> rx ->
// reassembly -> completion). The datapath models emit one span per stage
// traversal when a profiler is attached — begin/end are virtual times the
// models already compute to schedule their events, so attribution costs
// nothing in simulated time and nothing at all when detached. The profiler
// aggregates spans into per-stage histograms (the "where does a microsecond
// go" table) and can retain the raw events for Perfetto export.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/time.hpp"

namespace vibe::obs {

/// Pipeline stages of one message, in traversal order. EndToEnd is the
/// derived post-to-receive-completion envelope, recorded alongside the
/// stages so attribution sums can be checked against it.
enum class Stage : std::uint8_t {
  Post,        // VIPL library: descriptor build + doorbell ring (host CPU)
  Doorbell,    // NIC discovery of the rung doorbell (pickup latency)
  NicTx,       // NIC send processing + translation + DMA to the wire
  Wire,        // link serialization + propagation + switch forwarding
  Rx,          // receive-side NIC/kernel processing
  Reassembly,  // descriptor match + placement DMA into host memory
  Completion,  // completion writeback to the host
  EndToEnd,    // whole journey: post time -> receive completion written
  Reconnect,   // session recovery episode: connection loss -> re-established
  kCount,
};

const char* toString(Stage s);

/// True for the stages that tile a message's one-way journey (everything
/// except the derived EndToEnd envelope and the out-of-band Reconnect
/// episodes, which span whole outages rather than one message's hops).
constexpr bool isPipelineStage(Stage s) {
  return s != Stage::EndToEnd && s != Stage::Reconnect && s != Stage::kCount;
}

/// One stage traversal. `node`/`vi` attribute the span to the side that
/// performed the work (the sender for Post..Wire, the receiver from Rx on).
struct SpanEvent {
  Stage stage = Stage::Post;
  std::uint32_t node = 0;
  std::uint32_t vi = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::uint64_t bytes = 0;
};

class SpanProfiler {
 public:
  /// `maxEvents` bounds raw-event retention (aggregation is unaffected);
  /// events beyond the cap are dropped and counted.
  explicit SpanProfiler(std::size_t maxEvents = 1u << 20)
      : maxEvents_(maxEvents) {}

  /// Retain raw events for export (off by default: aggregate-only).
  void setKeepEvents(bool keep) { keepEvents_ = keep; }

  /// Records a completed span. A span with end < begin is malformed: it is
  /// dropped and counted as a mismatch.
  void emit(Stage stage, std::uint32_t node, std::uint32_t vi,
            sim::SimTime begin, sim::SimTime end, std::uint64_t bytes = 0);

  /// Malformed emit calls.
  std::uint64_t mismatchCount() const { return mismatches_; }

  const Histogram& stage(Stage s) const {
    return byStage_.at(static_cast<std::size_t>(s));
  }
  std::uint64_t totalSpans() const { return totalSpans_; }

  const std::vector<SpanEvent>& events() const { return events_; }
  std::uint64_t eventsDropped() const { return eventsDropped_; }

  /// Delivered messages attributed so far (EndToEnd span count, falling
  /// back to the busiest pipeline stage when EndToEnd was never emitted).
  std::size_t messageCount() const;

  /// Per-message stage attribution sum, in usec: each pipeline stage's
  /// total time divided by the message count, summed. Stages traversed
  /// several times per message (Wire hops, multi-fragment NicTx) count in
  /// full, so this should match the EndToEnd mean up to pipelining overlap.
  double stageMeanSumUsec() const;

  /// Aligned-text attribution table: one row per stage with count, mean,
  /// p50/p99 and share of the stage-sum, plus the end-to-end cross-check.
  std::string renderAttribution() const;

  void clear();

  /// Merges another profiler into this one: per-stage histograms merge,
  /// retained events concatenate in the other's recorded order (call in
  /// shard order so the combined buffer is schedule-independent), and the
  /// span/mismatch/drop counters add.
  void mergeFrom(const SpanProfiler& other);

 private:
  std::array<Histogram, static_cast<std::size_t>(Stage::kCount)> byStage_;
  std::vector<SpanEvent> events_;
  std::size_t maxEvents_;
  bool keepEvents_ = false;
  std::uint64_t totalSpans_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t eventsDropped_ = 0;
};

}  // namespace vibe::obs
