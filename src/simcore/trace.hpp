// Lightweight event tracing for the simulator.
//
// A Tracer records (time, category, component, message) tuples into a
// bounded ring buffer; recording is O(1) once the ring is warm. Categories
// can be enabled per-run to debug a single subsystem (e.g. only
// reliability retransmissions) without drowning in doorbell noise. The NIC
// models and the provider emit trace points through sim::trace, which
// builds a point's message text only when a Tracer is attached and the
// point's category is enabled; by default nothing is built or recorded.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "simcore/time.hpp"

namespace vibe::sim {

enum class TraceCategory : std::uint8_t {
  Engine,       // event dispatch milestones
  Process,      // process lifecycle
  Doorbell,     // descriptor posting / pickup
  Dma,          // DMA transactions
  Wire,         // frames entering the fabric
  Rx,           // receive-path processing
  Completion,   // completions delivered to the provider
  Reliability,  // acks, retransmissions, window stalls
  Connection,   // connect/accept/disconnect dialogs
  Translation,  // address-translation hits/misses
  Session,      // session layer: epochs, replay, dedup, recovery phases
  User,         // application-level marks
  kCount,
};

const char* toString(TraceCategory c);

struct TraceRecord {
  SimTime time = 0;
  TraceCategory category = TraceCategory::User;
  std::uint32_t component = 0;  // e.g. node id
  std::string message;
};

class Tracer {
 public:
  /// Observes every record accepted by `record` (enabled categories only),
  /// in record order, including records later overwritten by the ring.
  using Sink = std::function<void(const TraceRecord&)>;

  /// `capacity`: ring size; the newest records win. Capacity 0 keeps no
  /// records: the digest, totalRecorded() and the sink still see every
  /// record, while snapshot() and dump() return empty.
  explicit Tracer(std::size_t capacity = 4096);

  /// Enables one category (all start disabled).
  void enable(TraceCategory c) { enabled_[idx(c)] = true; }
  void enableAll();
  bool enabled(TraceCategory c) const { return enabled_[idx(c)]; }

  /// Records if the category is enabled. `message` is copied.
  void record(SimTime time, TraceCategory c, std::uint32_t component,
              std::string message);

  /// Streams accepted records to `sink` as they are recorded. The sink
  /// sees the full stream regardless of ring capacity; invariant checkers
  /// consume this. Pass nullptr to detach.
  void setSink(Sink sink) { sink_ = std::move(sink); }

  /// Records seen (including overwritten ones).
  std::uint64_t totalRecorded() const { return total_; }
  /// Running FNV-1a hash over every accepted record — time, category,
  /// component, and message bytes — independent of ring capacity. Two runs
  /// of a deterministic simulation with identical category enablement
  /// produce identical digests; use it to compare runs byte-for-byte
  /// without retaining the full stream.
  std::uint64_t digest() const { return digest_; }
  /// Folds a per-shard digest into a sweep-level digest: FNV-1a over the
  /// shard digest's bytes. Fold shard digests in shard index order (seeded
  /// with kDigestSeed) and the result is independent of which threads
  /// produced them — the composition rule the parallel sweep harness uses.
  static constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t combineDigest(std::uint64_t acc,
                                               std::uint64_t shardDigest) {
    for (int i = 0; i < 8; ++i) {
      acc ^= (shardDigest >> (8 * i)) & 0xffu;
      acc *= 0x100000001b3ull;
    }
    return acc;
  }
  /// Records currently retained, oldest first.
  std::vector<TraceRecord> snapshot() const;
  /// Renders the retained records as aligned text.
  std::string dump() const;
  void clear();

 private:
  static std::size_t idx(TraceCategory c) {
    return static_cast<std::size_t>(c);
  }

  std::array<bool, static_cast<std::size_t>(TraceCategory::kCount)> enabled_{};
  std::vector<TraceRecord> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  Sink sink_;
};

/// Records into an optional tracer. `build` returns the message text and
/// runs only when `t` is non-null and `c` is enabled, so a detached or
/// filtered trace point formats and allocates nothing:
///
///   sim::trace(tracer_, now, TraceCategory::Rx, node_,
///              [&] { return "frag seq=" + std::to_string(seq); });
template <typename Build>
  requires std::is_invocable_r_v<std::string, Build&>
void trace(Tracer* t, SimTime time, TraceCategory c, std::uint32_t component,
           Build&& build) {
  if (t != nullptr && t->enabled(c)) t->record(time, c, component, build());
}

}  // namespace vibe::sim
