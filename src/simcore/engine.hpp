// Deterministic discrete-event engine.
//
// The engine owns a single event queue ordered by (time, insertion sequence)
// so ties break deterministically. Exactly one logical thread of control is
// ever executing simulation code: either the engine's dispatch loop or one
// cooperative Process (see process.hpp) that the loop has handed control
// to. All simulation state can therefore be touched without locks.
//
// One driver: only a ShardedEngine (pdes.hpp) constructs an Engine, one
// per domain (domainEngine()), and runs its events, window by window. To
// run a model without a suite::Cluster, build it on the one domain of
// ShardedEngine(EngineConfig{}) and drive that.
//
// Storage layout: event callbacks live in a slab/free-list pool and the
// queue is a binary heap of small POD handles {time, seq, slot, gen}. An
// EventId encodes (generation << 32 | slot + 1); cancel() bumps the slot's
// generation and returns the slot to the free list in O(1) — the callback
// is destroyed immediately, so a cancelled event never pins memory until
// its fire time. Stale heap handles (generation mismatch) are skipped on
// pop and compacted away once they outnumber live events, keeping the heap
// within a constant factor of the live event count under post+cancel-heavy
// workloads (e.g. retransmission timers).
//
// The dispatch bound: while a window runs, the engine records the last
// time it may fire, windowEnd - 1 (the horizon under
// ShardedEngine::runUntil(h), whose windows end at h + 1), and below every
// time outside a window. A Process's resume steps in place only up to it
// (see process.hpp), so the step never passes a horizon or a window end,
// nor the cross-domain merge and the sampler flush that follow a window.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/event_fn.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

class Process;

/// Identifier for a scheduled event; usable with Engine::cancel. The value
/// 0 is never issued and is safe to use as a "no event" sentinel.
using EventId = std::uint64_t;

/// Base class for simulator errors.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by ShardedEngine::run (and a draining ShardedEngine::runUntil)
/// when every event queue drains while processes are still blocked on
/// signals — the simulated program can never finish.
class DeadlockError : public SimError {
 public:
  using SimError::SimError;
};

class Engine {
 public:
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. `delay` must be >= 0 and `fn`
  /// must be a non-null callable (a null std::function throws SimError).
  EventId post(Duration delay, EventFn fn) {
    return postAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t`. `t` must be >= now(). Throws
  /// SimError while the engine is parked between the windows of a running
  /// ShardedEngine: posting into or cancelling on a parked foreign domain
  /// is exactly the cross-domain mutation the PDES contract forbids (use
  /// ShardedEngine::sendAt).
  EventId postAt(SimTime t, EventFn fn);

  /// Cancels a pending event in O(1). Returns true if the event had not yet
  /// fired (nor been cancelled). The callback is destroyed immediately and
  /// its pool slot recycled; a later cancel of the same id returns false.
  /// Throws SimError while parked, as postAt does.
  bool cancel(EventId id);

  /// Sentinel time: no pending event.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

  /// The process currently executing, or nullptr when the engine itself
  /// (an event callback) is running. VIPL uses this to charge host CPU
  /// cost to the calling application thread.
  Process* currentProcess() const { return current_; }

  /// Total events executed so far (diagnostics / gbench).
  std::uint64_t executedEvents() const { return executed_; }

  /// --- Introspection for tests and diagnostics ---

  /// Events scheduled and not yet fired or cancelled.
  std::size_t pendingEvents() const { return live_; }
  /// Heap entries, including stale handles awaiting compaction. Bounded by
  /// 2 * pendingEvents() + a small constant.
  std::size_t queuedHandles() const { return heap_.size(); }
  /// Pool slots ever allocated (high-water mark of concurrently pending
  /// events, rounded up to the slab size). Freed slots are recycled.
  std::size_t poolSlots() const { return slotCount_; }

 private:
  friend class Process;
  friend class ShardedEngine;

  Engine() = default;

  /// --- Windowed driving (conservative PDES), for ShardedEngine ---
  ///
  /// A run is a sequence of runWindow calls, bracketed by setWindowedMode;
  /// cross-domain arrivals merge between windows via postAtMerge.

  /// Executes every pending event with time strictly before `windowEnd`,
  /// in (time, insertion seq) order, skipping cancelled handles. Performs
  /// no deadlock check (the queue legitimately drains while other domains
  /// still hold events) and never advances now() past the last executed
  /// event. Returns the number of events executed.
  std::uint64_t runWindow(SimTime windowEnd);

  /// Time of the earliest pending event, or kNoEventTime when none. Prunes
  /// stale (cancelled) handles off the top of the heap as it looks.
  SimTime nextEventTime();

  /// Advances now() to `t`; no-op when t <= now(). ShardedEngine::runUntil
  /// uses this to land the clock on the horizon.
  void advanceTo(SimTime t);

  /// The parked guard of postAt/cancel (see postAt). Toggling it changes
  /// nothing until they are called outside an open window.
  void setWindowedMode(bool on) { windowed_ = on; }

  /// postAt bypassing the windowed guard: the ShardedEngine outbox merge
  /// runs between windows (single-threaded, in the completion step) and
  /// is the one sanctioned writer into parked engines.
  EventId postAtMerge(SimTime t, EventFn fn) {
    return postAtImpl(t, std::move(fn));
  }

  /// The names of the processes blocked on a signal, joined with ", "
  /// (empty when none is). A ShardedEngine run builds its drain-time
  /// deadlock message from it.
  std::string blockedProcessNames() const;

  // 24-byte POD heap entry; the callback lives in the pool.
  struct Handle {
    SimTime time;
    std::uint64_t seq;   // insertion order; total tie-break
    std::uint32_t slot;  // pool index
    std::uint32_t gen;   // matches Slot::gen while the event is live
  };
  struct HandleAfter {
    // std::*_heap build a max-heap; invert for earliest-(time, seq)-first.
    bool operator()(const Handle& a, const Handle& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t nextFree = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlabBits = 8;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  Slot& slotAt(std::uint32_t s) {
    return slabs_[s >> kSlabBits][s & (kSlabSize - 1)];
  }
  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t s) {
    Slot& sl = slotAt(s);
    sl.nextFree = freeHead_;
    freeHead_ = s;
  }
  /// Rebuilds the heap without stale handles once they dominate. O(n),
  /// amortized O(1) per cancel; ordering is unaffected because
  /// (time, seq) is a total order.
  void compactIfStale();
  // Records the open window's bound for stepInPlace; exception-safe.
  struct DispatchScope {
    DispatchScope(Engine& e, SimTime last) : engine(e) {
      engine.dispatchLast_ = last;
    }
    ~DispatchScope() { engine.dispatchLast_ = kNoDispatch; }
    DispatchScope(const DispatchScope&) = delete;
    DispatchScope& operator=(const DispatchScope&) = delete;
    Engine& engine;
  };
  /// True between the windows of a running ShardedEngine.
  bool parked() const { return windowed_ && dispatchLast_ == kNoDispatch; }
  EventId postAtImpl(SimTime t, EventFn fn);
  /// Takes the running process's resume at `t` in place when it would be
  /// the dispatch's next event: t within the dispatch bound and no live
  /// event at or before t (one at t was posted first, so it runs first).
  /// Then does what popping that event would: now() = t, one more
  /// executed event, one sequence number consumed. Returns false, leaving
  /// the caller to post and yield, otherwise.
  bool stepInPlace(SimTime t);
  void registerProcess(Process* p) { processes_.push_back(p); }
  void unregisterProcess(Process* p);

  /// Below any event time: no window is open, so nothing steps in place.
  static constexpr SimTime kNoDispatch = std::numeric_limits<SimTime>::min();

  SimTime now_ = 0;
  SimTime dispatchLast_ = kNoDispatch;  // the open window's bound
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;

  std::vector<Handle> heap_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t slotCount_ = 0;
  std::size_t live_ = 0;
  std::size_t staleInHeap_ = 0;

  std::vector<Process*> processes_;
  Process* current_ = nullptr;
  bool windowed_ = false;
};

}  // namespace vibe::sim
