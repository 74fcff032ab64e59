// Conservative parallel discrete-event engine (PDES).
//
// A ShardedEngine partitions a simulation into `domains` — state-disjoint
// groups (the VIA stack uses one per fabric switch, with its hosts under
// the edge switches) — and hosts one sim::Engine per domain
// (domainEngine()); it is the only driver of a sim::Engine. Within a
// domain the engine's whole model API is legal: cancellable timers,
// cooperative Processes, tracers. Domains are packed onto `shards`
// (domain d belongs to shard d % shards) and advance in lockstep windows
// of virtual time:
//
//   window = [T, T + lookahead)  where T is the global minimum pending
//   event time and `lookahead` is the minimum latency any cross-domain
//   interaction must pay (the smallest inter-switch hop of the fabric).
//
// Within one window every shard runs its domains' engines with no locks
// and no communication: a cross-domain message sent at time t >= T
// arrives at or after the window's end, so nothing a peer does during the
// window can affect events inside it. sendAt() is the only cross-domain
// path. It parks the message in the source domain's outbox, and the
// window's completion step merges the outboxes into the destination
// engines. A parked engine rejects postAt/cancel outright.
//
// Window dispatch: the thread that finishes a window's last active shard
// runs the completion step — the domain-ordered merge and the next
// window's bounds — and then chooses which of the next window's active
// shards (those with an event before the window's end) it runs itself.
// If the window just completed ran fewer than kFanOutEvents events, or
// only one shard is active, it runs every active shard itself, in
// ascending shard order, and wakes no one: the window runs inline, with
// no hand-off at all (no runner count, no per-shard event tally), and the
// same thread completes it. Otherwise the window fans out: it runs one
// active shard itself (its own if active, else the lowest-numbered one)
// and wakes only the home threads of the others, each parked on its own
// futex word. Shard 0's
// home thread is the thread that calls run(); the other shards - 1 home
// threads are started at the run's first fanned-out window and joined
// before run() returns, so a run whose windows are all thin, and every
// run at one shard, starts no thread. A shard therefore runs on more than
// one thread over a run, and so do the Process fibers of its domains;
// exactly one thread runs a shard at a time.
//
// Each shard files its domains in a runnable heap under their exact next
// event times, each domain at most once, so a window visits only the
// domains with work before its end, and each domain's engine lives in
// its domain slot (one array, allocated at construction).
//
// Determinism contract (see docs/PDES.md): a hosted engine breaks ties at
// one timestamp by insertion order. Events a domain posts to itself are
// inserted as it runs; cross-domain arrivals are inserted by the merge,
// which drains the outboxes in ascending source-domain order, entries in
// send order, whatever the shard count — even when source and
// destination share a shard. The window bounds come from each domain's
// exact next event time, not from the shard packing, so every domain's
// insertion order, and therefore its execution order and every
// per-domain output, is byte-identical for any shard count and any
// thread schedule.
//
// Use this engine to scale a *single* simulation across cores
// (VIBE_SIM_SHARDS), orthogonal to the sweep harness that runs
// independent simulations in parallel (VIBE_JOBS).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/event_fn.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

/// Shard count for sharded engines: the VIBE_SIM_SHARDS environment
/// variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1). Read on every call
/// so tests can flip the variable. Mirrors harness::jobCount().
unsigned shardCount();

/// Runtime-profiler snapshot for one shard of a ShardedEngine (see
/// shardProfiles()). Event/domain counts are deterministic; the *Ns
/// fields are host wall-clock and vary run to run — keep them out of
/// golden output.
struct ShardProfile {
  unsigned shard = 0;
  std::uint32_t domains = 0;        // domains packed onto this shard
  std::uint64_t events = 0;         // events executed by those domains
  std::uint64_t crossShardSent = 0; // sends that left this shard
  std::uint64_t windowsActive = 0;  // windows with >= 1 event here
  // Wall time executing this shard's events, on whichever thread ran them.
  std::uint64_t execNs = 0;
  // Wall time this shard's home thread spent parked, waiting to be woken
  // for work (0 at one shard, which never parks, and 0 for a shard whose
  // home thread never started because no window fanned out).
  std::uint64_t barrierWaitNs = 0;
  // Wall time this shard's home thread spent in completion steps: the
  // outbox merge, the next-window reduce and the wake-ups.
  std::uint64_t completionNs = 0;
};

/// Construction parameters for a ShardedEngine.
struct EngineConfig {
  /// Number of state-disjoint domains the model is partitioned into.
  std::uint32_t domains = 1;
  /// Minimum virtual-time latency of any cross-domain interaction; the
  /// conservative window width. Must be > 0 when more than one shard
  /// actually runs (with a single shard 0 is allowed: the window
  /// degenerates to one timestamp at a time). A single domain has no
  /// cross-domain traffic and runs to the horizon in one window.
  Duration lookahead = 0;
  /// Shards; domain d runs on shard d % shards. 0 = shardCount()
  /// (VIBE_SIM_SHARDS / hardware). Clamped to `domains`. A run uses the
  /// calling thread alone until a window fans out (see the header), and
  /// then shards - 1 more; 1 never starts another thread.
  unsigned shards = 0;
};

class ShardedEngine {
 public:
  /// A window fans out only after a window that ran at least this many
  /// events; after a thinner one its active shards run inline on one
  /// thread. One hand-off (a wake-up, a park and their context switches:
  /// about 3.6 us with every thread on one CPU) over the cost of one
  /// event (about 0.25 us) is about 14, rounded up to a power of two;
  /// docs/PDES.md has the measurement.
  static constexpr std::uint64_t kFanOutEvents = 16;

  explicit ShardedEngine(const EngineConfig& cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  std::uint32_t domainCount() const { return domainCountU32_; }
  /// Shards actually used (after the env default and the domain clamp).
  unsigned shards() const { return shards_; }
  Duration lookahead() const { return lookahead_; }
  /// The engine hosted by `domain`. Build the domain's simulation state
  /// (NICs, processes, timers) directly on it; during run() it is driven
  /// in lockstep windows.
  Engine& domainEngine(std::uint32_t domain);

  /// Cross-domain delivery: `fn` runs in `dst`'s engine at absolute time
  /// `at`. During run() `at` must lie at or past the end of the open
  /// window — for a boundary hook, the window about to run (i.e. the
  /// caller must have paid the lookahead; link serialization +
  /// propagation guarantees this for fabric traffic); violations throw
  /// SimError. src == dst posts directly. Setup-time calls (before run())
  /// schedule directly too.
  void sendAt(std::uint32_t src, std::uint32_t dst, SimTime at, EventFn fn);

  /// Sampling support: clamps every window end to the next multiple of
  /// `period` and invokes `flush(T)` at each window start T from the
  /// single-threaded completion step — every event strictly before T has
  /// executed, none at or after T has, and none fell between the last
  /// window's events and T, so `flush` may read any domain's state as the
  /// state at every boundary <= T it has not seen yet. This is the clock
  /// that fills a TimeSeriesSampler (suite::Cluster sets it). The hook
  /// cannot post into or cancel on a parked domain engine (that throws);
  /// its sendAt() is held to the window starting at T. Pass (0, nullptr)
  /// to clear.
  void setBoundaryHook(Duration period, std::function<void(SimTime)> flush);

  /// Max over domain clocks — the equivalent of Engine::now() after a run
  /// (the time of the last executed event, or the horizon).
  SimTime maxNow() const;

  /// Runs windows until every domain queue and mailbox drains. Rethrows
  /// the first (lowest-shard) exception raised by an event callback, after
  /// the failed window's merge; the engine can run again. Throws
  /// DeadlockError after the drain if any hosted process is still blocked
  /// on a signal. Throws SimError, touching nothing, when entered while
  /// the engine is running: from one of its events, or from another
  /// thread.
  void run();

  /// Runs events with time <= `until` (absolute), then lands every domain
  /// clock on `until` (clocks never move backwards). Returns true if the
  /// queues drained completely, after the deadlock check run() makes.
  bool runUntil(SimTime until);

  /// --- Introspection (sum over domains; call when not running) ---

  /// Total events executed.
  std::uint64_t executedEvents() const;
  /// Events scheduled and not yet fired (pending in engines + outboxes).
  std::uint64_t pendingEvents() const;
  /// sendAt() calls with src != dst (independent of the shard count).
  std::uint64_t crossDomainEvents() const;
  /// sendAt() calls whose source and destination domains live on
  /// different shards.
  std::uint64_t crossShardEvents() const;
  /// Conservative windows executed (one completion step each).
  std::uint64_t windowsExecuted() const { return windows_; }
  /// Windows handed to more than one thread, and windows one thread ran
  /// alone. Counted when a window is dispatched, so the two sum to
  /// windowsExecuted(); like it, they depend only on the simulation and
  /// the shard count, never on the thread schedule.
  std::uint64_t fannedOutWindows() const { return fannedOut_; }
  std::uint64_t inlineWindows() const { return inline_; }

  /// --- Runtime profiler (opt-in; see docs/PDES.md) ---

  /// Enables per-shard wall-clock profiling for subsequent run()s. The
  /// timers feed diagnostics only — nothing they measure flows back into
  /// the simulation, so the determinism contract is unaffected (pinned
  /// by test_pdes). Call between runs, not during one.
  void setProfiling(bool on);

  /// One snapshot per shard: deterministic event/window counts summed
  /// from the shard's domains plus wall-clock exec, parked and completion
  /// time accumulated while profiling was enabled. Call when not running.
  std::vector<ShardProfile> shardProfiles() const;

  /// max/mean of per-shard executed events: 1.0 = perfectly balanced.
  /// Returns 1.0 when nothing executed.
  double loadImbalance() const;

 private:
  struct Domain;

  // A domain filed in its shard's runnable heap under its next event time.
  struct RunEntry {
    SimTime time;
    std::uint32_t domain;
    // The heap order: earliest time first, then lowest domain. Each domain
    // is filed at most once, so no two entries tie.
    bool before(const RunEntry& o) const {
      return time != o.time ? time < o.time : domain < o.domain;
    }
  };

  // One shard's run state. Cache-line aligned: in a fanned-out window each
  // shard's runner writes only its own entry.
  struct alignas(64) Shard {
    // Runnable heap: an indexed min-heap on (next event time, domain) over
    // the shard's domains that have a pending event, each filed at most
    // once (Domain::heapPos is its slot), so a window visits only the
    // domains with work before its end, and the next window's start is an
    // O(shards) reduce over the roots. A domain's key is its exact next
    // event time: only its own window and the merge change its events (a
    // boundary hook cannot post or cancel), and the window re-keys it
    // after it runs while the merge lowers its key in place. Rebuilt at
    // every run entry; reserved at construction to the shard's domains.
    std::vector<RunEntry> runnable;
    // Domains that parked >= 1 cross-domain message this window, in the
    // order they first did. Appended only by the thread running the shard
    // (or by a boundary hook, from the completion step); the merge sorts
    // them into ascending domain order.
    std::vector<std::uint32_t> dirty;
    // Events the shard ran in the open fanned-out window: written by the
    // thread that ran it, summed and cleared by the completion step after
    // the pending_ hand-off. Inline windows count their own.
    std::uint64_t windowEvents = 0;
    // The first exception an event of this shard raised in this run.
    std::exception_ptr error;
  };

  // Per-shard wall-clock accumulators; cache-line aligned because several
  // threads write distinct entries concurrently during a parallel run.
  // execNs/windowsActive are charged by whichever thread runs the shard,
  // the other two by the shard's home thread; the window hand-offs order
  // every pair of writes to one entry.
  struct alignas(64) ShardTiming {
    std::uint64_t execNs = 0;
    std::uint64_t barrierWaitNs = 0;
    std::uint64_t completionNs = 0;
    std::uint64_t windowsActive = 0;
  };

  // The futex word a shard's home thread parks on. The waker bumps it
  // once per wake-up; a thread is woken only while parked (or about to
  // park), so a bump is never lost and never doubled.
  struct alignas(64) Parker {
    std::atomic<std::uint32_t> ticket{0};
  };

  void deliverOutboxes();
  bool runWindows(SimTime horizon);
  void prepareWindow();
  void serveShard(unsigned home, unsigned shard);
  std::uint64_t runShard(unsigned shard);
  std::uint64_t runInline();
  unsigned completeWindow(unsigned home, std::uint64_t events);
  unsigned dispatchWindow(unsigned home);
  void startThreads();
  void joinThreads();
  void wake(unsigned shard);
  SimTime clampToBoundary(SimTime t, SimTime windowEnd) const;
  void setWindowedMode(bool on);
  void checkDeadlock() const;
  bool runDispatch(SimTime horizon);
  void initRunnable();
  void fileRunnable(std::uint32_t d, SimTime t);
  void siftUp(std::vector<RunEntry>& heap, std::uint32_t i);
  void siftDown(std::vector<RunEntry>& heap, std::uint32_t i);
  SimTime runnableTop(unsigned shard) const;
  std::uint64_t execShardWindow(unsigned shard, SimTime windowEnd);

  // Every domain with its engine in place, in one block allocated at
  // construction.
  std::vector<Domain> domains_;
  std::vector<Shard> perShard_;  // one per shard, allocated at construction
  Duration boundaryPeriod_ = 0;
  std::function<void(SimTime)> boundaryFlush_;
  std::uint32_t domainCountU32_ = 0;
  unsigned shards_ = 1;
  Duration lookahead_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t fannedOut_ = 0;
  std::uint64_t inline_ = 0;
  // Events the last completed window ran, the predictor of the next
  // window's: it fans out only from kFanOutEvents up. Kept across runs.
  std::uint64_t lastWindowEvents_ = 0;
  bool profiling_ = false;
  std::vector<ShardTiming> timing_;  // sized to shards_ when profiling

  // Run state shared between threads. Written only by the completion step
  // (or before the threads start) and read by a shard's runner after its
  // hand-off: the last runner's acq_rel decrement of pending_ carries
  // every runner's writes to the completion step, and a wake-up's
  // release/acquire on the ticket carries the step's writes on.
  SimTime windowEnd_ = 0;
  SimTime horizon_ = 0;
  bool drained_ = false;
  bool done_ = false;
  std::atomic<bool> abort_{false};
  // Runners still in the open fanned-out window, one per active shard.
  // Inline windows never touch it.
  std::atomic<unsigned> pending_{0};
  // Allocated at the engine's first fanned-out window, one per shard.
  std::unique_ptr<Parker[]> parkers_;
  // The home threads of shards 1.., started by the calling thread at a
  // run's first fanned-out window and joined when the run ends.
  std::vector<std::thread> pool_;
  // The merge's gather buffer when more than one shard's list is dirty.
  std::vector<std::uint32_t> dirtyScratch_;

  // Set for the whole of run()/runUntil(); the exchange that sets it is
  // the check against a recursive or second-thread entry.
  std::atomic<bool> running_{false};
};

}  // namespace vibe::sim
