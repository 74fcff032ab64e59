// Conservative parallel discrete-event engine (PDES).
//
// A ShardedEngine partitions a simulation into `domains` — state-disjoint
// groups (the VIA stack uses one per fabric switch, with its hosts under
// the edge switches) — and hosts one full serial sim::Engine per domain
// (domainEngine()). Within a domain the whole serial API is legal:
// cancellable timers, cooperative Processes, tracers. Domains are packed
// onto `shards` (domain d belongs to shard d % shards) and advance in
// lockstep windows of virtual time:
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
// engines. A parked engine rejects postAt/cancel outright (the
// windowed-mode guard of sim::Engine).
//
// Window dispatch: each shard has a home thread (shard 0's is the thread
// that calls run(); a run starts shards - 1 more), parked on its own
// futex word while it has no work. Only the shards with an event before
// the window's end are active. The thread that finishes a window's last
// active shard runs the completion step — the domain-ordered merge and
// the next window's bounds — then runs one active shard of the next
// window itself (its own if active, else the lowest-numbered one) and
// wakes only the home threads of the others. A shard therefore runs on
// more than one thread over a run, and so do the Process fibers of its
// domains; exactly one thread runs a shard at a time. At one shard the
// same loop starts no thread and wakes no one.
//
// Determinism contract (see docs/PDES.md): a hosted engine breaks ties at
// one timestamp by insertion order. Events a domain posts to itself are
// inserted as it runs; cross-domain arrivals are inserted by the merge,
// which drains the outboxes in ascending source-domain order, entries in
// send order, whatever the shard count — even when source and
// destination share a shard. The window bounds come from the heap keys
// each domain files, not from the shard packing, so every domain's
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
  // for work (0 at one shard, which never parks).
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
  /// Shards; a run uses the calling thread plus shards - 1 more. 0 =
  /// shardCount() (VIBE_SIM_SHARDS / hardware). Clamped to `domains`. 1
  /// runs inline with no other thread.
  unsigned shards = 0;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const EngineConfig& cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  std::uint32_t domainCount() const { return domainCountU32_; }
  /// Shards actually used (after the env default and the domain clamp).
  unsigned shards() const { return shards_; }
  Duration lookahead() const { return lookahead_; }
  /// Shard that owns a domain (round-robin packing).
  std::uint32_t shardOf(std::uint32_t domain) const {
    return domain % shards_;
  }

  /// The serial engine hosted by `domain`. Build the domain's simulation
  /// state (NICs, processes, timers) directly on it; during run() it is
  /// driven in lockstep windows.
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
  /// executed, none at or after T has, so `flush` may read any domain's
  /// state and sees exactly what a serial TimeObserver would at
  /// boundaries <= T. The hook cannot post into or cancel on a parked
  /// domain engine (that throws); its sendAt() is held to the window
  /// starting at T. Pass (0, nullptr) to clear.
  void setBoundaryHook(Duration period, std::function<void(SimTime)> flush);

  /// Max over domain clocks — the equivalent of Engine::now() after a run
  /// (the time of the last executed event, or the horizon).
  SimTime maxNow() const;

  /// Runs windows until every domain queue and mailbox drains. Rethrows
  /// the first (lowest-shard) exception raised by an event callback, after
  /// the failed window's merge; the engine can run again. Throws
  /// DeadlockError after the drain if any hosted process is still blocked
  /// on a signal (the global analogue of the serial engine's drain-time
  /// deadlock check).
  void run();

  /// Runs events with time <= `until` (absolute). Returns true if the
  /// queues drained completely. Domain clocks never move backwards.
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

  /// --- Runtime profiler (opt-in; see docs/PDES.md) ---

  /// Enables per-shard wall-clock profiling for subsequent run()s. The
  /// timers feed diagnostics only — nothing they measure flows back into
  /// the simulation, so the determinism contract is unaffected (pinned
  /// by test_pdes). Call between runs, not during one.
  void setProfiling(bool on);
  bool profiling() const { return profiling_; }

  /// One snapshot per shard: deterministic event/window counts summed
  /// from the shard's domains plus wall-clock exec, parked and completion
  /// time accumulated while profiling was enabled. Call when not running.
  std::vector<ShardProfile> shardProfiles() const;

  /// max/mean of per-shard executed events: 1.0 = perfectly balanced.
  /// Returns 1.0 when nothing executed.
  double loadImbalance() const;

 private:
  struct Domain;

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
  void runShard(unsigned shard);
  unsigned completeWindow(unsigned home);
  unsigned dispatchWindow(unsigned home);
  void wake(unsigned shard);
  SimTime clampToBoundary(SimTime t, SimTime windowEnd) const;
  void setWindowedMode(bool on);
  void checkDeadlock() const;
  bool runDispatch(SimTime horizon);
  void markOutboxDirty(std::uint32_t src);
  void initRunnable();
  void pushRunnable(std::uint32_t d, SimTime t);
  SimTime runnableTop(unsigned shard) const;
  void pruneTop(unsigned shard);
  std::uint64_t execShardWindow(unsigned shard, SimTime windowEnd);

  std::vector<Domain> domains_;
  Duration boundaryPeriod_ = 0;
  std::function<void(SimTime)> boundaryFlush_;
  std::uint32_t domainCountU32_ = 0;
  unsigned shards_ = 1;
  Duration lookahead_ = 0;
  std::uint64_t windows_ = 0;
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
  std::vector<std::exception_ptr> shardErrors_;
  std::unique_ptr<Parker[]> parkers_;  // one per shard when shards_ > 1
  std::atomic<unsigned> pending_{0};   // active shards still running

  // Runnable-domain heaps: at thousands of mostly-idle domains, touching
  // every domain every window — an O(domains) next-event scan in the
  // completion step plus an O(domains/shards) execute pass per shard — is
  // the Amdahl floor of thin-window runs. Instead each shard keeps a
  // lazy min-heap of (next event time, domain) over the domains it owns,
  // so a window costs O(active domains · log). domKey_[d] is the key the
  // owner's heap currently holds for d (kNoEvent when absent): pushes
  // that don't beat it are skipped, pops that don't match it are stale
  // duplicates. A superseded entry can surface first (stale-low); the pop
  // skips it, costing at worst an empty window round. Rebuilt at every
  // run entry. Only a domain's own window and the merge change what a
  // domain holds (a boundary hook cannot post or cancel), and both re-file
  // it, so a live key is always the domain's real next event time.
  std::vector<std::vector<std::pair<SimTime, std::uint32_t>>> runnable_;
  std::vector<SimTime> domKey_;
  // Outbox dirty lists, per owning shard: domains that parked >= 1
  // cross-domain message this window. Single-writer (each shard appends
  // only its own list; a boundary hook appends from the completion step);
  // the merge gathers and sorts them so the drain runs in ascending
  // domain order.
  std::vector<std::vector<std::uint32_t>> dirtyByShard_;
  std::vector<std::uint32_t> dirtyScratch_;

  bool running_ = false;
};

}  // namespace vibe::sim
