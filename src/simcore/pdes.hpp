// Conservative parallel discrete-event engine (PDES).
//
// A ShardedEngine partitions simulation state into `domains` — logical
// groups (e.g. the hosts under one edge switch) whose events never touch
// another domain's state directly. Domains are packed onto `shards`
// (domain d belongs to shard d % shards) and advance in lockstep windows
// of virtual time:
//
//   window = [T, T + lookahead)  where T is the global minimum pending
//   event time and `lookahead` is the minimum latency any cross-domain
//   interaction must pay (the smallest cross-shard link latency in the
//   fabric being modeled).
//
// Within one window every shard executes its domains' events with no
// locks and no communication: a cross-domain message sent at time
// t >= T arrives at t + delay >= T + lookahead, i.e. at or after the
// window's end, so nothing a peer does during the window can affect
// events inside it. Cross-domain sends are buffered in per-domain
// outboxes (the "mailbox") and merged into the destination domains by
// the window's completion step.
//
// Window dispatch: each shard has a home thread (shard 0's is the thread
// that calls run()), parked on its own futex word while it has no work.
// Only the shards with an event before the window's end are active. The
// thread that finishes a window's last active shard runs the completion
// step — the domain-ordered merge and the next-window bounds — then runs
// one active shard of the next window itself (its own if active, else the
// lowest-numbered one) and wakes only the home threads of the others. A
// shard therefore runs on more than one thread over a run, and so do the
// Process fibers of its domains; exactly one thread runs a shard at a
// time.
//
// Determinism contract (see docs/PDES.md):
//   Every event carries the key (time, srcDomain, srcSeq), where srcSeq
//   is a per-domain counter stamped when the event is posted or sent.
//   Each domain executes its events in ascending key order, and the
//   conservative window guarantees a key can never arrive after a larger
//   key has executed. Because the key is stamped by the *posting* domain
//   — never by a shard or thread — the per-domain execution order, and
//   therefore every per-domain output, is byte-identical for any shard
//   count and any thread schedule. shards=1 runs the same window loop
//   inline on the calling thread: no pool, no parking, no atomics — the
//   exact serial path, mirroring the harness's VIBE_JOBS=1 contract.
//
// Two modes share the window machinery:
//
//   Synthetic (default)  the engine owns per-domain keyed heaps and the
//                        callback-only post()/send() API — no cancel, no
//                        processes. The traffic models built before the
//                        stack port use this.
//   Hosted               `EngineConfig::hostEngines`: every domain hosts
//                        a full serial sim::Engine (cancellable timers,
//                        cooperative Processes), driven window-by-window
//                        via Engine::runWindow. Within a domain the full
//                        serial feature set — including O(1) timer
//                        cancel — is legal; *cross-domain* interaction is
//                        restricted to sendAt(), and a parked foreign
//                        engine rejects postAt/cancel outright (the
//                        windowed-mode guard). This is what the VIA
//                        NIC/VIPL/Cluster stack runs on.
//
// In hosted mode every cross-domain send goes through the per-domain
// outbox even when source and destination share a shard: a hosted
// engine's tie order is insertion order, so delivery must always happen
// in the completion step, in domain order, for the executed schedule to
// be byte-identical at any shard count.
//
// Use this substrate for domain-partitioned models that must scale a
// *single* simulation across cores (VIBE_SIM_SHARDS), orthogonal to the
// sweep harness that runs independent simulations in parallel
// (VIBE_JOBS).
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
  // for work (0 on the serial path, which never parks).
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
  /// degenerates to one timestamp at a time).
  Duration lookahead = 0;
  /// Shards; a run uses the calling thread plus shards - 1 more. 0 =
  /// shardCount() (VIBE_SIM_SHARDS / hardware). Clamped to `domains`. 1
  /// runs inline with no other thread.
  unsigned shards = 0;
  /// Hosted mode: each domain owns a full serial sim::Engine reachable
  /// via domainEngine(). post()/send() are disabled in favor of the
  /// hosted engines' own API plus sendAt() for cross-domain delivery.
  bool hostEngines = false;
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

  /// Virtual time of `domain`: the time of its currently executing event
  /// during run(), its last executed event (or the horizon) otherwise.
  /// During a parallel run, call only from `domain`'s own context.
  SimTime now(std::uint32_t domain) const;

  /// Schedules `fn` in `domain`, `delay` >= 0 from the domain's now().
  /// During run() this may only be called from an event executing in the
  /// same domain — cross-domain scheduling must go through send(), which
  /// is what keeps the execution order independent of the shard count.
  /// Before run() (setup) any domain may be targeted from the driving
  /// thread.
  void post(std::uint32_t domain, Duration delay, EventFn fn);

  /// Sends a cross-domain event: `fn` runs in `dst` at src.now() + delay.
  /// When src != dst, `delay` must be >= lookahead() — the conservative
  /// guarantee that makes the window safe; a smaller delay throws
  /// SimError. src == dst degenerates to post(). During run() this may
  /// only be called from an event executing in `src`.
  void send(std::uint32_t src, std::uint32_t dst, Duration delay,
            EventFn fn);

  /// --- Hosted mode (EngineConfig::hostEngines) ---

  bool hosted() const { return hosted_; }

  /// The serial engine hosted by `domain`. Build the domain's simulation
  /// state (NICs, processes, timers) directly on it; during run() it is
  /// driven in lockstep windows. Hosted mode only.
  Engine& domainEngine(std::uint32_t domain);

  /// Cross-domain delivery for hosted mode: `fn` runs in `dst`'s engine
  /// at absolute time `at`. During run() `at` must lie at or past the
  /// open window's end (i.e. the caller must have paid the lookahead —
  /// link serialization + propagation guarantees this for fabric
  /// traffic); violations throw SimError. src == dst posts directly.
  /// Setup-time calls (before run()) schedule directly too.
  void sendAt(std::uint32_t src, std::uint32_t dst, SimTime at, EventFn fn);

  /// Hosted-mode sampling support: clamps every window end to the next
  /// multiple of `period` and invokes `flush(T)` at each window start T
  /// from the single-threaded completion step — every event strictly
  /// before T has executed, none at or after T has, so `flush` may read
  /// any domain's state and sees exactly what a serial TimeObserver
  /// would at boundaries <= T. While a hook is set every shard is active
  /// in every window. Pass (0, nullptr) to clear.
  void setBoundaryHook(Duration period, std::function<void(SimTime)> flush);

  /// Max over domain clocks — the hosted equivalent of Engine::now()
  /// after a run (the time of the last executed event, or the horizon).
  SimTime maxNow() const;

  /// Runs windows until every domain queue and mailbox drains. Rethrows
  /// the first (lowest-shard) exception raised by an event callback. In
  /// hosted mode, throws DeadlockError after the drain if any hosted
  /// process is still blocked on a signal (the global analogue of the
  /// serial engine's drain-time deadlock check).
  void run();

  /// Runs events with time <= `until` (absolute). Returns true if the
  /// queues drained completely. Domain clocks never move backwards.
  bool runUntil(SimTime until);

  /// --- Introspection (sum over domains; call when not running) ---

  /// Total events executed.
  std::uint64_t executedEvents() const;
  /// Events scheduled and not yet fired (pending in heaps + mailboxes).
  std::uint64_t pendingEvents() const;
  /// send() calls with src != dst (independent of the shard count).
  std::uint64_t crossDomainEvents() const;
  /// send() calls whose source and destination domains live on different
  /// shards — the events that actually paid the mailbox.
  std::uint64_t crossShardEvents() const;
  /// Conservative windows executed (completion steps in a parallel run).
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
  struct CrossMsg;

  // Strict weak order "a fires after b" over the (time, src, seq) key.
  struct ItemAfter;

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

  SimTime nextEventTime() const;
  SimTime hostedNextEventTime();
  std::uint64_t runDomainWindow(std::uint32_t d, SimTime windowEnd);
  std::uint64_t execDomainWindow(std::uint32_t d, SimTime windowEnd);
  void deliverOutboxes();
  void pushEvent(Domain& dom, SimTime t, std::uint32_t srcDomain,
                 std::uint64_t seq, EventFn fn);
  bool runWindows(SimTime horizon);          // serial (shards_ == 1)
  bool runWindowsParallel(SimTime horizon);  // active-set dispatch
  void prepareWindow();
  void serveShard(unsigned home, unsigned shard);
  void runShard(unsigned shard);
  unsigned completeWindow(unsigned home);
  unsigned dispatchWindow(unsigned home);
  void wake(unsigned shard);
  void checkContext(std::uint32_t domain, const char* what) const;
  SimTime clampToBoundary(SimTime t, SimTime windowEnd) const;
  void setHostedWindowedMode(bool on);
  void checkHostedDeadlock() const;
  bool runDispatch(SimTime horizon);
  SimTime domainNextTime(std::uint32_t d);
  void markOutboxDirty(std::uint32_t src);
  void initRunnable();
  void pushRunnable(std::uint32_t d, SimTime t);
  SimTime runnableTop(unsigned shard) const;
  std::uint64_t execShardWindow(unsigned shard, SimTime windowEnd);

  std::vector<Domain> domains_;
  std::vector<std::unique_ptr<Engine>> engines_;  // hosted mode only
  bool hosted_ = false;
  Duration boundaryPeriod_ = 0;
  std::function<void(SimTime)> boundaryFlush_;
  std::uint32_t domainCountU32_ = 0;
  unsigned shards_ = 1;
  Duration lookahead_ = 0;
  std::uint64_t windows_ = 0;
  bool profiling_ = false;
  std::vector<ShardTiming> timing_;  // sized to shards_ when profiling

  // Parallel-run shared state. Written only by the completion step (or
  // before the threads start) and read by a shard's runner after its
  // hand-off: the last runner's acq_rel decrement of pending_ carries
  // every runner's writes to the completion step, and a wake-up's
  // release/acquire on the ticket carries the step's writes on.
  SimTime windowEnd_ = 0;
  SimTime horizon_ = 0;
  bool drained_ = false;
  bool done_ = false;
  std::atomic<bool> abort_{false};
  std::vector<std::exception_ptr> shardErrors_;
  std::unique_ptr<Parker[]> parkers_;  // one per shard, parallel runs only
  std::atomic<unsigned> pending_{0};   // active shards still running

  // Runnable-domain heaps: at thousands of mostly-idle domains, touching
  // every domain every window — the completion step's O(domains) next-
  // event scan plus each worker's O(domains/shards) execute pass — is
  // the Amdahl floor of thin-window runs. Instead each shard keeps a
  // lazy min-heap of (next event time, domain) over the domains it owns,
  // so a window costs O(active domains · log). domKey_[d] is the key the
  // owner's heap currently holds for d (kNoEvent when absent): pushes
  // that don't beat it are skipped, pops that don't match it are stale
  // duplicates. Keys may run stale-low (a superseded entry surfaces
  // first); the pop re-checks the real next time and re-files, costing
  // at worst an empty window round. Rebuilt at every run entry; disabled
  // while a boundary hook is set (the hook may schedule new work behind
  // the heaps' backs).
  std::vector<std::vector<std::pair<SimTime, std::uint32_t>>> runnable_;
  std::vector<SimTime> domKey_;
  bool runnableActive_ = false;
  // Outbox dirty lists, per owning shard: domains that parked >= 1
  // cross-domain message this window. Single-writer (each shard appends
  // only its own list, in ascending domain order); the merge gathers and
  // sorts them so the drain order stays the full scan's domain order.
  std::vector<std::vector<std::uint32_t>> dirtyByShard_;
  std::vector<std::uint32_t> dirtyScratch_;

  bool running_ = false;
};

}  // namespace vibe::sim
