#include "simcore/pdes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>

namespace vibe::sim {

namespace {

constexpr SimTime kNoEvent = Engine::kNoEventTime;
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

// Domain::heapPos of a domain with no pending event in its runnable heap.
constexpr std::uint32_t kNotFiled = std::numeric_limits<std::uint32_t>::max();

// What a dispatch hands the calling thread instead of one shard to run:
// every active shard of an inline window, or nothing (park, or the run is
// done).
constexpr unsigned kInline = std::numeric_limits<unsigned>::max();
constexpr unsigned kNoShard = kInline - 1;

constexpr SimTime satAdd(SimTime t, Duration d) {
  return t > kMaxTime - d ? kMaxTime : t + d;
}

std::uint64_t wallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Outbox entry: an absolute-time arrival bound for a foreign domain's
/// engine. No (srcDomain, seq) key — a hosted engine orders ties by its
/// own insertion sequence, which is why the merge must always run in
/// domain order in the completion step (see deliverOutboxes).
struct CrossMsg {
  SimTime time;
  std::uint32_t dstDomain;
  EventFn fn;
};

}  // namespace

unsigned shardCount() {
  if (const char* env = std::getenv("VIBE_SIM_SHARDS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Per-domain state, with the domain's engine in place. Cache-line
/// aligned: during a window each shard writes only its own domains'
/// engines, heap slots, outboxes and counters.
struct alignas(64) ShardedEngine::Domain {
  std::uint32_t heapPos = kNotFiled;  // slot in its shard's runnable heap
  std::uint32_t shard = 0;            // the owning shard, d % shards
  Engine engine;
  // Cross-domain sends originating here; drained at the end of the window
  // by the completion step. Per-domain (not per-shard) so every write is
  // single-writer and the merge can drain in domain order.
  std::vector<CrossMsg> outbox;
  std::uint64_t executed = 0;  // events this engine ran in windows
  std::uint64_t crossDomain = 0;
  // Cross-domain sends to another shard's domain, counted when they are
  // set up or merged, where both ends' shards are at hand.
  std::uint64_t crossShard = 0;
};

ShardedEngine::ShardedEngine(const EngineConfig& cfg)
    : domains_(cfg.domains),
      domainCountU32_(cfg.domains),
      lookahead_(cfg.lookahead) {
  if (cfg.domains == 0) {
    throw SimError("ShardedEngine: at least one domain is required");
  }
  if (cfg.lookahead < 0) {
    throw SimError("ShardedEngine: lookahead must be >= 0");
  }
  unsigned shards = cfg.shards != 0 ? cfg.shards : shardCount();
  if (shards > cfg.domains) shards = cfg.domains;
  shards_ = shards;
  if (shards_ > 1 && lookahead_ <= 0) {
    throw SimError(
        "ShardedEngine: conservative PDES needs lookahead > 0 to run more "
        "than one shard (no cross-shard latency means no safe window)");
  }
  perShard_ = std::vector<Shard>(shards_);
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    domains_[d].shard = d % shards_;
  }
  for (unsigned s = 0; s < shards_; ++s) {
    perShard_[s].runnable.reserve((domainCountU32_ - s + shards_ - 1) /
                                  shards_);
  }
}

ShardedEngine::~ShardedEngine() = default;

Engine& ShardedEngine::domainEngine(std::uint32_t domain) {
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::domainEngine: domain " +
                   std::to_string(domain) + " out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  return domains_[domain].engine;
}

void ShardedEngine::sendAt(std::uint32_t src, std::uint32_t dst, SimTime at,
                           EventFn fn) {
  if (!fn) throw SimError("ShardedEngine::sendAt: null callable");
  if (src >= domainCountU32_ || dst >= domainCountU32_) {
    throw SimError("ShardedEngine::sendAt: domain out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  Domain& from = domains_[src];
  if (src == dst) {
    from.engine.postAt(at, std::move(fn));
    return;
  }
  ++from.crossDomain;
  if (!running_) {
    // Setup phase, single driving thread: schedule directly.
    Domain& to = domains_[dst];
    if (from.shard != to.shard) ++from.crossShard;
    to.engine.postAt(at, std::move(fn));
    return;
  }
  if (at < windowEnd_) {
    throw SimError(
        "ShardedEngine::sendAt: cross-domain arrival at t=" +
        std::to_string(at) + " ns lands inside the open window ending at " +
        std::to_string(windowEnd_) +
        " ns; the sender must pay the conservative lookahead");
  }
  // Always the outbox during a run — even same-shard — so the merge order
  // (and with it the destination engine's insertion-sequence tie order)
  // is a pure function of domain numbering, not of shard packing.
  if (from.outbox.empty()) perShard_[from.shard].dirty.push_back(src);
  from.outbox.push_back(CrossMsg{at, dst, std::move(fn)});
}

void ShardedEngine::setBoundaryHook(Duration period,
                                    std::function<void(SimTime)> flush) {
  if (running_) {
    throw SimError("ShardedEngine::setBoundaryHook: engine is running");
  }
  if (flush && period <= 0) {
    throw SimError("ShardedEngine::setBoundaryHook: period must be > 0");
  }
  boundaryPeriod_ = flush ? period : 0;
  boundaryFlush_ = std::move(flush);
}

SimTime ShardedEngine::maxNow() const {
  SimTime t = 0;
  for (const Domain& dom : domains_) t = std::max(t, dom.engine.now());
  return t;
}

SimTime ShardedEngine::clampToBoundary(SimTime t, SimTime windowEnd) const {
  if (boundaryPeriod_ <= 0) return windowEnd;
  // The smallest grid multiple strictly greater than t: the window may
  // touch a sampling boundary only at its end, so the boundary flush at
  // the next window start sees every event before it and none at/after.
  const SimTime next =
      satAdd((t / boundaryPeriod_) * boundaryPeriod_, boundaryPeriod_);
  return std::min(windowEnd, next);
}

void ShardedEngine::setWindowedMode(bool on) {
  for (Domain& dom : domains_) dom.engine.setWindowedMode(on);
}

void ShardedEngine::checkDeadlock() const {
  std::string stuck;
  for (const Domain& dom : domains_) {
    const std::string names = dom.engine.blockedProcessNames();
    if (names.empty()) continue;
    if (!stuck.empty()) stuck += ", ";
    stuck += names;
  }
  if (!stuck.empty()) {
    throw DeadlockError(
        "simulation deadlock: event queues empty but processes blocked: " +
        stuck);
  }
}

void ShardedEngine::initRunnable() {
  for (unsigned s = 0; s < shards_; ++s) perShard_[s].runnable.clear();
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    domains_[d].heapPos = kNotFiled;
    const SimTime t = domains_[d].engine.nextEventTime();
    if (t != kNoEvent) fileRunnable(d, t);
  }
}

/// Files domain d, whose next event is now at t, in its shard's heap: adds
/// it, or lowers its key in place when t is earlier. Only the
/// single-threaded merge step (or the run entry) calls this.
void ShardedEngine::fileRunnable(std::uint32_t d, SimTime t) {
  Domain& dom = domains_[d];
  std::vector<RunEntry>& heap = perShard_[dom.shard].runnable;
  std::uint32_t i = dom.heapPos;
  if (i == kNotFiled) {
    i = static_cast<std::uint32_t>(heap.size());
    heap.push_back(RunEntry{t, d});
  } else if (t < heap[i].time) {
    heap[i].time = t;
  } else {
    return;
  }
  siftUp(heap, i);
}

void ShardedEngine::siftUp(std::vector<RunEntry>& heap, std::uint32_t i) {
  const RunEntry e = heap[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!e.before(heap[parent])) break;
    heap[i] = heap[parent];
    domains_[heap[i].domain].heapPos = i;
    i = parent;
  }
  heap[i] = e;
  domains_[e.domain].heapPos = i;
}

void ShardedEngine::siftDown(std::vector<RunEntry>& heap, std::uint32_t i) {
  const RunEntry e = heap[i];
  const auto n = static_cast<std::uint32_t>(heap.size());
  for (std::uint32_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap[child + 1].before(heap[child])) ++child;
    if (!heap[child].before(e)) break;
    heap[i] = heap[child];
    domains_[heap[i].domain].heapPos = i;
    i = child;
  }
  heap[i] = e;
  domains_[e.domain].heapPos = i;
}

SimTime ShardedEngine::runnableTop(unsigned shard) const {
  const std::vector<RunEntry>& heap = perShard_[shard].runnable;
  return heap.empty() ? kNoEvent : heap.front().time;
}

/// One shard's window, heap-driven: run the root domain while its next
/// event falls before windowEnd, then re-key it at its new next event time
/// (or drop it when it has none) with one sift. Mid-window arrivals land at
/// or past windowEnd (the lookahead contract), so each domain runs its
/// whole window at once.
std::uint64_t ShardedEngine::execShardWindow(unsigned shard,
                                             SimTime windowEnd) {
  std::uint64_t executed = 0;
  std::vector<RunEntry>& heap = perShard_[shard].runnable;
  while (!heap.empty() && heap.front().time < windowEnd) {
    Domain& dom = domains_[heap.front().domain];
    const std::uint64_t n = dom.engine.runWindow(windowEnd);
    dom.executed += n;
    executed += n;
    const SimTime next = dom.engine.nextEventTime();
    if (next == kNoEvent) {
      dom.heapPos = kNotFiled;
      heap.front() = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    } else {
      heap.front().time = next;
    }
    siftDown(heap, 0);
  }
  return executed;
}

void ShardedEngine::deliverOutboxes() {
  // Visit only the domains that actually parked messages, not every
  // outbox: at thousands of mostly-idle domains per window the full scan
  // is pure serial overhead. Most thin windows leave none or one dirty
  // list, which needs no gather.
  std::vector<std::uint32_t>* dirty = nullptr;
  unsigned lists = 0;
  for (unsigned s = 0; s < shards_; ++s) {
    if (perShard_[s].dirty.empty()) continue;
    dirty = &perShard_[s].dirty;
    ++lists;
  }
  if (lists == 0) return;
  if (lists > 1) {
    dirtyScratch_.clear();
    for (unsigned s = 0; s < shards_; ++s) {
      std::vector<std::uint32_t>& v = perShard_[s].dirty;
      dirtyScratch_.insert(dirtyScratch_.end(), v.begin(), v.end());
      v.clear();
    }
    dirty = &dirtyScratch_;
  }
  // Drain in domain order, entries in send order: the destination
  // engines' insertion sequences — their tie order — become a pure
  // function of the simulation, independent of shard count.
  if (dirty->size() > 1) std::sort(dirty->begin(), dirty->end());
  for (std::uint32_t d : *dirty) {
    Domain& src = domains_[d];
    for (CrossMsg& m : src.outbox) {
      Domain& dst = domains_[m.dstDomain];
      if (dst.shard != src.shard) ++src.crossShard;
      dst.engine.postAtMerge(m.time, std::move(m.fn));
      fileRunnable(m.dstDomain, m.time);
    }
    src.outbox.clear();
  }
  dirty->clear();
}

/// Computes the next window's bounds from the completion step (or before
/// the threads start), or marks the run done.
void ShardedEngine::prepareWindow() {
  if (abort_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  // O(shards) reduce over the heap roots, not an O(domains) rescan. Each
  // root is its domain's exact next event time, so every window starts at
  // a real event, which is also the boundary a hook may take it for.
  SimTime t = kNoEvent;
  for (unsigned s = 0; s < shards_; ++s) t = std::min(t, runnableTop(s));
  if (t == kNoEvent) {
    drained_ = true;
    done_ = true;
    return;
  }
  if (t > horizon_) {
    done_ = true;
    return;
  }
  // A single domain has no cross-domain constraint: one window runs the
  // whole horizon, degenerating to the serial engine.
  const Duration width =
      domainCountU32_ == 1 ? kMaxTime : std::max<Duration>(lookahead_, 1);
  windowEnd_ = clampToBoundary(
      t, std::min(satAdd(t, width), satAdd(horizon_, 1)));
  // The boundary flush runs here, in the single-threaded completion step:
  // every other thread is parked, so the hook may read any domain's state
  // race-free. windowEnd_ is already the next window's, so a sendAt from
  // the hook is held to the window it precedes.
  if (boundaryFlush_) boundaryFlush_(t);
}

void ShardedEngine::wake(unsigned shard) {
  Parker& p = parkers_[shard];
  p.ticket.fetch_add(1, std::memory_order_release);
  p.ticket.notify_one();
}

/// Starts the home threads of shards 1.., parked, at a run's first
/// fanned-out window. Only the thread that called run() gets here: until
/// the threads exist, it runs every window itself. If a thread cannot be
/// started, the ones already started are woken to exit and joined before
/// the error propagates.
void ShardedEngine::startThreads() {
  if (!parkers_) parkers_ = std::make_unique<Parker[]>(shards_);
  for (unsigned s = 0; s < shards_; ++s) {
    parkers_[s].ticket.store(0, std::memory_order_relaxed);
  }
  pool_.reserve(shards_ - 1);
  try {
    for (unsigned s = 1; s < shards_; ++s) {
      pool_.emplace_back([this, s] { serveShard(s, kNoShard); });
    }
  } catch (...) {
    done_ = true;  // could not start a thread: release the started ones
    for (unsigned s = 1; s <= pool_.size(); ++s) wake(s);
    joinThreads();
    throw;
  }
}

/// Joins the started threads once they have been told the run is done.
/// The thread that called run() only, once per run: cold.
[[gnu::cold]] void ShardedEngine::joinThreads() {
  for (std::thread& th : pool_) th.join();
  pool_.clear();
}

/// Hands out the prepared window and returns what the calling thread
/// runs. A window fans out when the window before it ran at least
/// kFanOutEvents events and more than one shard is active: the caller
/// keeps one active shard, which it returns (its own if active, else the
/// lowest-numbered one), and wakes the home threads of the others,
/// starting them first if this is the run's first fan-out. Otherwise it
/// runs inline (kInline): the caller runs every active shard and wakes no
/// one. Once the run is done it wakes every other thread to exit instead
/// and returns kNoShard.
unsigned ShardedEngine::dispatchWindow(unsigned home) {
  if (done_) {
    if (!pool_.empty()) {
      for (unsigned s = 0; s < shards_; ++s) {
        if (s != home) wake(s);
      }
    }
    return kNoShard;
  }
  if (lastWindowEvents_ < kFanOutEvents) {
    ++inline_;
    return kInline;
  }
  // Active: exactly the shards execShardWindow has work for.
  auto active = [this](unsigned s) { return runnableTop(s) < windowEnd_; };
  unsigned mine = shards_;
  unsigned count = 0;
  for (unsigned s = 0; s < shards_; ++s) {
    if (!active(s)) continue;
    ++count;
    if (mine == shards_ || s == home) mine = s;
  }
  // The window start is some shard's heap root, so count >= 1.
  if (count == 1) {
    ++inline_;
    return kInline;
  }
  if (pool_.empty()) startThreads();
  ++fannedOut_;
  // Set before any wake-up, whose release publishes it.
  pending_.store(count, std::memory_order_relaxed);
  for (unsigned s = 0; s < shards_; ++s) {
    if (s != mine && active(s)) wake(s);
  }
  return mine;
}

/// Runs one shard's part of the open window on the calling thread and
/// returns its event count. An event failure is recorded against the
/// shard, not the thread, and ends the run after this window; the other
/// active shards still finish it, so which failures are recorded does not
/// depend on the thread schedule.
std::uint64_t ShardedEngine::runShard(unsigned shard) {
  std::uint64_t executed = 0;
  try {
    const std::uint64_t w0 = profiling_ ? wallNowNs() : 0;
    executed = execShardWindow(shard, windowEnd_);
    if (profiling_) {
      timing_[shard].execNs += wallNowNs() - w0;
      if (executed > 0) ++timing_[shard].windowsActive;
    }
  } catch (...) {
    perShard_[shard].error = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }
  return executed;
}

/// Runs an inline window: every active shard, in ascending order, on the
/// calling thread. A shard's window touches only its own heap, so the
/// active set stays the one the window started with.
std::uint64_t ShardedEngine::runInline() {
  std::uint64_t executed = 0;
  for (unsigned s = 0; s < shards_; ++s) {
    if (runnableTop(s) < windowEnd_) executed += runShard(s);
  }
  return executed;
}

/// The completion step of a window that ran `events` events, on the
/// thread that finished it: every other thread is parked or about to
/// park, so the merge and the next window's bounds need no locks. The
/// merge runs even after a failure, so a failed window's messages are
/// never left behind. Returns what this thread runs next (see
/// dispatchWindow).
unsigned ShardedEngine::completeWindow(unsigned home, std::uint64_t events) {
  const std::uint64_t c0 = profiling_ ? wallNowNs() : 0;
  ++windows_;
  lastWindowEvents_ = events;
  try {
    deliverOutboxes();
    prepareWindow();
  } catch (...) {
    // Merge/hook failure (e.g. a throwing boundary flush): surface it
    // like a shard-0 event failure and wind the run down.
    if (!perShard_[0].error) perShard_[0].error = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
    done_ = true;
  }
  const unsigned next = dispatchWindow(home);
  if (profiling_) timing_[home].completionNs += wallNowNs() - c0;
  return next;
}

/// The loop of `home`'s thread, starting with what a dispatch handed it
/// (kNoShard: park first). An inline window it runs and completes at once.
/// A shard of a fanned-out window it runs, then either completes the
/// window (last runner out) or parks until woken for its own shard.
void ShardedEngine::serveShard(unsigned home, unsigned shard) {
  std::uint32_t seen = 0;  // tickets reset to 0 before the threads start
  for (;;) {
    std::uint64_t events = 0;
    if (shard == kInline) {
      events = runInline();
    } else {
      if (shard == kNoShard) {
        const std::uint64_t b0 = profiling_ ? wallNowNs() : 0;
        std::atomic<std::uint32_t>& ticket = parkers_[home].ticket;
        ticket.wait(seen, std::memory_order_acquire);
        seen = ticket.load(std::memory_order_acquire);
        if (profiling_) timing_[home].barrierWaitNs += wallNowNs() - b0;
        if (done_) return;
        shard = home;
      }
      perShard_[shard].windowEvents = runShard(shard);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        shard = kNoShard;  // others still running: park
        continue;
      }
      for (unsigned s = 0; s < shards_; ++s) {
        events += perShard_[s].windowEvents;
        perShard_[s].windowEvents = 0;
      }
    }
    shard = completeWindow(home, events);
    if (shard == kNoShard) return;  // done; the others were woken to exit
  }
}

bool ShardedEngine::runWindows(SimTime horizon) {
  horizon_ = horizon;
  drained_ = false;
  done_ = false;
  abort_.store(false, std::memory_order_relaxed);
  for (unsigned s = 0; s < shards_; ++s) perShard_[s].error = nullptr;
  initRunnable();

  prepareWindow();
  if (!done_) {
    // The calling thread serves as shard 0's home; the others start at
    // the first window that fans out, if one does.
    serveShard(0, dispatchWindow(0));
    joinThreads();
  }

  // Failure reports are schedule-independent: the lowest shard's
  // exception wins, like the sweep harness's lowest-index rule.
  for (unsigned s = 0; s < shards_; ++s) {
    if (perShard_[s].error) std::rethrow_exception(perShard_[s].error);
  }
  return drained_;
}

bool ShardedEngine::runDispatch(SimTime horizon) {
  if (running_) throw SimError("ShardedEngine: run entered recursively");
  running_ = true;
  setWindowedMode(true);
  bool drained = false;
  try {
    drained = runWindows(horizon);
  } catch (...) {
    setWindowedMode(false);
    running_ = false;
    throw;
  }
  setWindowedMode(false);
  running_ = false;
  return drained;
}

void ShardedEngine::run() {
  runDispatch(kMaxTime);
  // Global drain-time deadlock check: every hosted queue and outbox is
  // empty, so a blocked process can never be signalled again.
  checkDeadlock();
}

bool ShardedEngine::runUntil(SimTime until) {
  const bool drained = runDispatch(until);
  for (Domain& dom : domains_) dom.engine.advanceTo(until);
  if (drained) checkDeadlock();
  return drained;
}

std::uint64_t ShardedEngine::executedEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.engine.executedEvents();
  return n;
}

std::uint64_t ShardedEngine::pendingEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) {
    n += dom.engine.pendingEvents() + dom.outbox.size();
  }
  return n;
}

std::uint64_t ShardedEngine::crossDomainEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.crossDomain;
  return n;
}

std::uint64_t ShardedEngine::crossShardEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.crossShard;
  return n;
}

void ShardedEngine::setProfiling(bool on) {
  if (running_) {
    throw SimError("ShardedEngine::setProfiling: engine is running");
  }
  profiling_ = on;
  if (on && timing_.size() != shards_) {
    timing_.assign(shards_, ShardTiming{});
  }
}

std::vector<ShardProfile> ShardedEngine::shardProfiles() const {
  std::vector<ShardProfile> out(shards_);
  for (unsigned s = 0; s < shards_; ++s) {
    out[s].shard = s;
    if (s < timing_.size()) {
      out[s].execNs = timing_[s].execNs;
      out[s].barrierWaitNs = timing_[s].barrierWaitNs;
      out[s].completionNs = timing_[s].completionNs;
      out[s].windowsActive = timing_[s].windowsActive;
    }
  }
  for (const Domain& dom : domains_) {
    ShardProfile& p = out[dom.shard];
    ++p.domains;
    p.events += dom.executed;
    p.crossShardSent += dom.crossShard;
  }
  return out;
}

double ShardedEngine::loadImbalance() const {
  std::uint64_t maxEv = 0;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> perShard(shards_, 0);
  for (const Domain& dom : domains_) perShard[dom.shard] += dom.executed;
  for (const std::uint64_t ev : perShard) {
    maxEv = std::max(maxEv, ev);
    total += ev;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_);
  return static_cast<double>(maxEv) / mean;
}

}  // namespace vibe::sim
