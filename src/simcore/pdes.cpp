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

/// Per-domain state. Cache-line aligned: during a window each shard
/// writes only its own domains' outboxes and counters.
struct alignas(64) ShardedEngine::Domain {
  std::unique_ptr<Engine> engine = std::make_unique<Engine>();
  // Cross-domain sends originating here; drained at the end of the window
  // by the completion step. Per-domain (not per-shard) so every write is
  // single-writer and the merge can drain in domain order.
  std::vector<CrossMsg> outbox;
  std::uint64_t executed = 0;  // events this engine ran in windows
  std::uint64_t crossDomain = 0;
  std::uint64_t crossShard = 0;
};

ShardedEngine::ShardedEngine(const EngineConfig& cfg)
    : domainCountU32_(cfg.domains), lookahead_(cfg.lookahead) {
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
  domains_.resize(cfg.domains);
  windowEvents_.resize(shards_);
  runnable_.resize(shards_);
  dirtyByShard_.resize(shards_);
}

ShardedEngine::~ShardedEngine() = default;

Engine& ShardedEngine::domainEngine(std::uint32_t domain) {
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::domainEngine: domain " +
                   std::to_string(domain) + " out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  return *domains_[domain].engine;
}

void ShardedEngine::sendAt(std::uint32_t src, std::uint32_t dst, SimTime at,
                           EventFn fn) {
  if (!fn) throw SimError("ShardedEngine::sendAt: null callable");
  if (src >= domainCountU32_ || dst >= domainCountU32_) {
    throw SimError("ShardedEngine::sendAt: domain out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  if (src == dst) {
    domains_[src].engine->postAt(at, std::move(fn));
    return;
  }
  Domain& from = domains_[src];
  ++from.crossDomain;
  if (shardOf(src) != shardOf(dst)) ++from.crossShard;
  if (!running_) {
    // Setup phase, single driving thread: schedule directly.
    domains_[dst].engine->postAt(at, std::move(fn));
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
  if (from.outbox.empty()) markOutboxDirty(src);
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
  for (const Domain& dom : domains_) t = std::max(t, dom.engine->now());
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
  for (Domain& dom : domains_) dom.engine->setWindowedMode(on);
}

void ShardedEngine::checkDeadlock() const {
  std::string stuck;
  for (const Domain& dom : domains_) {
    const std::string names = dom.engine->blockedProcessNames();
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

void ShardedEngine::markOutboxDirty(std::uint32_t src) {
  dirtyByShard_[shardOf(src)].push_back(src);
}

void ShardedEngine::initRunnable() {
  for (auto& h : runnable_) h.clear();
  domKey_.assign(domainCountU32_, kNoEvent);
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    const SimTime t = domains_[d].engine->nextEventTime();
    if (t != kNoEvent) pushRunnable(d, t);
  }
}

/// File domain d under key t in its owner's heap. Only the thread running
/// d's shard (post-window re-file) or the single-threaded merge step may
/// call this for a given d.
void ShardedEngine::pushRunnable(std::uint32_t d, SimTime t) {
  if (t >= domKey_[d]) return;  // an entry at or below t is already filed
  domKey_[d] = t;
  auto& h = runnable_[shardOf(d)];
  h.emplace_back(t, d);
  std::push_heap(h.begin(), h.end(), std::greater<>{});
}

SimTime ShardedEngine::runnableTop(unsigned shard) const {
  const auto& h = runnable_[shard];
  return h.empty() ? kNoEvent : h.front().first;
}

/// Drops the superseded duplicates at the top of a shard's heap, so its
/// top is a live key. Completion step (or before the threads start) only.
void ShardedEngine::pruneTop(unsigned shard) {
  auto& h = runnable_[shard];
  while (!h.empty() && h.front().first != domKey_[h.front().second]) {
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    h.pop_back();
  }
}

/// One shard's window, heap-driven: pop every owned domain filed below
/// windowEnd, re-check its real next-event time (entries may be stale),
/// run the live ones, and re-file. Mid-window arrivals land at or past
/// windowEnd (the lookahead contract), so each domain runs its whole
/// window on the first live pop.
std::uint64_t ShardedEngine::execShardWindow(unsigned shard,
                                             SimTime windowEnd) {
  std::uint64_t executed = 0;
  auto& h = runnable_[shard];
  while (!h.empty() && h.front().first < windowEnd) {
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    const auto [t, d] = h.back();
    h.pop_back();
    if (t != domKey_[d]) continue;  // superseded duplicate
    domKey_[d] = kNoEvent;
    Domain& dom = domains_[d];
    const SimTime actual = dom.engine->nextEventTime();
    if (actual == kNoEvent) continue;
    if (actual >= windowEnd) {  // filed too early: re-file at its time
      pushRunnable(d, actual);
      continue;
    }
    const std::uint64_t n = dom.engine->runWindow(windowEnd);
    dom.executed += n;
    executed += n;
    const SimTime after = dom.engine->nextEventTime();
    if (after != kNoEvent) pushRunnable(d, after);
  }
  return executed;
}

void ShardedEngine::deliverOutboxes() {
  // Gather the domains that actually parked messages (the sort restores
  // the global domain order) instead of scanning every outbox — at
  // thousands of mostly-idle domains per window the full scan is pure
  // serial overhead.
  dirtyScratch_.clear();
  for (std::vector<std::uint32_t>& v : dirtyByShard_) {
    dirtyScratch_.insert(dirtyScratch_.end(), v.begin(), v.end());
    v.clear();
  }
  std::sort(dirtyScratch_.begin(), dirtyScratch_.end());
  // Drain in domain order, entries in send order: the destination
  // engines' insertion sequences — their tie order — become a pure
  // function of the simulation, independent of shard count.
  for (std::uint32_t d : dirtyScratch_) {
    Domain& src = domains_[d];
    for (CrossMsg& m : src.outbox) {
      domains_[m.dstDomain].engine->postAtMerge(m.time, std::move(m.fn));
      pushRunnable(m.dstDomain, m.time);
    }
    src.outbox.clear();
  }
}

/// Computes the next window's bounds from the completion step (or before
/// the threads start), or marks the run done.
void ShardedEngine::prepareWindow() {
  if (abort_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  // O(shards) reduce over the heap tops, not an O(domains) rescan. The
  // tops are pruned first, so a superseded duplicate (left by a
  // cancelled timer) never starts a window early: every window starts at
  // a real event, which is also the boundary a hook may take it for.
  SimTime t = kNoEvent;
  for (unsigned s = 0; s < shards_; ++s) {
    pruneTop(s);
    t = std::min(t, runnableTop(s));
  }
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
      pool_.emplace_back([this, s] { serveShard(s, shards_); });
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

/// Hands out the prepared window and returns the first shard the calling
/// thread runs. A window fans out when the window before it ran at least
/// kFanOutEvents events and more than one shard is active: the caller
/// keeps one active shard (its own if active, else the lowest-numbered
/// one) and wakes the home threads of the others, starting them first if
/// this is the run's first fan-out. Otherwise it runs inline: the caller
/// keeps every active shard and wakes no one. Once the run is done it
/// wakes every other thread to exit instead and returns shards_.
unsigned ShardedEngine::dispatchWindow(unsigned home) {
  if (done_) {
    if (!pool_.empty()) {
      for (unsigned s = 0; s < shards_; ++s) {
        if (s != home) wake(s);
      }
    }
    return shards_;
  }
  // Active: exactly the shards execShardWindow has work for.
  auto active = [this](unsigned s) { return runnableTop(s) < windowEnd_; };
  unsigned first = shards_;
  unsigned mine = shards_;
  unsigned count = 0;
  for (unsigned s = 0; s < shards_; ++s) {
    if (!active(s)) continue;
    ++count;
    if (first == shards_) first = s;
    if (mine == shards_ || s == home) mine = s;
  }
  // The window start is some shard's heap top, so count >= 1.
  fanOut_ = count > 1 && lastWindowEvents_ >= kFanOutEvents;
  if (!fanOut_) {
    ++inline_;
    pending_.store(1, std::memory_order_relaxed);
    return first;
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

/// Runs one shard's part of the open window on the calling thread. An
/// event failure is recorded against the shard, not the thread, and ends
/// the run after this window; the other active shards still finish it, so
/// which failures are recorded does not depend on the thread schedule.
void ShardedEngine::runShard(unsigned shard) {
  try {
    const std::uint64_t w0 = profiling_ ? wallNowNs() : 0;
    const std::uint64_t executed = execShardWindow(shard, windowEnd_);
    windowEvents_[shard].events = executed;
    if (profiling_) {
      timing_[shard].execNs += wallNowNs() - w0;
      if (executed > 0) ++timing_[shard].windowsActive;
    }
  } catch (...) {
    shardErrors_[shard] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }
}

/// Runs what the dispatch kept for the calling thread: shard `first`
/// alone in a fanned-out window, every active shard from `first` up, in
/// ascending order, in an inline one. A shard's window touches only its
/// own heap, so the active set stays the one the dispatch saw.
void ShardedEngine::runKept(unsigned first) {
  const unsigned end = fanOut_ ? first + 1 : shards_;
  for (unsigned s = first; s < end; ++s) {
    if (runnableTop(s) < windowEnd_) runShard(s);
  }
}

/// The completion step, on the thread that finished the window's last
/// runner: every other thread is parked or about to park, so the merge
/// and the next window's bounds need no locks. The merge runs even after
/// a failure, so a failed window's messages are never left behind.
/// Returns the first shard this thread runs next (see dispatchWindow).
unsigned ShardedEngine::completeWindow(unsigned home) {
  const std::uint64_t c0 = profiling_ ? wallNowNs() : 0;
  ++windows_;
  lastWindowEvents_ = 0;
  for (WindowTally& t : windowEvents_) {
    lastWindowEvents_ += t.events;
    t.events = 0;
  }
  try {
    deliverOutboxes();
    prepareWindow();
  } catch (...) {
    // Merge/hook failure (e.g. a throwing boundary flush): surface it
    // like a shard-0 event failure and wind the run down.
    if (!shardErrors_[0]) shardErrors_[0] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
    done_ = true;
  }
  const unsigned next = dispatchWindow(home);
  if (profiling_) timing_[home].completionNs += wallNowNs() - c0;
  return next;
}

/// The loop of `home`'s thread, starting with the shards a dispatch kept
/// for it from `shard` up (shards_: park first): run them, then either
/// complete the window (last runner out) or park until woken for its own
/// shard.
void ShardedEngine::serveShard(unsigned home, unsigned shard) {
  std::uint32_t seen = 0;  // tickets reset to 0 before the threads start
  for (;;) {
    if (shard == shards_) {
      const std::uint64_t b0 = profiling_ ? wallNowNs() : 0;
      std::atomic<std::uint32_t>& ticket = parkers_[home].ticket;
      ticket.wait(seen, std::memory_order_acquire);
      seen = ticket.load(std::memory_order_acquire);
      if (profiling_) timing_[home].barrierWaitNs += wallNowNs() - b0;
      if (done_) return;
      runShard(home);
    } else {
      runKept(shard);
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      shard = shards_;  // others still running: park
      continue;
    }
    shard = completeWindow(home);
    if (shard == shards_) return;  // done; the others were woken to exit
  }
}

bool ShardedEngine::runWindows(SimTime horizon) {
  horizon_ = horizon;
  drained_ = false;
  done_ = false;
  abort_.store(false, std::memory_order_relaxed);
  shardErrors_.assign(shards_, nullptr);
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
    if (shardErrors_[s]) std::rethrow_exception(shardErrors_[s]);
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
  for (Domain& dom : domains_) dom.engine->advanceTo(until);
  if (drained) checkDeadlock();
  return drained;
}

std::uint64_t ShardedEngine::executedEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.engine->executedEvents();
  return n;
}

std::uint64_t ShardedEngine::pendingEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) {
    n += dom.engine->pendingEvents() + dom.outbox.size();
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
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    ShardProfile& p = out[shardOf(d)];
    ++p.domains;
    p.events += domains_[d].executed;
    p.crossShardSent += domains_[d].crossShard;
  }
  return out;
}

double ShardedEngine::loadImbalance() const {
  std::uint64_t maxEv = 0;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> perShard(shards_, 0);
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    perShard[shardOf(d)] += domains_[d].executed;
  }
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
