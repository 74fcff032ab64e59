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

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
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

// Execution context of the current thread: which engine/domain the event
// being executed belongs to. post()/send() use it to reject cross-domain
// scheduling that would make execution order depend on the shard packing.
// Only synthetic mode sets them, and no Process runs there. Hosted mode
// resumes Process fibers on whichever thread runs their domain's window,
// so a thread_local read inside a process body may belong to another
// thread after its next wait.
thread_local const ShardedEngine* tlEngine = nullptr;
thread_local std::uint32_t tlDomain = 0;

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

/// One heap entry: the deterministic (time, srcDomain, seq) key plus the
/// slot its callback lives in. 24 bytes of POD; callbacks stay put in the
/// domain's pool while the heap shuffles keys.
struct Item {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t srcDomain;
  std::uint32_t slot;
};

struct ShardedEngine::ItemAfter {
  // std::*_heap build a max-heap; invert for earliest-key-first.
  bool operator()(const Item& a, const Item& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.srcDomain != b.srcDomain) return a.srcDomain > b.srcDomain;
    return a.seq > b.seq;
  }
};

/// A cross-domain event parked in its source domain's outbox until the
/// window's completion step merges it into the destination heap.
struct ShardedEngine::CrossMsg {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t srcDomain;
  std::uint32_t dstDomain;
  EventFn fn;
};

namespace {

/// Hosted-mode outbox entry: an absolute-time arrival bound for a foreign
/// hosted engine. No (srcDomain, seq) key — a hosted engine orders ties by
/// its own insertion sequence, which is why the merge must always run in
/// domain order in the completion step (see deliverOutboxes).
struct HostedMsg {
  SimTime time;
  std::uint32_t dstDomain;
  EventFn fn;
};

}  // namespace

/// Per-domain state. Cache-line aligned: during a parallel window each
/// shard hammers only its own domains' counters and heaps.
struct alignas(64) ShardedEngine::Domain {
  std::vector<Item> heap;
  std::vector<EventFn> pool;
  std::vector<std::uint32_t> freeSlots;
  // Outbox for cross-shard sends originating here; drained at the end of
  // the window by the completion step. Per-domain (not per-shard) so two
  // domains on one shard never interleave their messages — the merge
  // order is irrelevant to the key-ordered heaps, but keeping ownership
  // strictly per-domain keeps every write single-writer.
  std::vector<CrossMsg> outbox;
  std::vector<HostedMsg> hostedOutbox;
  std::uint64_t nextSeq = 1;
  SimTime now = 0;
  std::uint64_t executed = 0;
  std::uint64_t crossDomain = 0;
  std::uint64_t crossShard = 0;
  // Key of the last executed event: the engine's own window-safety net.
  SimTime lastTime = -1;
  std::uint64_t lastSeq = 0;
  std::uint32_t lastSrc = 0;

  std::uint32_t allocSlot(EventFn fn) {
    if (!freeSlots.empty()) {
      const std::uint32_t s = freeSlots.back();
      freeSlots.pop_back();
      pool[s] = std::move(fn);
      return s;
    }
    pool.push_back(std::move(fn));
    return static_cast<std::uint32_t>(pool.size() - 1);
  }
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
  if (shards_ > 1) parkers_ = std::make_unique<Parker[]>(shards_);
  runnable_.resize(shards_);
  dirtyByShard_.resize(shards_);
  hosted_ = cfg.hostEngines;
  if (hosted_) {
    engines_.reserve(cfg.domains);
    for (std::uint32_t d = 0; d < cfg.domains; ++d) {
      engines_.push_back(std::make_unique<Engine>());
    }
  }
}

ShardedEngine::~ShardedEngine() = default;

SimTime ShardedEngine::now(std::uint32_t domain) const {
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::now: domain " + std::to_string(domain) +
                   " out of range [0, " + std::to_string(domainCountU32_) +
                   ")");
  }
  return hosted_ ? engines_[domain]->now() : domains_[domain].now;
}

Engine& ShardedEngine::domainEngine(std::uint32_t domain) {
  if (!hosted_) {
    throw SimError(
        "ShardedEngine::domainEngine: engine was not constructed with "
        "EngineConfig::hostEngines");
  }
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::domainEngine: domain " +
                   std::to_string(domain) + " out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  return *engines_[domain];
}

void ShardedEngine::sendAt(std::uint32_t src, std::uint32_t dst, SimTime at,
                           EventFn fn) {
  if (!hosted_) {
    throw SimError(
        "ShardedEngine::sendAt: hosted mode only; synthetic models use "
        "send()");
  }
  if (!fn) throw SimError("ShardedEngine::sendAt: null callable");
  if (src >= domainCountU32_ || dst >= domainCountU32_) {
    throw SimError("ShardedEngine::sendAt: domain out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  if (src == dst) {
    engines_[src]->postAt(at, std::move(fn));
    return;
  }
  Domain& from = domains_[src];
  ++from.crossDomain;
  if (shardOf(src) != shardOf(dst)) ++from.crossShard;
  if (!running_) {
    // Setup phase, single driving thread: schedule directly.
    engines_[dst]->postAt(at, std::move(fn));
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
  if (from.hostedOutbox.empty()) markOutboxDirty(src);
  from.hostedOutbox.push_back(HostedMsg{at, dst, std::move(fn)});
}

void ShardedEngine::setBoundaryHook(Duration period,
                                    std::function<void(SimTime)> flush) {
  if (running_) {
    throw SimError("ShardedEngine::setBoundaryHook: engine is running");
  }
  if (!hosted_) {
    throw SimError("ShardedEngine::setBoundaryHook: hosted mode only");
  }
  if (flush && period <= 0) {
    throw SimError("ShardedEngine::setBoundaryHook: period must be > 0");
  }
  boundaryPeriod_ = flush ? period : 0;
  boundaryFlush_ = std::move(flush);
}

SimTime ShardedEngine::maxNow() const {
  SimTime t = 0;
  if (hosted_) {
    for (const auto& e : engines_) t = std::max(t, e->now());
  } else {
    for (const Domain& dom : domains_) t = std::max(t, dom.now);
  }
  return t;
}

void ShardedEngine::checkContext(std::uint32_t domain,
                                 const char* what) const {
  if (!running_) return;  // setup/teardown from the driving thread
  if (tlEngine != this || tlDomain != domain) {
    throw SimError(std::string(what) +
                   ": called for domain " + std::to_string(domain) +
                   " from outside that domain's execution context; "
                   "cross-domain scheduling must use send() so ordering "
                   "stays independent of the shard count");
  }
}

void ShardedEngine::pushEvent(Domain& dom, SimTime t, std::uint32_t srcDomain,
                              std::uint64_t seq, EventFn fn) {
  const std::uint32_t slot = dom.allocSlot(std::move(fn));
  dom.heap.push_back(Item{t, seq, srcDomain, slot});
  std::push_heap(dom.heap.begin(), dom.heap.end(), ItemAfter{});
}

void ShardedEngine::post(std::uint32_t domain, Duration delay, EventFn fn) {
  if (hosted_) {
    throw SimError(
        "ShardedEngine::post: hosted mode schedules on domainEngine() "
        "directly (sendAt() for cross-domain)");
  }
  if (!fn) throw SimError("ShardedEngine::post: null callable");
  if (delay < 0) throw SimError("ShardedEngine::post: negative delay");
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::post: domain " + std::to_string(domain) +
                   " out of range [0, " + std::to_string(domainCountU32_) +
                   ")");
  }
  checkContext(domain, "ShardedEngine::post");
  Domain& dom = domains_[domain];
  pushEvent(dom, satAdd(dom.now, delay), domain, dom.nextSeq++,
            std::move(fn));
}

void ShardedEngine::send(std::uint32_t src, std::uint32_t dst, Duration delay,
                         EventFn fn) {
  if (hosted_) {
    throw SimError(
        "ShardedEngine::send: hosted mode uses sendAt() with an absolute "
        "arrival time");
  }
  if (src == dst) {
    post(src, delay, std::move(fn));
    return;
  }
  if (!fn) throw SimError("ShardedEngine::send: null callable");
  if (src >= domainCountU32_ || dst >= domainCountU32_) {
    throw SimError("ShardedEngine::send: domain out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  if (delay < lookahead_) {
    throw SimError(
        "ShardedEngine::send: cross-domain delay " + std::to_string(delay) +
        " ns is below the lookahead window of " +
        std::to_string(lookahead_) +
        " ns; a conservative shard may already have executed past it");
  }
  checkContext(src, "ShardedEngine::send");
  Domain& from = domains_[src];
  const SimTime t = satAdd(from.now, delay);
  const std::uint64_t seq = from.nextSeq++;
  ++from.crossDomain;
  if (shardOf(src) != shardOf(dst)) {
    ++from.crossShard;
    if (running_) {
      // Parked until the completion step: the destination heap belongs to
      // another shard mid-window.
      if (from.outbox.empty()) markOutboxDirty(src);
      from.outbox.push_back(CrossMsg{t, seq, src, dst, std::move(fn)});
      return;
    }
  }
  // Same shard (the owner may touch both heaps) or setup phase (single
  // driving thread): deliver immediately. The heap's total key order
  // makes immediate and merge-time insertion indistinguishable.
  pushEvent(domains_[dst], t, src, seq, std::move(fn));
  pushRunnable(dst, t);
}

SimTime ShardedEngine::nextEventTime() const {
  SimTime t = kNoEvent;
  for (const Domain& dom : domains_) {
    if (!dom.heap.empty()) t = std::min(t, dom.heap.front().time);
  }
  return t;
}

SimTime ShardedEngine::hostedNextEventTime() {
  SimTime t = kNoEvent;
  for (const auto& e : engines_) t = std::min(t, e->nextEventTime());
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

std::uint64_t ShardedEngine::execDomainWindow(std::uint32_t d,
                                              SimTime windowEnd) {
  if (!hosted_) return runDomainWindow(d, windowEnd);
  Domain& dom = domains_[d];
  const std::uint64_t n = engines_[d]->runWindow(windowEnd);
  // Mirror the hosted engine's progress into the domain bookkeeping so
  // profiling/introspection (shardProfiles, loadImbalance) keep working.
  dom.executed += n;
  dom.now = engines_[d]->now();
  return n;
}

void ShardedEngine::setHostedWindowedMode(bool on) {
  for (const auto& e : engines_) e->setWindowedMode(on);
}

void ShardedEngine::checkHostedDeadlock() const {
  std::string stuck;
  for (const auto& e : engines_) {
    const std::string names = e->blockedProcessNames();
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

std::uint64_t ShardedEngine::runDomainWindow(std::uint32_t d,
                                             SimTime windowEnd) {
  Domain& dom = domains_[d];
  if (dom.heap.empty() || dom.heap.front().time >= windowEnd) return 0;
  const std::uint64_t executedBefore = dom.executed;
  const ShardedEngine* prevEngine = tlEngine;
  const std::uint32_t prevDomain = tlDomain;
  tlEngine = this;
  tlDomain = d;
  while (!dom.heap.empty() && dom.heap.front().time < windowEnd) {
    std::pop_heap(dom.heap.begin(), dom.heap.end(), ItemAfter{});
    const Item it = dom.heap.back();
    dom.heap.pop_back();
    // Window-safety net: keys must execute in strictly ascending order.
    // A violation means a cross-domain event arrived behind the window —
    // impossible while send() enforces the lookahead, but cheap to keep
    // armed.
    if (it.time < dom.lastTime ||
        (it.time == dom.lastTime &&
         (it.srcDomain < dom.lastSrc ||
          (it.srcDomain == dom.lastSrc && it.seq <= dom.lastSeq)))) {
      tlEngine = prevEngine;
      tlDomain = prevDomain;
      throw SimError("ShardedEngine: window safety violated in domain " +
                     std::to_string(d) + " at t=" + std::to_string(it.time));
    }
    dom.lastTime = it.time;
    dom.lastSrc = it.srcDomain;
    dom.lastSeq = it.seq;
    dom.now = it.time;
    ++dom.executed;
    EventFn fn = std::move(dom.pool[it.slot]);
    dom.freeSlots.push_back(it.slot);
    try {
      fn();
    } catch (...) {
      tlEngine = prevEngine;
      tlDomain = prevDomain;
      throw;
    }
  }
  tlEngine = prevEngine;
  tlDomain = prevDomain;
  return dom.executed - executedBefore;
}

void ShardedEngine::markOutboxDirty(std::uint32_t src) {
  dirtyByShard_[shardOf(src)].push_back(src);
}

/// Earliest pending event time of one domain. Called only by the owning
/// shard (its runnable pass) or the single driving thread.
SimTime ShardedEngine::domainNextTime(std::uint32_t d) {
  if (hosted_) return engines_[d]->nextEventTime();
  const Domain& dom = domains_[d];
  return dom.heap.empty() ? kNoEvent : dom.heap.front().time;
}

void ShardedEngine::initRunnable() {
  for (auto& h : runnable_) h.clear();
  domKey_.assign(domainCountU32_, kNoEvent);
  runnableActive_ = true;
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    const SimTime t = domainNextTime(d);
    if (t != kNoEvent) pushRunnable(d, t);
  }
}

/// File domain d under key t in its owner's heap. Only the thread running
/// d's shard (same-shard deliveries, post-run re-file) or the
/// single-threaded merge step may call this for a given d.
void ShardedEngine::pushRunnable(std::uint32_t d, SimTime t) {
  if (!runnableActive_) return;
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
    const SimTime actual = domainNextTime(d);
    if (actual == kNoEvent) continue;
    if (actual >= windowEnd) {  // stale-low (e.g. a cancelled timer)
      pushRunnable(d, actual);
      continue;
    }
    executed += execDomainWindow(d, windowEnd);
    const SimTime after = domainNextTime(d);
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
  if (hosted_) {
    // Drain in domain order, entries in send order: the destination
    // engines' insertion sequences — their tie order — become a pure
    // function of the simulation, independent of shard count.
    for (std::uint32_t d : dirtyScratch_) {
      Domain& src = domains_[d];
      for (HostedMsg& m : src.hostedOutbox) {
        engines_[m.dstDomain]->postAtMerge(m.time, std::move(m.fn));
        pushRunnable(m.dstDomain, m.time);
      }
      src.hostedOutbox.clear();
    }
    return;
  }
  for (std::uint32_t d : dirtyScratch_) {
    Domain& src = domains_[d];
    for (CrossMsg& m : src.outbox) {
      pushEvent(domains_[m.dstDomain], m.time, m.srcDomain, m.seq,
                std::move(m.fn));
      pushRunnable(m.dstDomain, m.time);
    }
    src.outbox.clear();
  }
}

bool ShardedEngine::runWindows(SimTime horizon) {
  // The boundary-flush hook may post events between windows, behind the
  // runnable heaps — fall back to full scans while one is installed.
  const bool lazy = !(hosted_ && boundaryFlush_);
  if (lazy) initRunnable();
  for (;;) {
    std::uint64_t w0 = profiling_ ? wallNowNs() : 0;
    const SimTime t = lazy ? runnableTop(0)
                           : (hosted_ ? hostedNextEventTime()
                                      : nextEventTime());
    if (t == kNoEvent) return true;
    if (t > horizon) return false;
    Duration eff = lookahead_ > 0 ? lookahead_ : 1;
    // A single hosted domain has no cross-domain constraint: one window
    // runs the whole horizon, degenerating to the serial engine.
    if (hosted_ && domainCountU32_ == 1) eff = kMaxTime;
    SimTime windowEnd = std::min(satAdd(t, eff), satAdd(horizon, 1));
    windowEnd = clampToBoundary(t, windowEnd);
    if (hosted_ && boundaryFlush_) boundaryFlush_(t);
    windowEnd_ = windowEnd;  // sendAt's conservative check reads this
    if (profiling_) {
      const std::uint64_t now = wallNowNs();
      timing_[0].completionNs += now - w0;
      w0 = now;
    }
    std::uint64_t executed = 0;
    if (lazy) {
      executed = execShardWindow(0, windowEnd);
    } else {
      for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
        executed += execDomainWindow(d, windowEnd);
      }
    }
    if (profiling_) {
      const std::uint64_t now = wallNowNs();
      timing_[0].execNs += now - w0;
      if (executed > 0) ++timing_[0].windowsActive;
      w0 = now;
    }
    deliverOutboxes();
    ++windows_;
    if (profiling_) timing_[0].completionNs += wallNowNs() - w0;
  }
}

/// Computes the next window's bounds from the completion step (or before
/// the threads start), or marks the run done.
void ShardedEngine::prepareWindow() {
  if (abort_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  SimTime t = kNoEvent;
  if (runnableActive_) {
    // O(shards) reduce over the heap tops — replaces the serial
    // O(domains) rescan that dominated thin windows.
    for (unsigned s = 0; s < shards_; ++s) t = std::min(t, runnableTop(s));
  } else {
    t = hosted_ ? hostedNextEventTime() : nextEventTime();
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
  SimTime windowEnd = std::min(satAdd(t, lookahead_), satAdd(horizon_, 1));
  windowEnd = clampToBoundary(t, windowEnd);
  // Boundary flush runs here, in the single-threaded completion step:
  // every other thread is parked, so the hook may read any domain's
  // state race-free.
  if (hosted_ && boundaryFlush_) boundaryFlush_(t);
  windowEnd_ = windowEnd;
}

void ShardedEngine::wake(unsigned shard) {
  Parker& p = parkers_[shard];
  p.ticket.fetch_add(1, std::memory_order_release);
  p.ticket.notify_one();
}

/// Hands out the prepared window: counts the active shards, wakes the
/// home threads of all but one, and returns the shard the calling thread
/// runs itself (its own if active, else the lowest-numbered active one).
/// Once the run is done it wakes every other thread to exit instead and
/// returns shards_.
unsigned ShardedEngine::dispatchWindow(unsigned home) {
  if (done_) {
    for (unsigned s = 0; s < shards_; ++s) {
      if (s != home) wake(s);
    }
    return shards_;
  }
  // Without the runnable heaps (a boundary hook is set) every shard is
  // active; with them, exactly the shards execShardWindow has work for.
  auto active = [this](unsigned s) {
    return !runnableActive_ || runnableTop(s) < windowEnd_;
  };
  unsigned mine = shards_;
  unsigned count = 0;
  for (unsigned s = 0; s < shards_; ++s) {
    if (!active(s)) continue;
    ++count;
    if (mine == shards_ || s == home) mine = s;
  }
  // The window start is some shard's heap top, so count >= 1. Set before
  // any wake-up, whose release publishes it.
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
    std::uint64_t executed = 0;
    if (runnableActive_) {
      executed = execShardWindow(shard, windowEnd_);
    } else {
      for (std::uint32_t d = shard; d < domainCountU32_; d += shards_) {
        executed += execDomainWindow(d, windowEnd_);
      }
    }
    if (profiling_) {
      timing_[shard].execNs += wallNowNs() - w0;
      if (executed > 0) ++timing_[shard].windowsActive;
    }
  } catch (...) {
    shardErrors_[shard] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }
}

/// The completion step, on the thread that finished the window's last
/// active shard: every other thread is parked or about to park, so the
/// merge and the next window's bounds need no locks. Returns the shard
/// this thread runs next (see dispatchWindow).
unsigned ShardedEngine::completeWindow(unsigned home) {
  const std::uint64_t c0 = profiling_ ? wallNowNs() : 0;
  ++windows_;
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

/// The loop of `home`'s thread, starting with `shard` (shards_: park
/// first): run the shard it was handed, then either complete the window
/// (last one out) or park until woken for its own shard.
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
      shard = home;
    }
    runShard(shard);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      shard = shards_;  // others still running: park
      continue;
    }
    shard = completeWindow(home);
    if (shard == shards_) return;  // done; the others were woken to exit
  }
}

bool ShardedEngine::runWindowsParallel(SimTime horizon) {
  horizon_ = horizon;
  drained_ = false;
  done_ = false;
  abort_.store(false, std::memory_order_relaxed);
  shardErrors_.assign(shards_, nullptr);

  // See runWindows: a boundary-flush hook posts behind the heaps.
  if (!(hosted_ && boundaryFlush_)) initRunnable();

  prepareWindow();
  if (!done_) {
    for (unsigned s = 0; s < shards_; ++s) {
      parkers_[s].ticket.store(0, std::memory_order_relaxed);
    }
    // The calling thread serves as shard 0; the others start parked.
    std::vector<std::thread> pool;
    pool.reserve(shards_ - 1);
    try {
      for (unsigned s = 1; s < shards_; ++s) {
        pool.emplace_back([this, s] { serveShard(s, shards_); });
      }
    } catch (...) {
      done_ = true;  // could not start a thread: release the started ones
      dispatchWindow(0);
      for (std::thread& th : pool) th.join();
      throw;
    }
    serveShard(0, dispatchWindow(0));
    for (std::thread& th : pool) th.join();
  }

  // Failure reports are schedule-independent: the lowest shard's
  // exception wins, like the sweep harness's lowest-index rule.
  for (unsigned s = 0; s < shards_; ++s) {
    if (shardErrors_[s]) std::rethrow_exception(shardErrors_[s]);
  }
  return drained_;
}

bool ShardedEngine::runDispatch(SimTime horizon) {
  setHostedWindowedMode(true);
  bool drained = false;
  try {
    drained =
        shards_ <= 1 ? runWindows(horizon) : runWindowsParallel(horizon);
  } catch (...) {
    runnableActive_ = false;  // setup-phase sends bypass the heaps
    setHostedWindowedMode(false);
    throw;
  }
  runnableActive_ = false;
  setHostedWindowedMode(false);
  return drained;
}

void ShardedEngine::run() {
  if (running_) throw SimError("ShardedEngine::run entered recursively");
  running_ = true;
  try {
    runDispatch(kMaxTime);
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  // Global drain-time deadlock check: every hosted queue and outbox is
  // empty, so a blocked process can never be signalled again.
  if (hosted_) checkHostedDeadlock();
}

bool ShardedEngine::runUntil(SimTime until) {
  if (running_) throw SimError("ShardedEngine::runUntil entered recursively");
  running_ = true;
  bool drained = false;
  try {
    drained = runDispatch(until);
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  for (Domain& dom : domains_) dom.now = std::max(dom.now, until);
  if (hosted_) {
    for (const auto& e : engines_) e->advanceTo(until);
    if (drained) checkHostedDeadlock();
  }
  return drained;
}

std::uint64_t ShardedEngine::executedEvents() const {
  std::uint64_t n = 0;
  if (hosted_) {
    for (const auto& e : engines_) n += e->executedEvents();
    return n;
  }
  for (const Domain& dom : domains_) n += dom.executed;
  return n;
}

std::uint64_t ShardedEngine::pendingEvents() const {
  std::uint64_t n = 0;
  if (hosted_) {
    for (const auto& e : engines_) n += e->pendingEvents();
    for (const Domain& dom : domains_) n += dom.hostedOutbox.size();
    return n;
  }
  for (const Domain& dom : domains_) {
    n += dom.heap.size() + dom.outbox.size();
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
