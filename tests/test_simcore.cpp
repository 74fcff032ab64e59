// Unit tests for the discrete-event engine, processes, signals, resources,
// statistics, and the deterministic PRNG. Every engine is a domain of a
// ShardedEngine, its only driver; most tests use the one domain of
// ShardedEngine(EngineConfig{}).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/process.hpp"
#include "simcore/prng.hpp"
#include "simcore/resource.hpp"
#include "simcore/stats.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {
namespace {

TEST(TimeTest, UsecRoundsToNearestNanosecond) {
  EXPECT_EQ(usec(1.0), 1000);
  EXPECT_EQ(usec(0.19), 190);
  EXPECT_EQ(usec(0.0004), 0);
  EXPECT_EQ(usec(0.0006), 1);
  EXPECT_EQ(msec(1.5), 1'500'000);
}

TEST(TimeTest, TransferTimeMatchesRate) {
  // 100 MB/s -> 10 ns per byte.
  EXPECT_EQ(transferTime(1, 100.0), 10);
  EXPECT_EQ(transferTime(1000, 100.0), 10'000);
  EXPECT_EQ(transferTime(0, 100.0), 0);
  // 125 MB/s (1 Gb/s) -> 8 ns per byte.
  EXPECT_EQ(transferTime(1500, 125.0), 12'000);
}

TEST(EngineTest, EventsFireInTimeOrder) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::vector<int> order;
  eng.post(30, [&] { order.push_back(3); });
  eng.post(10, [&] { order.push_back(1); });
  eng.post(20, [&] { order.push_back(2); });
  pdes.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.post(5, [&order, i] { order.push_back(i); });
  }
  pdes.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, CancelPreventsExecution) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  EventId id = eng.post(10, [&] { ++fired; });
  eng.post(5, [&] { EXPECT_TRUE(eng.cancel(id)); });
  pdes.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(eng.cancel(id));  // already gone
}

TEST(EngineTest, MoveOnlyCallbacksArePostable) {
  // EventFn (unlike std::function) accepts move-only captures, so payloads
  // ride inside the event itself — the fabric layer depends on this.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  auto payload = std::make_unique<int>(41);
  int got = 0;
  eng.post(5, [&got, p = std::move(payload)] { got = *p + 1; });
  pdes.run();
  EXPECT_EQ(got, 42);
}

TEST(EngineTest, NullCallableThrowsAtPostTime) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  EXPECT_THROW(eng.post(10, std::function<void()>{}), SimError);
  EXPECT_THROW(eng.postAt(10, EventFn{}), SimError);
  EXPECT_THROW(eng.post(10, nullptr), SimError);
  // Nothing leaked into the queue and the engine still runs cleanly.
  EXPECT_EQ(eng.pendingEvents(), 0u);
  pdes.run();
  // Cancel of never-issued ids (including the 0 sentinel) is well-defined.
  EXPECT_FALSE(eng.cancel(0));
  EXPECT_FALSE(eng.cancel(12345));
  EXPECT_FALSE(eng.cancel(~EventId{0}));
}

TEST(EngineTest, CancelledEventsDoNotLingerInQueue) {
  // Regression: cancel used to tombstone the queue entry until fire time,
  // so far-future post+cancel cycles grew the queue without bound.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  for (int i = 0; i < 100000; ++i) {
    const EventId id = eng.post(1'000'000'000, [] {});
    ASSERT_TRUE(eng.cancel(id));
  }
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_LT(eng.queuedHandles(), 200u);  // compaction keeps stale handles small
  EXPECT_LE(eng.poolSlots(), 256u);      // slots recycle; one slab suffices
  pdes.run();
  EXPECT_EQ(eng.executedEvents(), 0u);
}

TEST(EngineTest, PostCancelStormStaysBounded) {
  // The reliability layer's retransmit-timer pattern: a live timer per
  // endpoint, constantly rearmed. 1M rearms must not grow queue or pool.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  constexpr std::size_t kEndpoints = 32;
  EventId timers[kEndpoints] = {};
  for (int i = 0; i < 1'000'000; ++i) {
    const std::size_t ep = static_cast<std::size_t>(i) % kEndpoints;
    if (timers[ep] != 0) {
      EXPECT_TRUE(eng.cancel(timers[ep]));
    }
    timers[ep] = eng.post(1'000'000 + i, [] {});
  }
  EXPECT_EQ(eng.pendingEvents(), kEndpoints);
  EXPECT_LT(eng.queuedHandles(), 1000u);
  EXPECT_LT(eng.poolSlots(), 1000u);
  pdes.run();
  EXPECT_EQ(eng.executedEvents(), kEndpoints);
}

TEST(EngineTest, CancelInsideOwnCallbackReturnsFalse) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  EventId id = 0;
  bool sawFalse = false;
  id = eng.post(10, [&] { sawFalse = !eng.cancel(id); });
  pdes.run();
  EXPECT_TRUE(sawFalse);
}

TEST(EngineTest, StaleIdDoesNotCancelRecycledSlot) {
  // Generation tags: after an event fires, its pool slot is recycled; the
  // old id must not cancel the new occupant.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  const EventId first = eng.post(1, [] {});
  pdes.run();
  EXPECT_FALSE(eng.cancel(first));
  int fired = 0;
  const EventId second = eng.post(1, [&] { ++fired; });
  EXPECT_NE(first, second);        // same slot, new generation
  EXPECT_FALSE(eng.cancel(first)); // stale id is inert
  pdes.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, PostIntoPastThrows) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  eng.post(10, [&] {
    EXPECT_THROW(eng.postAt(5, [] {}), SimError);
  });
  pdes.run();
}

TEST(EngineTest, NestedPostsExecute) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  SimTime innerTime = -1;
  eng.post(10, [&] {
    eng.post(7, [&] { innerTime = eng.now(); });
  });
  pdes.run();
  EXPECT_EQ(innerTime, 17);
}

TEST(EngineTest, RunUntilStopsAtHorizon) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  eng.post(10, [&] { ++fired; });
  eng.post(100, [&] { ++fired; });
  EXPECT_FALSE(pdes.runUntil(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50);
  EXPECT_TRUE(pdes.runUntil(200));
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunUntilFiresEventExactlyAtHorizon) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  eng.post(50, [&] { ++fired; });
  EXPECT_TRUE(pdes.runUntil(50));  // inclusive horizon; queue drains
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50);
}

TEST(EngineTest, RunUntilSkipsCancelledEventAtTopOfHeap) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  const EventId early = eng.post(10, [&] { ++fired; });
  eng.post(100, [&] { ++fired; });
  ASSERT_TRUE(eng.cancel(early));
  // The earliest handle is stale; runUntil must skip it, see that the next
  // live event is beyond the horizon, and stop at the horizon time.
  EXPECT_FALSE(pdes.runUntil(50));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), 50);
  EXPECT_TRUE(pdes.runUntil(100));
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, RunUntilNeverMovesTimeBackwards) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  eng.post(80, [] {});
  EXPECT_TRUE(pdes.runUntil(100));
  EXPECT_EQ(eng.now(), 100);
  EXPECT_TRUE(pdes.runUntil(50));  // horizon in the past: clock stays put
  EXPECT_EQ(eng.now(), 100);
  // And posting still measures against the unchanged now().
  EXPECT_THROW(eng.postAt(99, [] {}), SimError);
}

TEST(ProcessTest, AdvanceMovesVirtualTimeAndAccountsCpu) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  SimTime sawTime = -1;
  Process p(eng, "worker", [&] {
    Process& self = *eng.currentProcess();
    self.advance(usec(5));
    self.advance(usec(3), CpuUse::Idle);
    sawTime = eng.now();
  });
  pdes.run();
  EXPECT_EQ(sawTime, usec(8));
  EXPECT_EQ(p.cpuBusy(), usec(5));
  EXPECT_TRUE(p.finished());
}

TEST(ProcessTest, TwoProcessesInterleaveDeterministically) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::vector<std::pair<char, SimTime>> trace;
  Process a(eng, "a", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 3; ++i) {
      self.advance(usec(10));
      trace.emplace_back('a', eng.now());
    }
  });
  Process b(eng, "b", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 3; ++i) {
      self.advance(usec(15));
      trace.emplace_back('b', eng.now());
    }
  });
  pdes.run();
  // At the t=30 tie, b's resume event was posted (at t=15) before a's
  // (at t=20), so insertion order puts b first.
  const std::vector<std::pair<char, SimTime>> expected = {
      {'a', usec(10)}, {'b', usec(15)}, {'a', usec(20)},
      {'b', usec(30)}, {'a', usec(30)}, {'b', usec(45)},
  };
  EXPECT_EQ(trace, expected);
}

TEST(ProcessTest, SignalWakesWaiter) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  SimTime wokenAt = -1;
  Process waiter(eng, "waiter", [&] {
    eng.currentProcess()->await(sig);
    wokenAt = eng.now();
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(42));
    sig.notifyAll();
  });
  pdes.run();
  EXPECT_EQ(wokenAt, usec(42));
  EXPECT_EQ(waiter.cpuBusy(), 0);  // await is idle
}

TEST(ProcessTest, AwaitBusyChargesCpu) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  Process waiter(eng, "waiter", [&] { eng.currentProcess()->awaitBusy(sig); });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(42));
    sig.notifyAll();
  });
  pdes.run();
  EXPECT_EQ(waiter.cpuBusy(), usec(42));
}

TEST(ProcessTest, AwaitForTimesOut) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  bool fired = true;
  SimTime endTime = -1;
  Process waiter(eng, "waiter", [&] {
    fired = eng.currentProcess()->awaitFor(sig, usec(100));
    endTime = eng.now();
  });
  pdes.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(endTime, usec(100));
}

TEST(ProcessTest, SignalBeatsTimeout) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  bool fired = false;
  Process waiter(eng, "waiter", [&] {
    fired = eng.currentProcess()->awaitFor(sig, usec(100));
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(10));
    sig.notifyAll();
  });
  pdes.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.now(), usec(10));
}

TEST(ProcessTest, TimedOutWaiterIsNotWokenBySubsequentNotify) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  int wakeups = 0;
  Process waiter(eng, "waiter", [&] {
    Process& self = *eng.currentProcess();
    EXPECT_FALSE(self.awaitFor(sig, usec(10)));
    ++wakeups;
    // Waits again; this time the notify at t=50 should land.
    EXPECT_TRUE(self.awaitFor(sig, usec(1000)));
    ++wakeups;
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(50));
    sig.notifyAll();
  });
  pdes.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(ProcessTest, NotifyOneWakesSingleWaiterInFifoOrder) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  std::vector<int> woken;
  auto makeWaiter = [&](int idx) {
    return [&, idx] {
      eng.currentProcess()->await(sig);
      woken.push_back(idx);
    };
  };
  Process w0(eng, "w0", makeWaiter(0));
  Process w1(eng, "w1", makeWaiter(1));
  Process n(eng, "n", [&] {
    Process& self = *eng.currentProcess();
    self.advance(usec(5));
    sig.notifyOne();
    self.advance(usec(5));
    sig.notifyOne();
  });
  pdes.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1}));
}

TEST(ProcessTest, DeadlockIsDetected) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal sig(eng);
  auto waiter = std::make_unique<Process>(
      eng, "stuck", [&] { eng.currentProcess()->await(sig); });
  EXPECT_THROW(pdes.run(), DeadlockError);
}

TEST(ProcessTest, BodyExceptionPropagatesOutOfRun) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Process p(eng, "thrower", [&] {
    eng.currentProcess()->advance(usec(1));
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(pdes.run(), std::runtime_error);
}

TEST(ProcessTest, UnstartedProcessIsKilledCleanlyOnDestruction) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  {
    Process p(eng, "never-run", [&] { eng.currentProcess()->advance(1); });
    // Engine never runs; destructor must unwind the body without hanging.
  }
  SUCCEED();
}

TEST(ProcessTest, YieldInsideCatchKeepsOwnException) {
  // Each process has its own caught-exception stack: a handler that
  // yields and later rethrows gets its own exception back, even though
  // another process threw, caught and yielded inside a handler meanwhile.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int rethrown = 0;
  bool bHandled = false;
  Process a(eng, "a", [&] {
    Process& self = *eng.currentProcess();
    try {
      throw 7;
    } catch (int) {
      self.advance(usec(10));  // b throws and parks in its handler at t=5
      try {
        throw;
      } catch (int v) {
        rethrown = v;
      } catch (...) {
        rethrown = -1;
      }
    }
  });
  Process b(eng, "b", [&] {
    Process& self = *eng.currentProcess();
    self.advance(usec(5));
    try {
      throw 2.5;
    } catch (double) {
      self.advance(usec(10));
      bHandled = std::uncaught_exceptions() == 0;
    }
  });
  pdes.run();
  EXPECT_EQ(rethrown, 7);
  EXPECT_TRUE(bHandled);
}

TEST(ProcessTest, KilledUnwindThatYieldsCompletes) {
  // A destructor on a killed body's stack may call its Process, as a
  // program holding NodeEnv::self can. The call must not park (nothing
  // would resume it) and the engine must show no current process.
  struct YieldOnUnwind {
    Engine& eng;
    Process*& proc;
    bool& done;
    bool& sawCurrent;
    ~YieldOnUnwind() {
      sawCurrent = eng.currentProcess() != nullptr;
      proc->advance(1);
      done = true;
    }
  };
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal never(eng);
  Process* stored = nullptr;
  bool done = false;
  bool sawCurrent = true;
  auto p = std::make_unique<Process>(eng, "stuck", [&] {
    stored = eng.currentProcess();
    YieldOnUnwind guard{eng, stored, done, sawCurrent};
    stored->await(never);
  });
  EXPECT_THROW(pdes.run(), DeadlockError);
  p.reset();
  EXPECT_TRUE(done);
  EXPECT_FALSE(sawCurrent);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(ProcessTest, KilledBodyThatSwallowsTheKillIsKilledAgain) {
  // Outside an unwind, the next wait of a killed body rethrows the kill
  // instead of parking.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  Signal never(eng);
  bool swallowed = false;
  bool ranOn = false;
  auto p = std::make_unique<Process>(eng, "swallower", [&] {
    Process& self = *eng.currentProcess();
    try {
      self.await(never);
    } catch (...) {
      swallowed = true;
    }
    self.advance(1);
    ranOn = true;
  });
  EXPECT_THROW(pdes.run(), DeadlockError);
  p.reset();
  EXPECT_TRUE(swallowed);
  EXPECT_FALSE(ranOn);
}

// --- Advance in place: a resume that is certainly the dispatch's next
// event is taken without posting it or leaving the fiber. These tests pin
// that the step leaves the schedule, the clock and the event count as the
// posted resume would.

TEST(ProcessTest, EventPostedEarlierForTheResumeTimeRunsFirst) {
  // At a tie the earlier insertion runs first: an event already queued
  // for exactly now + d runs before the advancing process continues.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::vector<std::pair<std::string, SimTime>> order;
  eng.post(0, [&] {
    eng.post(10, [&] { order.emplace_back("event", eng.now()); });
  });
  Process p(eng, "p", [&] {
    eng.currentProcess()->advance(10);
    order.emplace_back("process", eng.now());
  });
  pdes.run();
  const std::vector<std::pair<std::string, SimTime>> expected = {
      {"event", 10}, {"process", 10}};
  EXPECT_EQ(order, expected);
}

TEST(ProcessTest, LoneProcessAdvancesInPlace) {
  // Every resume of a lone process would be the only event, so no advance
  // posts one. A timer armed and cancelled first leaves a stale handle
  // past the end of the run: a posted resume would fire ahead of it and
  // leave it queued, while the in-place step's look-ahead prunes it.
  constexpr int kN = 50;
  constexpr Duration kD = 7;
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::size_t maxHandles = 0;
  std::size_t maxPending = 0;
  std::vector<SimTime> seen;
  Process p(eng, "lone", [&] {
    Process& self = *eng.currentProcess();
    ASSERT_TRUE(eng.cancel(eng.post(kN * kD * 10, [] {})));
    for (int i = 0; i < kN; ++i) {
      self.advance(kD);
      seen.push_back(eng.now());
      maxHandles = std::max(maxHandles, eng.queuedHandles());
      maxPending = std::max(maxPending, eng.pendingEvents());
    }
  });
  pdes.run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(seen[i], (i + 1) * kD) << i;
  EXPECT_EQ(maxHandles, 0u);
  EXPECT_EQ(maxPending, 0u);
  EXPECT_EQ(eng.now(), kN * kD);
  EXPECT_EQ(p.cpuBusy(), kN * kD);
  // The start event plus one per advance, as when each resume was posted.
  EXPECT_EQ(eng.executedEvents(), static_cast<std::uint64_t>(kN) + 1);
  EXPECT_TRUE(p.finished());
}

TEST(ProcessTest, CancelledTimerDoesNotBlockTheInPlaceStep) {
  // A cancelled timer below now + d is no event: it neither fires nor
  // makes the process post its resume. With one more cancelled timer
  // beyond the resume, a posted resume would leave that one queued.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  bool fired = false;
  std::size_t handlesAfter = 99;
  SimTime resumedAt = -1;
  Process p(eng, "p", [&] {
    ASSERT_TRUE(eng.cancel(eng.post(3, [&] { fired = true; })));
    ASSERT_TRUE(eng.cancel(eng.post(1000, [&] { fired = true; })));
    eng.currentProcess()->advance(10);
    resumedAt = eng.now();
    handlesAfter = eng.queuedHandles();
  });
  pdes.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(resumedAt, 10);
  EXPECT_EQ(handlesAfter, 0u);
  EXPECT_EQ(eng.executedEvents(), 2u);
}

TEST(ProcessTest, AdvancePastTheHorizonParksUntilTheNextRunUntil) {
  // runUntil(h) bounds the step: a resume at exactly h is taken in place,
  // one past h is posted and waits, with the clock on h, for the next
  // runUntil.
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  std::vector<SimTime> seen;
  Process p(eng, "p", [&] {
    Process& self = *eng.currentProcess();
    self.advance(10);
    seen.push_back(eng.now());
    self.advance(10);
    seen.push_back(eng.now());
  });
  EXPECT_FALSE(pdes.runUntil(10));
  EXPECT_EQ(seen, (std::vector<SimTime>{10}));
  EXPECT_EQ(eng.now(), 10);
  EXPECT_FALSE(pdes.runUntil(15));
  EXPECT_EQ(seen, (std::vector<SimTime>{10}));
  EXPECT_EQ(eng.now(), 15);
  EXPECT_EQ(eng.pendingEvents(), 1u);  // the parked resume
  EXPECT_FALSE(p.finished());
  EXPECT_TRUE(pdes.runUntil(100));
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(eng.now(), 100);
  EXPECT_EQ(eng.executedEvents(), 3u);
  EXPECT_TRUE(p.finished());
}

TEST(ResourceTest, PipelinesBackToBackWork) {
  Resource r("link");
  // Three items, each needing 10ns, all ready at t=0: FIFO queueing.
  EXPECT_EQ(r.acquire(0, 10), 10);
  EXPECT_EQ(r.acquire(0, 10), 20);
  EXPECT_EQ(r.acquire(0, 10), 30);
  // An item arriving after the queue drains starts immediately.
  EXPECT_EQ(r.acquire(100, 5), 105);
  EXPECT_EQ(r.busyTime(), 35);
  EXPECT_EQ(r.itemsServed(), 4u);
}

TEST(ResourceTest, IdleGapsDoNotAccrueBusyTime) {
  Resource r("dma");
  r.acquire(0, 10);
  r.acquire(50, 10);
  EXPECT_EQ(r.busyTime(), 20);
  EXPECT_EQ(r.freeAt(), 60);
}

TEST(StatsTest, QuantilesAreExact) {
  QuantileTracker q;
  for (int i = 100; i >= 1; --i) q.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.5, 1e-12);
  EXPECT_NEAR(q.quantile(0.99), 99.01, 1e-9);
}

TEST(PrngTest, DeterministicAcrossInstances) {
  Xoshiro256 a(1234, "link0");
  Xoshiro256 b(1234, "link0");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, DifferentTagsDiverge) {
  Xoshiro256 a(1234, "link0");
  Xoshiro256 b(1234, "link1");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(PrngTest, UniformInRangeAndBelowIsUnbiased) {
  Xoshiro256 g(42);
  constexpr int kDraws = 20000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double u = g.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(g.below(7), 7u);
}

// --- timer / window properties the sharded stack port relies on -----------

TEST(TimerApiTest, CancelAfterFireReturnsFalse) {
  ShardedEngine pdes(EngineConfig{});
  Engine& e = pdes.domainEngine(0);
  int fired = 0;
  const EventId id = e.post(10, [&] { ++fired; });
  pdes.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(id));  // already fired: a stale handle is a no-op
  EXPECT_FALSE(e.cancel(id));  // and stays one
}

TEST(TimerApiTest, CancelledIdIsNeverConfusedWithReusedSlot) {
  // The RTO path cancels and re-arms constantly; a recycled pool slot
  // must not let an old handle kill the new timer.
  ShardedEngine pdes(EngineConfig{});
  Engine& e = pdes.domainEngine(0);
  int fired = 0;
  const EventId a = e.post(10, [&] { fired += 1; });
  ASSERT_TRUE(e.cancel(a));
  const EventId b = e.post(10, [&] { fired += 100; });
  EXPECT_FALSE(e.cancel(a));  // stale generation: no effect on b
  pdes.run();
  EXPECT_EQ(fired, 100);
  (void)b;
}

TEST(TimerApiTest, StaleExpiryAfterCancelIsANoOp) {
  // Cancel between post and expiry: the heap entry left behind must be
  // skipped, not fired, and must not stall time for later events.
  ShardedEngine pdes(EngineConfig{});
  Engine& e = pdes.domainEngine(0);
  int fired = 0;
  const EventId a = e.post(10, [&] { ++fired; });
  e.post(20, [&] { fired += 10; });
  ASSERT_TRUE(e.cancel(a));
  pdes.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), 20);
}

TEST(WindowedModeTest, InWindowPostAndCancelAreLegal) {
  // Inside its windows a domain owns itself: same-domain timer programming
  // (the NIC RTO pattern) works unchanged, even when the engine parked
  // between the arm and the cancel.
  ShardedEngine pdes({.domains = 2, .lookahead = 10, .shards = 1});
  Engine& e = pdes.domainEngine(0);
  int fired = 0;
  EventId rto = 0;
  e.post(10, [&] {
    rto = e.post(20, [&] { fired += 100; });  // arm, in window [10, 20)
  });
  e.post(25, [&] {
    EXPECT_TRUE(e.cancel(rto));  // ack arrived: cancel, in window [25, 35)
    ++fired;
  });
  pdes.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(pdes.windowsExecuted(), 2u);
}

TEST(WindowedModeTest, RunWindowExecutesHalfOpenInterval) {
  // A window [T, T + lookahead) leaves an event at its end to the next
  // window, and the clock on its last event, not on its end: the hook at
  // each window start sees the clock there.
  for (const Duration lookahead : {10, 11}) {
    ShardedEngine pdes({.domains = 2, .lookahead = lookahead, .shards = 1});
    Engine& e = pdes.domainEngine(0);
    using Starts = std::vector<std::pair<SimTime, SimTime>>;
    std::vector<int> order;
    for (int t : {10, 20, 30}) {
      e.postAt(t, [&order, t] { order.push_back(t); });
    }
    Starts starts;  // (window start, domain 0's clock there)
    pdes.setBoundaryHook(1000,
                         [&](SimTime t) { starts.emplace_back(t, e.now()); });
    pdes.run();
    EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
    const Starts expected = lookahead == 10
                                ? Starts{{10, 0}, {20, 10}, {30, 20}}
                                : Starts{{10, 0}, {30, 20}};
    EXPECT_EQ(starts, expected) << "lookahead " << lookahead;
    EXPECT_EQ(pdes.windowsExecuted(), expected.size());
  }
}

TEST(HostedPdesTest, CrossDomainSendBelowWindowEndThrows) {
  // A hosted domain that tries to deliver inside the open window has
  // violated the lookahead contract; the engine must refuse rather than
  // silently produce a shard-count-dependent schedule.
  EngineConfig cfg;
  cfg.domains = 2;
  cfg.lookahead = 10;
  cfg.shards = 1;
  ShardedEngine pdes(cfg);
  pdes.domainEngine(0).postAt(0, [&] {
    EXPECT_THROW(pdes.sendAt(0, 1, 3, [] {}), SimError);
  });
  pdes.run();
}

TEST(HostedPdesTest, PerDomainOrderingIsMergeDeterministic) {
  // Two domains cross-feed each other at identical timestamps: arrivals
  // must interleave with local events in (time, merge-order) order, and
  // the whole schedule must not depend on the worker shard count.
  auto runOnce = [](std::uint32_t shards) {
    EngineConfig cfg;
    cfg.domains = 2;
    cfg.lookahead = 10;
    cfg.shards = shards;
    ShardedEngine pdes(cfg);
    std::vector<std::vector<int>> log(2);
    for (std::uint32_t d = 0; d < 2; ++d) {
      Engine& e = pdes.domainEngine(d);
      const std::uint32_t peer = 1 - d;
      e.postAt(0, [&pdes, &log, d, peer] {
        // Lands at t=20 in the peer, tying with its local event there.
        pdes.sendAt(d, peer, 20, [&log, peer, d] {
          log[peer].push_back(100 + static_cast<int>(d));
        });
      });
      e.postAt(20, [&log, d] { log[d].push_back(static_cast<int>(d)); });
    }
    pdes.run();
    return log;
  };
  const auto base = runOnce(1);
  ASSERT_EQ(base[0].size(), 2u);
  ASSERT_EQ(base[1].size(), 2u);
  EXPECT_EQ(runOnce(2), base);
  EXPECT_EQ(runOnce(5), base);
}

TEST(HostedPdesTest, ProcessKeepsItsExceptionAcrossThreads) {
  // A process parked inside a catch block resumes on whichever thread
  // runs its shard's next window, and must still see and rethrow its own
  // exception there. Domain 1's process is sure to move: the first window
  // of a fresh engine runs inline, so the thread that calls run() takes
  // every active shard itself, shard 1 included. kFanOutEvents no-op
  // events in domain 0 make that window fat enough for the second, where
  // domain 0 ticks too, to fan out: the caller completed the first window,
  // keeps its own active shard 0 and wakes shard 1's thread to run it.
  constexpr std::uint32_t kDomains = 4;
  constexpr int kHops = 16;
  constexpr Duration kLa = 100;
  constexpr auto kSpin = std::chrono::milliseconds(20);
  EngineConfig cfg;
  cfg.domains = kDomains;
  cfg.lookahead = kLa;
  cfg.shards = 4;
  ShardedEngine pdes(cfg);
  pdes.setProfiling(true);

  // Threads are told apart by gettid(): std::this_thread::get_id() would
  // not do, as glibc declares pthread_self() const and the compiler may
  // reuse one call's result across advance().
  struct Seen {
    std::vector<pid_t> threads;
    bool ownException = true;  // current_exception() was ours at every hop
    bool noneUncaught = true;  // std::uncaught_exceptions() stayed 0
    std::string rethrown;
  };
  std::array<Seen, kDomains> seen;
  std::function<void(int)> tick = [&](int k) {
    if (k < kHops) pdes.domainEngine(0).post(2 * kLa, [&, k] { tick(k + 1); });
  };
  pdes.domainEngine(0).postAt(kLa, [&] { tick(0); });
  for (std::uint64_t i = 0; i < ShardedEngine::kFanOutEvents; ++i) {
    pdes.domainEngine(0).postAt(0, [] {});
  }
  std::vector<std::unique_ptr<Process>> procs;
  for (std::uint32_t d = 1; d < kDomains; ++d) {
    Engine* eng = &pdes.domainEngine(d);
    auto body = [&, eng, d] {
      Process& self = *eng->currentProcess();
      Seen& mine = seen[d];
      const std::string what = "domain " + std::to_string(d);
      try {
        try {
          throw std::runtime_error(what);
        } catch (const std::runtime_error&) {
          for (int i = 0; i < kHops; ++i) {
            mine.threads.push_back(gettid());
            if (d == 1 && i == 0) {  // on the thread that called run()
              const auto until = std::chrono::steady_clock::now() + kSpin;
              while (std::chrono::steady_clock::now() < until) {
              }
            }
            try {
              std::rethrow_exception(std::current_exception());
            } catch (const std::runtime_error& e) {
              mine.ownException = mine.ownException && e.what() == what;
            }
            mine.noneUncaught =
                mine.noneUncaught && std::uncaught_exceptions() == 0;
            self.advance(kLa * (1 + (i + d) % d), CpuUse::Idle);
          }
          throw;
        }
      } catch (const std::runtime_error& e) {
        mine.rethrown = e.what();
      }
    };
    procs.push_back(
        std::make_unique<Process>(*eng, "p" + std::to_string(d), body));
  }
  pdes.run();

  for (std::uint32_t d = 1; d < kDomains; ++d) {
    EXPECT_EQ(seen[d].rethrown, "domain " + std::to_string(d));
    EXPECT_TRUE(seen[d].ownException) << "domain " << d;
    EXPECT_TRUE(seen[d].noneUncaught) << "domain " << d;
    EXPECT_EQ(seen[d].threads.size(), static_cast<std::size_t>(kHops));
  }
  const std::vector<pid_t>& ones = seen[1].threads;
  ASSERT_GE(ones.size(), 2u);
  EXPECT_EQ(ones[0], gettid());
  EXPECT_NE(ones[1], ones[0]);
  // Execution time is charged to the shard whose domain ran, whichever
  // thread ran it: shard 1 carries the spin that shard 0's thread ran.
  const std::vector<ShardProfile> profiles = pdes.shardProfiles();
  ASSERT_EQ(profiles.size(), 4u);
  EXPECT_GE(profiles[1].execNs,
            static_cast<std::uint64_t>(
                std::chrono::nanoseconds(kSpin).count()));
}

TEST(HostedPdesTest, AdvanceWaitsForArrivalsPastTheWindowEnd) {
  // Domain 0's process advances from 0 to 25 while domain 1 sends it a
  // message for t=15: at or past the first window's end (10), so it is
  // merged only after that window, yet before the resume. The window
  // bound keeps the step from jumping over it: the process sees the
  // message's side effect when it resumes.
  EngineConfig cfg;
  cfg.domains = 2;
  cfg.lookahead = 10;
  cfg.shards = 2;
  ShardedEngine pdes(cfg);
  Engine& a = pdes.domainEngine(0);
  SimTime arrived = -1;
  SimTime sawArrival = -1;
  SimTime resumedAt = -1;
  Process p(a, "a", [&] {
    a.currentProcess()->advance(25);
    resumedAt = a.now();
    sawArrival = arrived;
  });
  pdes.domainEngine(1).postAt(0, [&] {
    pdes.sendAt(1, 0, 15, [&] { arrived = a.now(); });
  });
  pdes.run();
  EXPECT_EQ(arrived, 15);
  EXPECT_EQ(sawArrival, 15);
  EXPECT_EQ(resumedAt, 25);
  EXPECT_TRUE(p.finished());
}

}  // namespace
}  // namespace vibe::sim
