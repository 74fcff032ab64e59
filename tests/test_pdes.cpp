// Determinism proof wall for the conservative PDES engine
// (src/simcore/pdes.hpp). The contract under test: every observable a
// model can extract from a ShardedEngine — execution order, digests,
// counters, window count, virtual end time — is a pure function of the
// model, byte-identical for every shard count and thread schedule.
//
// Every test builds its model on the hosted domain engines
// (domainEngine(d).postAt) and crosses domains only through sendAt(). The
// wall has five faces:
//   - bit-identity with a one-domain run at one shard on randomized
//     workloads (one window to the drain and many windows replay the same
//     cascade event-for-event),
//   - the domain-ordered merge under adversarial same-timestamp storms
//     (every domain sends every domain events that land at one time),
//   - mailbox exactly-once delivery with exact cross-shard accounting,
//   - lookahead-window safety: conservative violations throw instead of
//     silently reordering, and a failed window still merges its mail,
//   - the boundary hook: it runs between windows, may not post or cancel,
//     and its sends are held to the window about to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/prng.hpp"
#include "simcore/trace.hpp"
#include "test_env.hpp"
#include "test_seed.hpp"

namespace vibe {
namespace {

using sim::Duration;
using sim::Engine;
using sim::ShardedEngine;
using sim::SimError;
using sim::SimTime;
using sim::Tracer;

std::uint64_t mix64(std::uint64_t x) { return sim::splitmix64(x); }

using testing::ScopedEnv;

TEST(ShardCount, EnvOverridesHardware) {
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "7");
    EXPECT_EQ(sim::shardCount(), 7u);
  }
  {
    ScopedEnv env("VIBE_SIM_SHARDS", nullptr);
    EXPECT_GE(sim::shardCount(), 1u);
  }
  {
    // Invalid and non-positive values fall back to hardware.
    ScopedEnv env("VIBE_SIM_SHARDS", "0");
    EXPECT_GE(sim::shardCount(), 1u);
  }
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "banana");
    EXPECT_GE(sim::shardCount(), 1u);
  }
}

TEST(ShardedEngineConfig, Validation) {
  EXPECT_THROW(ShardedEngine({.domains = 0}), SimError);
  EXPECT_THROW(ShardedEngine({.domains = 2, .lookahead = -1}), SimError);
  // More than one shard without lookahead: no safe window exists.
  EXPECT_THROW(ShardedEngine({.domains = 4, .lookahead = 0, .shards = 2}),
               SimError);
  // Shards are clamped to the domain count.
  ShardedEngine clamped({.domains = 3, .lookahead = 10, .shards = 64});
  EXPECT_EQ(clamped.shards(), 3u);
  // One shard with zero lookahead is the serial degenerate case.
  ShardedEngine serial({.domains = 5, .lookahead = 0, .shards = 1});
  EXPECT_EQ(serial.shards(), 1u);
  EXPECT_EQ(serial.domainCount(), 5u);
}

// --- Face 1: bit-identity with a one-domain run at one shard --------------

/// A randomized event cascade replayed on several engines: every event
/// mixes (now, id) into a digest and schedules 0-2 children at random
/// future delays. Child ids are assigned in execution order, so two
/// digests match iff the engines execute the identical sequence.
struct CascadeState {
  std::uint64_t seed = 0;
  std::uint64_t digest = Tracer::kDigestSeed;
  std::uint64_t nextId = 1;
  std::uint64_t executed = 0;
};

struct CascadePost {
  Engine* eng;
  CascadeState* st;
  void operator()(std::uint64_t id, Duration delay) const {
    eng->post(delay, [*this, id] {
      ++st->executed;
      const SimTime now = eng->now();
      st->digest = Tracer::combineDigest(
          st->digest,
          mix64(st->seed ^ static_cast<std::uint64_t>(now) ^ id));
      const std::uint64_t r = mix64(st->seed ^ (id * 0x9e3779b97f4a7c15ull));
      const unsigned children = id < 2000 ? static_cast<unsigned>(r % 3) : 0;
      for (unsigned c = 0; c < children; ++c) {
        const Duration d =
            static_cast<Duration>(mix64(r ^ c) % 997);  // [0, 997) incl. 0
        (*this)(st->nextId++, d);
      }
    });
  }
};

TEST(ShardedEngineSerial, BitIdenticalWithSerialEngine) {
  const std::uint64_t base = testing::testRunSeed();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    // The reference: one domain runs to the drain in one window, one
    // serial dispatch with no window boundary inside it.
    CascadeState serial{base + 11 * trial + 1};
    ShardedEngine one(sim::EngineConfig{});
    CascadePost{&one.domainEngine(0), &serial}(0, 0);
    one.run();
    EXPECT_EQ(one.windowsExecuted(), 1u);

    // Three domains: 50 ns windows cut the cascade (all in domain 0) into
    // many.
    CascadeState sharded{base + 11 * trial + 1};
    ShardedEngine seng({.domains = 3, .lookahead = 50, .shards = 1});
    CascadePost{&seng.domainEngine(0), &sharded}(0, 0);
    seng.run();

    const std::string label = "trial " + std::to_string(trial);
    EXPECT_EQ(serial.executed, sharded.executed) << label;
    EXPECT_EQ(serial.digest, sharded.digest) << label;
    EXPECT_EQ(seng.executedEvents(), sharded.executed) << label;
    EXPECT_EQ(seng.maxNow(), one.maxNow()) << label;
    EXPECT_EQ(seng.pendingEvents(), 0u);
    EXPECT_EQ(seng.crossDomainEvents(), 0u);
    EXPECT_EQ(seng.crossShardEvents(), 0u);
    if (one.maxNow() >= 50) {
      EXPECT_GT(seng.windowsExecuted(), 1u) << label;
    }
  }
}

// --- Face 2: the domain-ordered merge under same-timestamp storms ---------

/// Every domain sends every domain (itself included) events that all
/// land at exactly the same timestamp, for several waves. A hosted engine
/// breaks ties by insertion order: a domain's own send is posted while it
/// runs, and the completion step merges the others in ascending source
/// domain order — no matter which shard parked them in which outbox.
struct StormLog {
  // Per destination domain: the (wave, srcDomain) tags in execution order.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> seen;
};

StormLog runStorm(std::uint32_t domains, unsigned shards,
                  std::uint32_t waves) {
  const Duration la = 100;
  ShardedEngine eng({.domains = domains, .lookahead = la, .shards = shards});
  StormLog log;
  log.seen.resize(domains);
  struct Ctx {
    ShardedEngine* eng;
    StormLog* log;
    std::uint32_t domains;
    std::uint32_t waves;
  };
  Ctx ctx{&eng, &log, domains, waves};
  // Wave w fires in every domain at t = (w+1)*la; at wave w every domain
  // sends every domain an event for the *same* arrival time (w+2)*la.
  struct Fire {
    static void wave(Ctx* c, std::uint32_t dst, std::uint32_t src,
                     std::uint32_t w) {
      c->log->seen[dst].push_back({w, src});
      if (w + 1 >= c->waves || src != dst) return;
      // One fan-out per (domain, wave), issued by the self-event so the
      // send happens inside dst's own window.
      const SimTime at = c->eng->domainEngine(dst).now() + 100;
      for (std::uint32_t to = 0; to < c->domains; ++to) {
        const std::uint32_t from = dst;
        const std::uint32_t next = w + 1;
        c->eng->sendAt(dst, to, at, [c, to, from, next] {
          Fire::wave(c, to, from, next);
        });
      }
    }
  };
  for (std::uint32_t d = 0; d < domains; ++d) {
    eng.domainEngine(d).postAt(la, [&ctx, d] { Fire::wave(&ctx, d, d, 0); });
  }
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return log;
}

TEST(ShardedEngineStorm, SameTimestampMergeIsDeterministic) {
  const std::uint32_t kDomains = 6;
  const std::uint32_t kWaves = 5;
  const StormLog baseline = runStorm(kDomains, 1, kWaves);
  // Waves arrive in wave order; within one wave (one shared timestamp) a
  // domain sees its own send first, then every other source in ascending
  // domain order — the merge order, not arrival or shard order.
  for (std::uint32_t d = 0; d < kDomains; ++d) {
    ASSERT_EQ(baseline.seen[d].size(), 1 + (kWaves - 1) * kDomains);
    EXPECT_EQ(baseline.seen[d][0],
              (std::pair<std::uint32_t, std::uint32_t>{0u, d}));
    for (std::uint32_t w = 1; w < kWaves; ++w) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> expect{{w, d}};
      for (std::uint32_t s = 0; s < kDomains; ++s) {
        if (s != d) expect.push_back({w, s});
      }
      const auto first = baseline.seen[d].begin() + 1 + (w - 1) * kDomains;
      EXPECT_EQ(std::vector(first, first + kDomains), expect)
          << "dst=" << d << " wave=" << w;
    }
  }
  for (unsigned shards : {2u, 3u, 6u}) {
    const StormLog got = runStorm(kDomains, shards, kWaves);
    for (std::uint32_t d = 0; d < kDomains; ++d) {
      EXPECT_EQ(got.seen[d], baseline.seen[d])
          << "shards=" << shards << " dst=" << d;
    }
  }
}

// --- Face 3: mailbox exactly-once delivery --------------------------------

TEST(ShardedEngineMailbox, ExactlyOnceWithExactAccounting) {
  const std::uint32_t kDomains = 8;
  const std::uint32_t kRounds = 16;
  const Duration la = 50;
  for (unsigned shards : {1u, 2u, 3u, 8u}) {
    ShardedEngine eng(
        {.domains = kDomains, .lookahead = la, .shards = shards});
    // deliveries[src * kDomains + dst] counts (src -> dst) arrivals.
    std::vector<std::uint32_t> deliveries(kDomains * kDomains, 0);
    struct Ctx {
      ShardedEngine* eng;
      std::vector<std::uint32_t>* deliveries;
      std::uint32_t domains;
      std::uint32_t rounds;
    };
    Ctx ctx{&eng, &deliveries, kDomains, kRounds};
    struct Hop {
      static void run(Ctx* c, std::uint32_t at, std::uint32_t round) {
        if (round > 0) {
          const std::uint32_t src = (at + c->domains - 1) % c->domains;
          ++(*c->deliveries)[src * c->domains + at];
        }
        if (round >= c->rounds) return;
        const std::uint32_t next = (at + 1) % c->domains;
        c->eng->sendAt(at, next, c->eng->domainEngine(at).now() + 50,
                       [c, next, round] { Hop::run(c, next, round + 1); });
      }
    };
    for (std::uint32_t d = 0; d < kDomains; ++d) {
      eng.domainEngine(d).postAt(0, [&ctx, d] { Hop::run(&ctx, d, 0); });
    }
    eng.run();

    // Each of the kDomains tokens hops kRounds times around the ring:
    // every (src, src+1) edge is crossed exactly kRounds times total,
    // spread one per token, and nothing is lost or duplicated.
    for (std::uint32_t src = 0; src < kDomains; ++src) {
      const std::uint32_t dst = (src + 1) % kDomains;
      EXPECT_EQ(deliveries[src * kDomains + dst], kRounds)
          << "shards=" << shards << " edge " << src << "->" << dst;
    }
    EXPECT_EQ(eng.executedEvents(), kDomains * (kRounds + 1));
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.crossDomainEvents(), kDomains * kRounds);
    // Ring edges that cross shard boundaries under round-robin packing
    // (domain d -> shard d % shards): exactly the edges whose endpoints
    // differ mod `shards`.
    std::uint64_t expectCross = 0;
    for (std::uint32_t src = 0; src < kDomains; ++src) {
      const std::uint32_t dst = (src + 1) % kDomains;
      if (src % shards != dst % shards) expectCross += kRounds;
    }
    EXPECT_EQ(eng.crossShardEvents(), expectCross) << "shards=" << shards;
  }
}

// --- Face 4: lookahead-window safety --------------------------------------

TEST(ShardedEngineSafety, CrossDomainBelowLookaheadThrows) {
  ShardedEngine eng({.domains = 2, .lookahead = 100, .shards = 1});
  Engine& e0 = eng.domainEngine(0);
  std::string what;
  e0.postAt(0, [&] {
    try {
      eng.sendAt(0, 1, 99, [] {});  // inside the window [0, 100)
    } catch (const SimError& e) {
      what = e.what();
    }
  });
  eng.run();
  EXPECT_NE(what.find("inside the open window ending at 100"),
            std::string::npos)
      << what;
  // At the window's end is fine, and arrives exactly then.
  SimTime arrived = -1;
  e0.postAt(0, [&] {
    eng.sendAt(0, 1, 100, [&] { arrived = eng.domainEngine(1).now(); });
  });
  eng.run();
  EXPECT_EQ(arrived, 100);
}

TEST(ShardedEngineSafety, ForeignDomainPostThrowsDuringRun) {
  // A parked engine refuses postAt and cancel: the only way into another
  // domain during a run is sendAt.
  ShardedEngine eng({.domains = 3, .lookahead = 10, .shards = 1});
  Engine& foreign = eng.domainEngine(2);
  const sim::EventId timer = foreign.postAt(100, [] {});  // setup: legal
  std::string postWhat;
  std::string cancelWhat;
  eng.domainEngine(1).postAt(0, [&] {
    try {
      foreign.postAt(5, [] {});  // domain 2's state from domain 1
    } catch (const SimError& e) {
      postWhat = e.what();
    }
    try {
      foreign.cancel(timer);
    } catch (const SimError& e) {
      cancelWhat = e.what();
    }
  });
  eng.run();
  EXPECT_NE(postWhat.find("parked between PDES windows"), std::string::npos)
      << postWhat;
  EXPECT_NE(cancelWhat.find("parked between PDES windows"),
            std::string::npos)
      << cancelWhat;
  EXPECT_EQ(eng.executedEvents(), 2u);  // the timer survived
  EXPECT_EQ(foreign.now(), 100);
  // Once run() has returned, no engine is parked.
  EXPECT_TRUE(foreign.cancel(foreign.postAt(200, [] {})));
}

TEST(ShardedEngineSafety, PostValidation) {
  ShardedEngine eng({.domains = 2, .lookahead = 10, .shards = 1});
  EXPECT_THROW(eng.domainEngine(2), SimError);
  EXPECT_THROW(eng.sendAt(0, 2, 10, [] {}), SimError);
  EXPECT_THROW(eng.sendAt(2, 0, 10, [] {}), SimError);
  EXPECT_THROW(eng.sendAt(0, 1, 10, sim::EventFn{}), SimError);
  EXPECT_THROW(eng.domainEngine(0).postAt(-1, [] {}), SimError);
  EXPECT_THROW(eng.setBoundaryHook(0, [](SimTime) {}), SimError);
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.crossDomainEvents(), 0u);
}

TEST(ShardedEngineSafety, EventExceptionPropagatesAndAborts) {
  // The shard profile counts every executed event, the failed window's
  // included.
  auto profiled = [](const ShardedEngine& eng) {
    std::uint64_t n = 0;
    for (const sim::ShardProfile& p : eng.shardProfiles()) n += p.events;
    return n;
  };
  for (unsigned shards : {1u, 4u}) {
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = shards});
    eng.domainEngine(2).postAt(3, [] {});
    eng.domainEngine(2).postAt(5, [] { throw SimError("boom in domain 2"); });
    for (std::uint32_t d = 0; d < 4; ++d) {
      eng.domainEngine(d).postAt(1000, [] {});  // far future
    }
    try {
      eng.run();
      FAIL() << "expected SimError (shards=" << shards << ")";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
    EXPECT_EQ(eng.executedEvents(), 2u) << "shards=" << shards;
    EXPECT_EQ(profiled(eng), eng.executedEvents()) << "shards=" << shards;
    // The engine is not wedged: a fresh run() drains what remains.
    eng.run();
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.executedEvents(), 6u) << "shards=" << shards;
    EXPECT_EQ(profiled(eng), eng.executedEvents()) << "shards=" << shards;
  }
}

TEST(ShardedEngineSafety, RunRefusesReentry) {
  for (unsigned shards : {1u, 4u}) {
    // From one of its own events: the inner call throws, and the outer
    // run goes on to the drain.
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = shards});
    bool later = false;
    eng.domainEngine(1).postAt(5, [&eng] {
      EXPECT_THROW(eng.run(), SimError);
      EXPECT_THROW(eng.runUntil(100), SimError);
    });
    eng.domainEngine(3).postAt(50, [&later] { later = true; });
    eng.run();
    EXPECT_TRUE(later) << "shards=" << shards;
    EXPECT_EQ(eng.executedEvents(), 2u) << "shards=" << shards;

    // From a second thread while the first is inside a window: the event
    // holds its window open until the second thread's call has returned.
    ShardedEngine busy({.domains = 4, .lookahead = 10, .shards = shards});
    std::atomic<bool> inside{false};
    std::atomic<bool> tried{false};
    bool threw = false;
    bool done = false;
    busy.domainEngine(2).postAt(5, [&] {
      inside.store(true);
      while (!tried.load()) std::this_thread::yield();
    });
    busy.domainEngine(0).postAt(50, [&done] { done = true; });
    std::thread second([&] {
      while (!inside.load()) std::this_thread::yield();
      try {
        busy.run();
      } catch (const SimError&) {
        threw = true;
      }
      tried.store(true);
    });
    busy.run();
    second.join();
    EXPECT_TRUE(threw) << "shards=" << shards;
    EXPECT_TRUE(done) << "shards=" << shards;
    EXPECT_EQ(busy.executedEvents(), 2u) << "shards=" << shards;
    EXPECT_EQ(busy.pendingEvents(), 0u) << "shards=" << shards;
  }
}

TEST(ShardedEngineSafety, FailedWindowStillMergesItsMessages) {
  // Domain 0 sends for t=150 at t=10; domain 1 throws at t=20, in the same
  // window [10, 110). The failed window's completion step still merges the
  // message, so the next run delivers it at t=150, ahead of domain 1's own
  // t=200 event, at every shard count. Left in the outbox, it would be
  // merged after that event: into domain 1's past.
  for (unsigned shards : {1u, 2u}) {
    ShardedEngine eng({.domains = 2, .lookahead = 100, .shards = shards});
    Engine& e1 = eng.domainEngine(1);
    std::vector<SimTime> seen;  // domain 1's events, in execution order
    eng.domainEngine(0).postAt(10, [&] {
      eng.sendAt(0, 1, 150, [&] { seen.push_back(e1.now()); });
    });
    e1.postAt(20, [] { throw SimError("boom in domain 1"); });
    e1.postAt(200, [&] { seen.push_back(e1.now()); });
    EXPECT_THROW(eng.run(), SimError) << "shards=" << shards;
    eng.run();
    EXPECT_EQ(seen, (std::vector<SimTime>{150, 200})) << "shards=" << shards;
    EXPECT_EQ(eng.pendingEvents(), 0u);
  }
}

// --- runUntil windows -----------------------------------------------------

TEST(ShardedEngineRunUntil, HorizonPartitionsTheRun) {
  // Events record into per-domain vectors: with shards > 1, same-window
  // events in different domains execute concurrently, so a shared sink
  // would be a data race in the test itself.
  using FiredBy = std::array<std::vector<SimTime>, 3>;
  auto gather = [](const FiredBy& firedBy) {
    std::vector<SimTime> all;
    for (const auto& v : firedBy) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all;
  };
  auto build = [](ShardedEngine& eng, FiredBy& firedBy) {
    for (std::uint32_t d = 0; d < 3; ++d) {
      Engine& e = eng.domainEngine(d);
      for (SimTime t : {100, 250, 400, 900}) {
        e.postAt(t, [&e, &firedBy, d] { firedBy[d].push_back(e.now()); });
      }
    }
  };
  for (unsigned shards : {1u, 3u}) {
    ShardedEngine eng({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy firedBy;
    build(eng, firedBy);
    EXPECT_FALSE(eng.runUntil(250));
    std::vector<SimTime> fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 6u);  // t=100 and t=250 in all three domains
    for (SimTime t : fired) EXPECT_LE(t, 250);
    for (std::uint32_t d = 0; d < 3; ++d) {
      EXPECT_EQ(eng.domainEngine(d).now(), 250);
    }
    EXPECT_TRUE(eng.runUntil(10'000));
    fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 12u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.maxNow(), 10'000);

    // An uninterrupted run executes the identical multiset of times.
    ShardedEngine whole({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy wholeFiredBy;
    build(whole, wholeFiredBy);
    whole.run();
    EXPECT_EQ(fired, gather(wholeFiredBy));
  }
}

// --- Active-set window dispatch -------------------------------------------

/// A workload whose windows cycle through three shapes: only domain 0 has
/// work, domains 0 and 1 do, or every domain does. Domain 0 ticks once
/// per lookahead and fans work out for the next window; each
/// worker adds a mid-window local event and replies to domain 0, so the
/// replies tie with the next tick and exercise the merge order.
struct AlternatingLoad {
  static constexpr Duration kLa = 100;
  ShardedEngine* eng = nullptr;
  std::uint32_t domains = 0;
  std::uint32_t ticks = 0;
  std::vector<std::uint64_t> digest;  // per domain, in execution order
  // No-op events domain 0 runs with every tick: kFanOutEvents of them
  // make each window fat enough for the next one to fan out.
  std::uint64_t ballast = 0;

  Engine& at(std::uint32_t d) { return eng->domainEngine(d); }
  void record(std::uint32_t d, std::uint64_t tag) {
    digest[d] = Tracer::combineDigest(
        digest[d], mix64(tag ^ static_cast<std::uint64_t>(at(d).now()) << 24));
  }
  void tick(std::uint32_t k) {
    record(0, k);
    for (std::uint64_t i = 0; i < ballast; ++i) at(0).post(0, [] {});
    if (k + 1 >= ticks) return;
    const std::uint32_t shape = (k + 1) % 3;  // next window: 1, 2 or all
    const std::uint32_t fan = shape == 0 ? 0 : shape == 1 ? 1 : domains - 1;
    const SimTime next = at(0).now() + kLa;
    for (std::uint32_t to = 1; to <= fan; ++to) {
      eng->sendAt(0, to, next, [this, to, k] { work(to, k + 1); });
    }
    at(0).postAt(next, [this, k] { tick(k + 1); });
  }
  void work(std::uint32_t d, std::uint32_t k) {
    record(d, 1000 + k);
    at(d).post(kLa / 2, [this, d, k] { record(d, 2000 + k); });
    eng->sendAt(d, 0, at(d).now() + kLa,
                [this, d, k] { record(0, 3000 + d * 100 + k); });
  }
};

struct AlternatingRun {
  unsigned shards = 0;
  std::vector<std::uint64_t> digest;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t crossShard = 0;
  SimTime endTime = 0;
  std::vector<sim::ShardProfile> profiles;
  double loadImbalance = 1.0;
  std::uint64_t fannedOut = 0;
};

/// `shards` 0 takes the engine's default (VIBE_SIM_SHARDS / hardware).
AlternatingRun runAlternating(unsigned shards, std::uint32_t ticks,
                              bool profile = true,
                              std::uint64_t ballast = 0) {
  const std::uint32_t kDomains = 8;
  ShardedEngine eng({.domains = kDomains,
                     .lookahead = AlternatingLoad::kLa,
                     .shards = shards});
  eng.setProfiling(profile);
  AlternatingLoad load{&eng, kDomains, ticks,
                       std::vector<std::uint64_t>(kDomains, 0), ballast};
  eng.domainEngine(0).postAt(0, [&load] { load.tick(0); });
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return {eng.shards(),          load.digest,
          eng.executedEvents(),  eng.windowsExecuted(),
          eng.crossShardEvents(), eng.maxNow(),
          eng.shardProfiles(),   eng.loadImbalance(),
          eng.fannedOutWindows()};
}

TEST(ShardedEngineDispatch, AlternatingActiveSetsMatchOneShard) {
  // Every tick window is fat, so every window after one with two or
  // more active shards fans out: two of every three.
  const std::uint32_t kTicks = 60;
  const std::uint64_t kBallast = ShardedEngine::kFanOutEvents;
  const AlternatingRun base = runAlternating(1, kTicks, true, kBallast);
  EXPECT_GT(base.events, 3u * kTicks);
  EXPECT_EQ(base.fannedOut, 0u);
  for (unsigned shards : {2u, 3u, 4u, 7u}) {
    const AlternatingRun got = runAlternating(shards, kTicks, true, kBallast);
    EXPECT_EQ(got.fannedOut, 2u * kTicks / 3) << "shards=" << shards;
    EXPECT_EQ(got.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(got.events, base.events) << "shards=" << shards;
    EXPECT_EQ(got.windows, base.windows) << "shards=" << shards;
    // The shapes really alternate: shard 0 works in every tick window,
    // shard 1 in two of every three, the rest in one of every three (the
    // last tick fans nothing out, and domain 7 shares shard 0 at 7).
    ASSERT_EQ(got.profiles.size(), shards);
    EXPECT_EQ(got.profiles[0].windowsActive, got.windows)
        << "shards=" << shards;
    EXPECT_EQ(got.profiles[1].windowsActive, 2u * kTicks / 3)
        << "shards=" << shards;
    for (unsigned s = 2; s < shards; ++s) {
      EXPECT_EQ(got.profiles[s].windowsActive, kTicks / 3)
          << "shards=" << shards << " shard " << s;
    }
  }
}

TEST(ShardedEngineConfig, ZeroShardsReadsTheEnvironment) {
  // shards = 0 picks up VIBE_SIM_SHARDS, clamped to the domain count, and
  // runs the same schedule as any explicit shard count.
  const AlternatingRun base = runAlternating(1, 30);
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "3");
    const AlternatingRun got = runAlternating(0, 30);
    EXPECT_EQ(got.shards, 3u);
    EXPECT_EQ(got.digest, base.digest);
    EXPECT_EQ(got.windows, base.windows);
    EXPECT_EQ(got.endTime, base.endTime);
  }
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "64");
    EXPECT_EQ(ShardedEngine({.domains = 8, .lookahead = 10}).shards(), 8u);
  }
}

TEST(ShardedEngineDispatch, ShardErrorIsReportedForItsShardOnAnyThread) {
  // A lone active shard other than 0 is run by the thread that dispatched
  // the window, not by its own thread; its failure is still its own, and
  // the engine runs again afterwards.
  for (std::uint32_t bad = 1; bad < 4; ++bad) {
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = 4});
    eng.domainEngine(bad).postAt(5, [bad] {
      throw SimError("boom in domain " + std::to_string(bad));
    });
    bool later = false;
    eng.domainEngine(0).postAt(1000, [&later] { later = true; });
    try {
      eng.run();
      FAIL() << "expected SimError from domain " << bad;
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), "boom in domain " + std::to_string(bad));
    }
    eng.run();
    EXPECT_TRUE(later);
    EXPECT_EQ(eng.pendingEvents(), 0u);
  }

  // Two failures in one window: the lower shard's wins even when a
  // higher shard's thread ran it. kFanOutEvents no-op events in domain 0
  // at t=0 and t=10 make the first two windows fat, so the second and
  // third fan out. Shard 3 holds the second window open until shard 0 is
  // done, so shard 3's thread most likely completes it and then runs
  // shard 1 of the third window itself while shard 2's own thread runs
  // shard 2.
  ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = 4});
  for (SimTime t : {0, 10}) {
    for (std::uint64_t i = 0; i < ShardedEngine::kFanOutEvents; ++i) {
      eng.domainEngine(0).postAt(t, [] {});
    }
  }
  std::atomic<bool> zeroDone{false};
  eng.domainEngine(0).postAt(10, [&zeroDone] { zeroDone.store(true); });
  eng.domainEngine(3).postAt(10, [&zeroDone] {
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!zeroDone.load() && std::chrono::steady_clock::now() < giveUp) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  eng.domainEngine(1).postAt(20, [] { throw SimError("boom in domain 1"); });
  eng.domainEngine(2).postAt(20, [] { throw SimError("boom in domain 2"); });
  try {
    eng.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), "boom in domain 1");
  }
  EXPECT_EQ(eng.fannedOutWindows(), 2u);
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

/// Threads of this process, from /proc/self/status; 0 when unreadable.
unsigned processThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// The thread count once it has fallen to `atMost`, or after a second:
/// a joined thread can stay listed for a moment while the kernel reaps
/// it, but a worker still running or parked never leaves.
unsigned settledThreads(unsigned atMost) {
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  unsigned n = processThreads();
  while (n > atMost && std::chrono::steady_clock::now() < giveUp) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = processThreads();
  }
  return n;
}

TEST(ShardedEngineDispatch, BackToBackRunUntilLeavesNoWorkerBehind) {
  // The fewest threads seen over 20 ms: an earlier test's workers may
  // still be listed at first.
  unsigned before = processThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/status has no thread count";
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    before = std::min(before, processThreads());
  }
  const std::uint32_t kTicks = 30;
  const std::uint32_t kDomains = 8;
  const std::uint64_t kBallast = ShardedEngine::kFanOutEvents;
  const AlternatingRun whole = runAlternating(1, kTicks, true, kBallast);
  ShardedEngine eng({.domains = kDomains,
                     .lookahead = AlternatingLoad::kLa,
                     .shards = 4});
  AlternatingLoad load{&eng, kDomains, kTicks,
                       std::vector<std::uint64_t>(kDomains, 0), kBallast};
  eng.domainEngine(0).postAt(0, [&load] { load.tick(0); });
  // Horizons that cut windows short, land between them and pass idle
  // stretches: every call that fans a window out starts and retires its
  // own threads, and the ballast makes every window with two active
  // shards fan out.
  bool drained = false;
  for (SimTime until = 37; !drained; until += 37) {
    drained = eng.runUntil(until);
    EXPECT_LE(settledThreads(before), before)
        << "after runUntil(" << until << ")";
  }
  EXPECT_EQ(load.digest, whole.digest);
  EXPECT_EQ(eng.executedEvents(), whole.events);
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_GT(eng.fannedOutWindows(), 0u);
}

/// Windows of one timestamp each: at step k (time k * kLa) domains k % 4
/// and (k + 1) % 4 each run one event that hands step k + 1 to the next
/// domain, plus burst(k) more events. Every window therefore has two
/// active domains, on two shards at any shard count above 1.
struct StepLoad {
  static constexpr Duration kLa = 100;
  static constexpr std::uint32_t kDomains = 4;
  ShardedEngine* eng = nullptr;
  std::uint32_t steps = 0;
  std::function<std::uint64_t(std::uint32_t)> burst;
  std::array<std::uint64_t, kDomains> digest{};
  std::array<std::vector<SimTime>, kDomains> times;  // of every event
  unsigned lastThreads = 0;  // read by the final step's first event

  Engine& at(std::uint32_t d) { return eng->domainEngine(d); }
  void record(std::uint32_t d, std::uint64_t tag) {
    times[d].push_back(at(d).now());
    digest[d] = Tracer::combineDigest(
        digest[d], mix64(tag ^ static_cast<std::uint64_t>(at(d).now()) << 24));
  }
  void start() {
    for (std::uint32_t d : {0u, 1u}) {
      at(d).postAt(0, [this, d] { step(d, 0); });
    }
  }
  void step(std::uint32_t d, std::uint32_t k) {
    record(d, k);
    for (std::uint64_t i = 0; i < burst(k); ++i) {
      at(d).post(0, [this, d, k, i] { record(d, 1000 * (k + 1) + i); });
    }
    if (k + 1 == steps) {
      if (d == k % kDomains) lastThreads = processThreads();
      return;
    }
    const std::uint32_t to = (d + 1) % kDomains;
    eng->sendAt(d, to, at(d).now() + kLa, [this, to, k] { step(to, k + 1); });
  }
};

struct StepRun {
  std::array<std::uint64_t, StepLoad::kDomains> digest{};
  std::array<std::vector<SimTime>, StepLoad::kDomains> times;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t fannedOut = 0;
  std::uint64_t inlineWindows = 0;
  std::vector<sim::ShardProfile> profiles;
  unsigned lastThreads = 0;
};

/// Runs `steps` steps on `shards` shards, stopping at each of `horizons`
/// (runUntil) before running to the drain.
StepRun runSteps(unsigned shards, std::uint32_t steps,
                 std::function<std::uint64_t(std::uint32_t)> burst,
                 const std::vector<SimTime>& horizons = {}) {
  ShardedEngine eng({.domains = StepLoad::kDomains,
                     .lookahead = StepLoad::kLa,
                     .shards = shards});
  eng.setProfiling(true);
  StepLoad load;
  load.eng = &eng;
  load.steps = steps;
  load.burst = std::move(burst);
  load.start();
  for (SimTime h : horizons) EXPECT_FALSE(eng.runUntil(h)) << "until " << h;
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return {load.digest,           load.times,
          eng.executedEvents(),  eng.windowsExecuted(),
          eng.fannedOutWindows(), eng.inlineWindows(),
          eng.shardProfiles(),   load.lastThreads};
}

TEST(ShardedEngineDispatch, ThinWindowsStartNoThread) {
  // Two events in two shards per window: too thin to pay for a hand-off,
  // so at 4 shards the thread that calls run() runs every window itself
  // and starts no other thread. The fewest threads seen over 20 ms: an
  // earlier test's workers may still be listed at first.
  unsigned before = processThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/status has no thread count";
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    before = std::min(before, processThreads());
  }
  const std::uint32_t kSteps = 40;
  auto none = [](std::uint32_t) -> std::uint64_t { return 0; };
  const StepRun four = runSteps(4, kSteps, none);
  EXPECT_EQ(four.lastThreads, before);
  EXPECT_EQ(four.fannedOut, 0u);
  EXPECT_EQ(four.inlineWindows, four.windows);

  const StepRun one = runSteps(1, kSteps, none);
  EXPECT_EQ(four.digest, one.digest);
  EXPECT_EQ(four.events, one.events);
  EXPECT_EQ(four.events, 2u * kSteps);
  EXPECT_EQ(four.windows, one.windows);
  EXPECT_EQ(four.windows, kSteps);
  // A window holds one timestamp, so shard s (= domain s) is active in as
  // many windows as domain s has distinct event times at one shard.
  ASSERT_EQ(four.profiles.size(), 4u);
  for (std::uint32_t d = 0; d < StepLoad::kDomains; ++d) {
    std::vector<SimTime> t = one.times[d];
    t.erase(std::unique(t.begin(), t.end()), t.end());
    EXPECT_EQ(four.profiles[d].windowsActive, t.size()) << "shard " << d;
    EXPECT_EQ(four.profiles[d].barrierWaitNs, 0u) << "shard " << d;
  }
}

TEST(ShardedEngineDispatch, ThinFatThinMatchesOneShard) {
  // Steps 0-9 and 20-29 are thin; steps 10-19 add kFanOutEvents events
  // per active domain. A window fans out when the one before it was fat,
  // so windows 11-20 do, and the runUntil horizons (one inside each
  // phase) carry that across calls.
  const std::uint32_t kSteps = 30;
  auto burst = [](std::uint32_t k) -> std::uint64_t {
    return k >= 10 && k < 20 ? ShardedEngine::kFanOutEvents : 0;
  };
  const std::vector<SimTime> horizons = {5 * StepLoad::kLa + 50,
                                         15 * StepLoad::kLa + 50,
                                         25 * StepLoad::kLa + 50};
  const StepRun one = runSteps(1, kSteps, burst, horizons);
  EXPECT_EQ(one.windows, kSteps);
  EXPECT_EQ(one.fannedOut, 0u);
  for (unsigned shards : {2u, 4u}) {
    const StepRun got = runSteps(shards, kSteps, burst, horizons);
    EXPECT_EQ(got.digest, one.digest) << "shards=" << shards;
    EXPECT_EQ(got.times, one.times) << "shards=" << shards;
    EXPECT_EQ(got.events, one.events) << "shards=" << shards;
    EXPECT_EQ(got.windows, one.windows) << "shards=" << shards;
    EXPECT_EQ(got.fannedOut, 10u) << "shards=" << shards;
    EXPECT_EQ(got.fannedOut + got.inlineWindows, got.windows)
        << "shards=" << shards;
  }
}

TEST(ShardedEngineDispatch, InlineWindowFailureIsReportedForItsShard) {
  // A thin window with shards 0, 1 and 3 active runs inline on one
  // thread. Shard 3's failure is still its own: the window's other events
  // run, its mail is merged, and the engine runs again.
  ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = 4});
  bool ran0 = false;
  bool ran1 = false;
  bool later = false;
  SimTime arrived = -1;
  eng.domainEngine(0).postAt(5, [&ran0] { ran0 = true; });
  eng.domainEngine(1).postAt(5, [&] {
    ran1 = true;
    eng.sendAt(1, 2, 15, [&] { arrived = eng.domainEngine(2).now(); });
  });
  eng.domainEngine(3).postAt(5, [] { throw SimError("boom in domain 3"); });
  eng.domainEngine(3).postAt(30, [&later] { later = true; });
  try {
    eng.run();
    FAIL() << "expected SimError from domain 3";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), "boom in domain 3");
  }
  EXPECT_TRUE(ran0);
  EXPECT_TRUE(ran1);
  EXPECT_EQ(eng.windowsExecuted(), 1u);
  EXPECT_EQ(eng.inlineWindows(), 1u);
  EXPECT_EQ(eng.fannedOutWindows(), 0u);
  eng.run();
  EXPECT_EQ(arrived, 15);
  EXPECT_TRUE(later);
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.fannedOutWindows(), 0u);
}

// --- Face 5: the boundary hook --------------------------------------------

/// Two domains and a hook every 1000 ns. Domain 1 has events at 1000 and
/// 1050, so the window that starts at the 1000 boundary is [1000, 1100)
/// and runs both.
struct HookedPair {
  ShardedEngine eng;
  std::vector<SimTime> seen;  // domain 1's events, in execution order
  explicit HookedPair(unsigned shards)
      : eng({.domains = 2, .lookahead = 100, .shards = shards}) {
    for (SimTime t : {1000, 1050}) one().postAt(t, note());
  }
  Engine& one() { return eng.domainEngine(1); }
  sim::EventFn note() {
    return [this] { seen.push_back(one().now()); };
  }
};

TEST(ShardedEngineHook, SendInsideTheWindowAboutToRunThrows) {
  for (unsigned shards : {1u, 2u}) {
    HookedPair p(shards);
    std::string what;
    p.eng.setBoundaryHook(1000, [&](SimTime t) {
      if (t != 1000) return;
      try {
        p.eng.sendAt(0, 1, 1010, p.note());
      } catch (const SimError& e) {
        what = e.what();
      }
    });
    p.eng.run();
    EXPECT_NE(what.find("inside the open window ending at 1100"),
              std::string::npos)
        << "shards=" << shards << ": " << what;
    EXPECT_EQ(p.seen, (std::vector<SimTime>{1000, 1050}))
        << "shards=" << shards;
  }
}

TEST(ShardedEngineHook, SendAtOrPastTheWindowEndArrivesOnTime) {
  for (unsigned shards : {1u, 2u}) {
    HookedPair p(shards);
    std::vector<SimTime> boundaries;
    p.eng.setBoundaryHook(1000, [&](SimTime t) {
      boundaries.push_back(t);
      if (t != 1000) return;
      p.eng.sendAt(0, 1, 1100, p.note());
      p.eng.sendAt(0, 1, 1500, p.note());
    });
    p.eng.run();
    // The merge files the hook's mail in the runnable heaps: both arrive,
    // each in a window of its own.
    EXPECT_EQ(p.seen, (std::vector<SimTime>{1000, 1050, 1100, 1500}))
        << "shards=" << shards;
    EXPECT_EQ(boundaries, (std::vector<SimTime>{1000, 1100, 1500}))
        << "shards=" << shards;
    EXPECT_EQ(p.eng.windowsExecuted(), 3u);
    EXPECT_EQ(p.eng.crossDomainEvents(), 2u);
    EXPECT_EQ(p.eng.pendingEvents(), 0u);
  }
}

TEST(ShardedEngineHook, PostAndCancelOnADomainEngineThrow) {
  for (unsigned shards : {1u, 2u}) {
    HookedPair p(shards);
    const sim::EventId timer = p.one().postAt(1080, p.note());
    std::vector<std::string> what;
    p.eng.setBoundaryHook(1000, [&](SimTime t) {
      if (t != 1000) return;
      auto attempt = [&what](const auto& fn) {
        try {
          fn();
          what.emplace_back("accepted");
        } catch (const SimError& e) {
          what.emplace_back(e.what());
        }
      };
      attempt([&] { p.one().postAt(1020, [] {}); });
      attempt([&] { p.one().cancel(timer); });
      attempt([&] { p.eng.sendAt(1, 1, 1200, [] {}); });  // posts directly
    });
    p.eng.run();
    ASSERT_EQ(what.size(), 3u);
    for (const std::string& w : what) {
      EXPECT_NE(w.find("parked between PDES windows"), std::string::npos)
          << "shards=" << shards << ": " << w;
    }
    EXPECT_EQ(p.seen, (std::vector<SimTime>{1000, 1050, 1080}))
        << "shards=" << shards;
  }
}

TEST(ShardedEngineHook, CancelledTimerNeverStartsAWindow) {
  // Domain 1's runnable key drops from its timer at 3000 to an arrival at
  // 2000, whose handler cancels the timer. Nothing is left at 3000, so no
  // window may start there, and a hook never sees 3000 as a boundary.
  for (unsigned shards : {1u, 2u}) {
    for (bool hooked : {false, true}) {
      HookedPair p(shards);
      const sim::EventId timer = p.one().postAt(3000, p.note());
      p.eng.domainEngine(0).postAt(1500, [&p, timer] {
        p.eng.sendAt(0, 1, 2000, [&p, timer] { p.one().cancel(timer); });
      });
      std::vector<SimTime> boundaries;
      if (hooked) {
        p.eng.setBoundaryHook(1000,
                              [&](SimTime t) { boundaries.push_back(t); });
      }
      p.eng.run();
      const std::string where = "shards=" + std::to_string(shards) +
                                (hooked ? " hooked" : " unhooked");
      EXPECT_EQ(p.eng.windowsExecuted(), 3u) << where;
      if (hooked) {
        EXPECT_EQ(boundaries, (std::vector<SimTime>{1000, 1500, 2000}))
            << where;
      }
      EXPECT_EQ(p.seen, (std::vector<SimTime>{1000, 1050})) << where;
      EXPECT_EQ(p.eng.pendingEvents(), 0u) << where;
    }
  }
}

// --- Runtime profiler ------------------------------------------------------

TEST(PdesProfiler, ProfilingDoesNotPerturbTheSimulation) {
  // The profiler reads wall clocks and writes per-shard tallies; it must
  // never feed back into virtual time. Same digest with it on and off.
  for (unsigned shards : {1u, 3u}) {
    const AlternatingRun off = runAlternating(shards, 45, false);
    for (const sim::ShardProfile& p : off.profiles) {
      EXPECT_EQ(p.execNs + p.completionNs + p.barrierWaitNs, 0u);
      EXPECT_EQ(p.windowsActive, 0u);
    }
    const AlternatingRun on = runAlternating(shards, 45, true);
    EXPECT_EQ(on.digest, off.digest) << "shards=" << shards;
    EXPECT_EQ(on.events, off.events) << "shards=" << shards;
    EXPECT_EQ(on.windows, off.windows) << "shards=" << shards;
    EXPECT_EQ(on.endTime, off.endTime) << "shards=" << shards;
    ASSERT_EQ(on.profiles.size(), shards);
    EXPECT_GT(on.profiles[0].windowsActive, 0u);
  }
}

TEST(PdesProfiler, ShardProfilesReconcileWithEngineTotals) {
  const AlternatingRun res = runAlternating(3, 60);
  ASSERT_EQ(res.profiles.size(), 3u);

  std::uint64_t events = 0;
  std::uint64_t crossSent = 0;
  std::uint32_t domains = 0;
  for (const sim::ShardProfile& p : res.profiles) {
    events += p.events;
    crossSent += p.crossShardSent;
    domains += p.domains;
    // A shard is active in at most every window the engine executed.
    EXPECT_LE(p.windowsActive, res.windows) << "shard " << p.shard;
  }
  EXPECT_EQ(events, res.events);
  EXPECT_EQ(crossSent, res.crossShard);
  EXPECT_GT(res.crossShard, 0u);
  EXPECT_EQ(domains, 8u);
  // Domain 0 does most of the work: imbalance is real but bounded — the
  // max-loaded shard cannot exceed the total.
  EXPECT_GT(res.loadImbalance, 1.0);
  EXPECT_LE(res.loadImbalance, 3.0);
}

TEST(PdesProfiler, SerialPathTimesWindowsToo) {
  // One shard runs the same window loop on the calling thread alone.
  const AlternatingRun res = runAlternating(1, 30);
  ASSERT_EQ(res.profiles.size(), 1u);
  const sim::ShardProfile& p = res.profiles.front();
  EXPECT_EQ(p.events, res.events);
  EXPECT_EQ(p.domains, 8u);
  EXPECT_GT(p.windowsActive, 0u);
  EXPECT_LE(p.windowsActive, res.windows);
  EXPECT_EQ(p.barrierWaitNs, 0u) << "one shard never parks";
  EXPECT_EQ(p.crossShardSent, 0u);
  EXPECT_DOUBLE_EQ(res.loadImbalance, 1.0);
}

}  // namespace
}  // namespace vibe
