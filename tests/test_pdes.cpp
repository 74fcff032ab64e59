// Determinism proof wall for the conservative PDES engine
// (src/simcore/pdes.hpp). The contract under test: every observable a
// model can extract from a ShardedEngine — execution order, digests,
// counters, window count, virtual end time — is a pure function of the
// model, byte-identical for every shard count and thread schedule.
//
// The wall has four faces:
//   - shards=1 bit-identity with the serial Engine on randomized
//     workloads (the two engines replay the same cascade event-for-event),
//   - deterministic cross-shard merge under adversarial same-timestamp
//     storms (every domain receives same-time events from every other),
//   - mailbox exactly-once delivery with exact cross-shard accounting,
//   - lookahead-window safety: conservative violations throw instead of
//     silently reordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fabric/pdes_traffic.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/prng.hpp"
#include "simcore/trace.hpp"
#include "test_env.hpp"
#include "test_seed.hpp"

namespace vibe {
namespace {

using sim::Duration;
using sim::EngineConfig;
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

// --- Face 1: shards=1 bit-identity with the serial Engine -----------------

/// A randomized event cascade replayed on both engines: every event
/// mixes (now, id) into a digest and schedules 0-2 children at random
/// future delays. Child ids are assigned in execution order, so the two
/// digests match iff the engines execute the identical sequence.
struct CascadeState {
  std::uint64_t seed = 0;
  std::uint64_t digest = Tracer::kDigestSeed;
  std::uint64_t nextId = 1;
  std::uint64_t executed = 0;
};

template <typename PostFn>
void cascadeEvent(CascadeState* st, std::uint64_t id, SimTime now,
                  const PostFn& post) {
  ++st->executed;
  st->digest = Tracer::combineDigest(
      st->digest, mix64(st->seed ^ static_cast<std::uint64_t>(now) ^ id));
  const std::uint64_t r = mix64(st->seed ^ (id * 0x9e3779b97f4a7c15ull));
  const unsigned children = id < 2000 ? static_cast<unsigned>(r % 3) : 0;
  for (unsigned c = 0; c < children; ++c) {
    const Duration delay =
        static_cast<Duration>(mix64(r ^ c) % 997);  // [0, 997) incl. 0
    post(st->nextId++, delay);
  }
}

TEST(ShardedEngineSerial, BitIdenticalWithSerialEngine) {
  const std::uint64_t base = testing::testRunSeed();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    CascadeState serial{base + 11 * trial + 1};
    sim::Engine eng;
    struct SerialPost {
      sim::Engine* eng;
      CascadeState* st;
      const SerialPost* self;
      void operator()(std::uint64_t id, Duration delay) const {
        eng->post(delay, [st = st, id, self = self] {
          cascadeEvent(st, id, self->eng->now(), *self);
        });
      }
    };
    SerialPost sp{&eng, &serial, nullptr};
    sp.self = &sp;
    sp(0, 0);
    eng.run();

    CascadeState sharded{base + 11 * trial + 1};
    ShardedEngine seng({.domains = 1, .lookahead = 0, .shards = 1});
    struct ShardedPost {
      ShardedEngine* eng;
      CascadeState* st;
      const ShardedPost* self;
      void operator()(std::uint64_t id, Duration delay) const {
        eng->post(0, delay, [st = st, id, self = self] {
          cascadeEvent(st, id, self->eng->now(0), *self);
        });
      }
    };
    ShardedPost hp{&seng, &sharded, nullptr};
    hp.self = &hp;
    hp(0, 0);
    seng.run();

    EXPECT_EQ(serial.executed, sharded.executed) << "trial " << trial;
    EXPECT_EQ(serial.digest, sharded.digest) << "trial " << trial;
    EXPECT_EQ(seng.executedEvents(), sharded.executed);
    EXPECT_EQ(seng.pendingEvents(), 0u);
    EXPECT_EQ(seng.crossDomainEvents(), 0u);
    EXPECT_EQ(seng.crossShardEvents(), 0u);
  }
}

// --- Face 2: deterministic merge under same-timestamp storms --------------

/// Every domain sends every other domain (and itself) events that all
/// land at exactly the same timestamp, for several waves. The merge at
/// the completion step must order them by (time, srcDomain, srcSeq) no
/// matter which shard parked them in which outbox.
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
  // Wave w in domain d fires at t = (w+1)*la; at wave w every domain
  // sends every domain an event for the *same* arrival time (w+2)*la.
  struct Fire {
    static void wave(Ctx* c, std::uint32_t dst, std::uint32_t src,
                     std::uint32_t w) {
      c->log->seen[dst].push_back({w, src});
      if (w + 1 >= c->waves || src != dst) return;
      // One fan-out per (domain, wave), issued by the self-event so the
      // send happens inside dst's execution context.
      for (std::uint32_t to = 0; to < c->domains; ++to) {
        const std::uint32_t from = dst;
        const std::uint32_t next = w + 1;
        c->eng->send(dst, to, 100, [c, to, from, next] {
          Fire::wave(c, to, from, next);
        });
      }
    }
  };
  for (std::uint32_t d = 0; d < domains; ++d) {
    eng.post(d, 100, [&ctx, d] { Fire::wave(&ctx, d, d, 0); });
  }
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return log;
}

TEST(ShardedEngineStorm, SameTimestampMergeIsDeterministic) {
  const std::uint32_t kDomains = 6;
  const std::uint32_t kWaves = 5;
  const StormLog baseline = runStorm(kDomains, 1, kWaves);
  // Waves arrive in wave order; within one wave (one shared timestamp)
  // sources must appear in ascending srcDomain order — the documented
  // (time, srcDomain, srcSeq) key, not arrival or shard order.
  for (std::uint32_t d = 0; d < kDomains; ++d) {
    ASSERT_EQ(baseline.seen[d].size(), 1 + (kWaves - 1) * kDomains);
    EXPECT_EQ(baseline.seen[d][0], (std::pair<std::uint32_t, std::uint32_t>{
                                       0u, d}));
    for (std::uint32_t w = 1; w < kWaves; ++w) {
      for (std::uint32_t s = 0; s < kDomains; ++s) {
        EXPECT_EQ(baseline.seen[d][1 + (w - 1) * kDomains + s],
                  (std::pair<std::uint32_t, std::uint32_t>{w, s}))
            << "dst=" << d << " wave=" << w;
      }
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
        c->eng->send(at, next, 50,
                     [c, next, round] { Hop::run(c, next, round + 1); });
      }
    };
    for (std::uint32_t d = 0; d < kDomains; ++d) {
      eng.post(d, 0, [&ctx, d] { Hop::run(&ctx, d, 0); });
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
  bool threw = false;
  eng.post(0, 0, [&] {
    try {
      eng.send(0, 1, 99, [] {});
    } catch (const SimError&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
  // At or above the lookahead is fine.
  bool delivered = false;
  eng.post(0, 0, [&] { eng.send(0, 1, 100, [&] { delivered = true; }); });
  eng.run();
  EXPECT_TRUE(delivered);
}

TEST(ShardedEngineSafety, ForeignDomainPostThrowsDuringRun) {
  ShardedEngine eng({.domains = 3, .lookahead = 10, .shards = 1});
  std::string what;
  eng.post(1, 0, [&] {
    try {
      eng.post(2, 0, [] {});  // domain 2's state from domain 1's context
    } catch (const SimError& e) {
      what = e.what();
    }
  });
  eng.run();
  EXPECT_NE(what.find("outside that domain's execution context"),
            std::string::npos)
      << what;
  // send() from the wrong source context is rejected the same way.
  what.clear();
  eng.post(1, 0, [&] {
    try {
      eng.send(2, 0, 10, [] {});
    } catch (const SimError& e) {
      what = e.what();
    }
  });
  eng.run();
  EXPECT_NE(what.find("outside that domain's execution context"),
            std::string::npos)
      << what;
}

TEST(ShardedEngineSafety, PostValidation) {
  ShardedEngine eng({.domains = 2, .lookahead = 10, .shards = 1});
  EXPECT_THROW(eng.post(0, -1, [] {}), SimError);
  EXPECT_THROW(eng.post(2, 0, [] {}), SimError);
  EXPECT_THROW(eng.post(0, 0, sim::EventFn{}), SimError);
  EXPECT_THROW(eng.send(0, 2, 10, [] {}), SimError);
  EXPECT_THROW(eng.now(2), SimError);
}

TEST(ShardedEngineSafety, EventExceptionPropagatesAndAborts) {
  for (unsigned shards : {1u, 4u}) {
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = shards});
    eng.post(2, 5, [] { throw SimError("boom in domain 2"); });
    for (std::uint32_t d = 0; d < 4; ++d) {
      eng.post(d, 1000, [] {});  // far future: may be skipped after abort
    }
    try {
      eng.run();
      FAIL() << "expected SimError (shards=" << shards << ")";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
    // The engine is not wedged: a fresh run() drains what remains.
    eng.run();
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
  for (unsigned shards : {1u, 3u}) {
    auto build = [](ShardedEngine& eng, FiredBy& firedBy) {
      struct Ctx {
        ShardedEngine* eng;
        FiredBy* firedBy;
      };
      auto* ctx = new Ctx{&eng, &firedBy};
      for (std::uint32_t d = 0; d < 3; ++d) {
        for (Duration t : {100, 250, 400, 900}) {
          eng.post(d, t, [ctx, d] {
            (*ctx->firedBy)[d].push_back(ctx->eng->now(d));
          });
        }
      }
      return ctx;
    };
    ShardedEngine eng({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy firedBy;
    auto* ctx = build(eng, firedBy);
    EXPECT_FALSE(eng.runUntil(250));
    std::vector<SimTime> fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 6u);  // t=100 and t=250 in all three domains
    for (SimTime t : fired) EXPECT_LE(t, 250);
    for (std::uint32_t d = 0; d < 3; ++d) EXPECT_GE(eng.now(d), 250);
    EXPECT_TRUE(eng.runUntil(10'000));
    fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 12u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    delete ctx;

    // An uninterrupted run executes the identical multiset of times.
    ShardedEngine whole({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy wholeFiredBy;
    auto* wctx = build(whole, wholeFiredBy);
    whole.run();
    EXPECT_EQ(fired, gather(wholeFiredBy));
    delete wctx;
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

  void record(std::uint32_t d, std::uint64_t tag) {
    digest[d] = Tracer::combineDigest(
        digest[d], mix64(tag ^ static_cast<std::uint64_t>(eng->now(d)) << 24));
  }
  void tick(std::uint32_t k) {
    record(0, k);
    if (k + 1 >= ticks) return;
    const std::uint32_t shape = (k + 1) % 3;  // next window: 1, 2 or all
    const std::uint32_t fan = shape == 0 ? 0 : shape == 1 ? 1 : domains - 1;
    for (std::uint32_t to = 1; to <= fan; ++to) {
      eng->send(0, to, kLa, [this, to, k] { work(to, k + 1); });
    }
    eng->post(0, kLa, [this, k] { tick(k + 1); });
  }
  void work(std::uint32_t d, std::uint32_t k) {
    record(d, 1000 + k);
    eng->post(d, kLa / 2, [this, d, k] { record(d, 2000 + k); });
    eng->send(d, 0, kLa, [this, d, k] { record(0, 3000 + d * 100 + k); });
  }
};

struct AlternatingRun {
  std::vector<std::uint64_t> digest;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::vector<sim::ShardProfile> profiles;
};

AlternatingRun runAlternating(unsigned shards, std::uint32_t ticks) {
  const std::uint32_t kDomains = 8;
  ShardedEngine eng({.domains = kDomains,
                     .lookahead = AlternatingLoad::kLa,
                     .shards = shards});
  eng.setProfiling(true);
  AlternatingLoad load{&eng, kDomains, ticks,
                       std::vector<std::uint64_t>(kDomains, 0)};
  eng.post(0, 0, [&load] { load.tick(0); });
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return {load.digest, eng.executedEvents(), eng.windowsExecuted(),
          eng.shardProfiles()};
}

TEST(ShardedEngineDispatch, AlternatingActiveSetsMatchOneShard) {
  const std::uint32_t kTicks = 60;
  const AlternatingRun base = runAlternating(1, kTicks);
  EXPECT_GT(base.events, 3u * kTicks);
  for (unsigned shards : {2u, 3u, 4u, 7u}) {
    const AlternatingRun got = runAlternating(shards, kTicks);
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

TEST(ShardedEngineDispatch, ShardErrorIsReportedForItsShardOnAnyThread) {
  // A lone active shard other than 0 is run by the thread that dispatched
  // the window, not by its own thread; its failure is still its own, and
  // the engine runs again afterwards.
  for (std::uint32_t bad = 1; bad < 4; ++bad) {
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = 4});
    eng.post(bad, 5, [bad] {
      throw SimError("boom in domain " + std::to_string(bad));
    });
    bool later = false;
    eng.post(0, 1000, [&later] { later = true; });
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
  // higher shard's thread ran it. Shard 3 holds the first window open
  // until shard 0 is done, so shard 3's thread most likely completes it
  // and then runs shard 1 of the next window itself while shard 2's own
  // thread runs shard 2.
  ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = 4});
  std::atomic<bool> zeroDone{false};
  eng.post(0, 0, [&zeroDone] { zeroDone.store(true); });
  eng.post(3, 0, [&zeroDone] {
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!zeroDone.load() && std::chrono::steady_clock::now() < giveUp) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  eng.post(1, 10, [] { throw SimError("boom in domain 1"); });
  eng.post(2, 10, [] { throw SimError("boom in domain 2"); });
  try {
    eng.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), "boom in domain 1");
  }
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
  const AlternatingRun whole = runAlternating(1, kTicks);
  ShardedEngine eng({.domains = kDomains,
                     .lookahead = AlternatingLoad::kLa,
                     .shards = 4});
  AlternatingLoad load{&eng, kDomains, kTicks,
                       std::vector<std::uint64_t>(kDomains, 0)};
  eng.post(0, 0, [&load] { load.tick(0); });
  // Horizons that cut windows short, land between them and pass idle
  // stretches: every call starts and retires its own threads.
  bool drained = false;
  for (SimTime until = 37; !drained; until += 37) {
    drained = eng.runUntil(until);
    EXPECT_LE(settledThreads(before), before)
        << "after runUntil(" << until << ")";
  }
  EXPECT_EQ(load.digest, whole.digest);
  EXPECT_EQ(eng.executedEvents(), whole.events);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

// --- The full-stack invariance proof on the fat-tree workload -------------

TEST(PdesTraffic, DigestInvariantAcrossShardCounts) {
  fabric::PdesTrafficConfig cfg;
  cfg.fatTreeK = 4;   // 16 hosts, 8 edge domains
  cfg.rounds = 6;
  cfg.seed = testing::testRunSeed() + 401;
  cfg.computeIters = 8;
  cfg.shards = 1;
  const fabric::PdesTrafficResult base = fabric::runPdesTraffic(cfg);
  EXPECT_EQ(base.domains, 8u);
  EXPECT_EQ(base.shardsUsed, 1u);
  EXPECT_GT(base.lookahead, 0);
  EXPECT_GT(base.events, 0u);
  EXPECT_EQ(base.crossShard, 0u);  // one shard: nothing crosses
  EXPECT_GT(base.crossDomain, 0u);
  for (unsigned shards : {2u, 3u, 5u, 8u}) {
    fabric::PdesTrafficConfig c = cfg;
    c.shards = shards;
    const fabric::PdesTrafficResult got = fabric::runPdesTraffic(c);
    EXPECT_EQ(got.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(got.events, base.events) << "shards=" << shards;
    EXPECT_EQ(got.messages, base.messages) << "shards=" << shards;
    EXPECT_EQ(got.crossDomain, base.crossDomain) << "shards=" << shards;
    EXPECT_EQ(got.windows, base.windows) << "shards=" << shards;
    EXPECT_EQ(got.endTime, base.endTime) << "shards=" << shards;
    EXPECT_DOUBLE_EQ(got.meanRttUsec, base.meanRttUsec)
        << "shards=" << shards;
    EXPECT_EQ(got.shardsUsed, std::min(shards, 8u));
  }
}

TEST(PdesTraffic, RaggedHostCountAndEnvDefaultShards) {
  // A partial fat-tree (hosts not a multiple of the pod size) must
  // partition and stay invariant too; shards=0 picks up VIBE_SIM_SHARDS.
  fabric::PdesTrafficConfig cfg;
  cfg.fatTreeK = 4;
  cfg.hosts = 11;
  cfg.rounds = 4;
  cfg.seed = testing::testRunSeed() + 402;
  cfg.computeIters = 4;
  cfg.shards = 1;
  const fabric::PdesTrafficResult base = fabric::runPdesTraffic(cfg);
  EXPECT_EQ(base.domains, 6u);  // ceil(11 / 2) edge switches
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "3");
    fabric::PdesTrafficConfig c = cfg;
    c.shards = 0;
    const fabric::PdesTrafficResult got = fabric::runPdesTraffic(c);
    EXPECT_EQ(got.shardsUsed, 3u);
    EXPECT_EQ(got.digest, base.digest);
    EXPECT_EQ(got.endTime, base.endTime);
  }
  EXPECT_THROW(fabric::runPdesTraffic({.fatTreeK = 3}), SimError);
  EXPECT_THROW(fabric::runPdesTraffic({.fatTreeK = 4, .hosts = 17}),
               SimError);
}

// --- Runtime profiler ------------------------------------------------------

TEST(PdesProfiler, ProfilingDoesNotPerturbTheSimulation) {
  // The profiler reads wall clocks and writes per-shard tallies; it must
  // never feed back into virtual time. Same digest with it on and off.
  fabric::PdesTrafficConfig cfg;
  cfg.fatTreeK = 4;
  cfg.rounds = 5;
  cfg.seed = testing::testRunSeed() + 403;
  cfg.computeIters = 6;
  for (unsigned shards : {1u, 3u}) {
    fabric::PdesTrafficConfig plain = cfg;
    plain.shards = shards;
    const fabric::PdesTrafficResult off = fabric::runPdesTraffic(plain);
    EXPECT_TRUE(off.shardProfiles.empty());

    fabric::PdesTrafficConfig prof = cfg;
    prof.shards = shards;
    prof.profileShards = true;
    const fabric::PdesTrafficResult on = fabric::runPdesTraffic(prof);
    EXPECT_EQ(on.digest, off.digest) << "shards=" << shards;
    EXPECT_EQ(on.events, off.events) << "shards=" << shards;
    EXPECT_EQ(on.windows, off.windows) << "shards=" << shards;
    EXPECT_EQ(on.endTime, off.endTime) << "shards=" << shards;
    ASSERT_EQ(on.shardProfiles.size(), on.shardsUsed);
  }
}

TEST(PdesProfiler, ShardProfilesReconcileWithEngineTotals) {
  fabric::PdesTrafficConfig cfg;
  cfg.fatTreeK = 4;
  cfg.rounds = 6;
  cfg.seed = testing::testRunSeed() + 404;
  cfg.computeIters = 8;
  cfg.shards = 3;
  cfg.profileShards = true;
  const fabric::PdesTrafficResult res = fabric::runPdesTraffic(cfg);
  ASSERT_EQ(res.shardProfiles.size(), 3u);

  std::uint64_t events = 0;
  std::uint64_t crossSent = 0;
  std::uint32_t domains = 0;
  for (const sim::ShardProfile& p : res.shardProfiles) {
    events += p.events;
    crossSent += p.crossShardSent;
    domains += p.domains;
    // A shard is active in at most every window the engine executed.
    EXPECT_LE(p.windowsActive, res.windows) << "shard " << p.shard;
  }
  EXPECT_EQ(events, res.events);
  EXPECT_EQ(crossSent, res.crossShard);
  EXPECT_EQ(domains, res.domains);
  EXPECT_GE(res.loadImbalance, 1.0);
  // 8 edge domains over 3 shards: imbalance is real but bounded — the
  // max-loaded shard cannot exceed the total.
  EXPECT_LE(res.loadImbalance, 3.0);
}

TEST(PdesProfiler, SerialPathTimesWindowsToo) {
  fabric::PdesTrafficConfig cfg;
  cfg.fatTreeK = 4;
  cfg.rounds = 3;
  cfg.seed = testing::testRunSeed() + 405;
  cfg.shards = 1;
  cfg.profileShards = true;
  const fabric::PdesTrafficResult res = fabric::runPdesTraffic(cfg);
  ASSERT_EQ(res.shardProfiles.size(), 1u);
  const sim::ShardProfile& p = res.shardProfiles.front();
  EXPECT_EQ(p.events, res.events);
  EXPECT_EQ(p.domains, res.domains);
  EXPECT_GT(p.windowsActive, 0u);
  EXPECT_LE(p.windowsActive, res.windows);
  EXPECT_EQ(p.barrierWaitNs, 0u) << "no barrier on the serial path";
  EXPECT_DOUBLE_EQ(res.loadImbalance, 1.0);
}

}  // namespace
}  // namespace vibe
