// Serving extension bench: overload robustness the paper never measured.
// §3.3.1 drives closed-loop client/server transactions — clients that wait
// for each reply can never overload the server, so VIBe's numbers say
// nothing about what a VIA server does when the offered load exceeds its
// capacity. This bench offers genuinely open-loop load (seed-deterministic
// Poisson / bursty MMPP arrivals with per-request deadlines) against an
// RpcServer running an AdmissionQueue, and measures:
//   1. Goodput vs offered load, 0.5x-4x capacity: with deadline-aware
//      shedding the goodput curve stays flat past saturation; with every
//      policy disabled it collapses (the classic congestion cliff).
//   2. Policy comparison at 2x: reject-new / drop-oldest bounded backlog,
//      token bucket, CoDel, deadline shed — goodput vs tail latency.
//   3. The same overload on all three paper NIC models.
//   4. A bursty-load SLO timeline (SloMonitor windows, breach/recover
//      crossings, optional VIBE_FLIGHT_OUT post-mortem dump).
//   5. Session churn: link flaps plus one long "client departed" partition
//      that trips the session circuit breaker; Session::reopen revives it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "bench_registry.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "serve/admission.hpp"
#include "serve/loadgen.hpp"
#include "simcore/trace.hpp"
#include "upper/rpc/rpc.hpp"

namespace {

using namespace vibe;
using bench::clusterFor;
using suite::Cluster;
using suite::NodeEnv;

// One handler, kServiceTime of busy CPU per request => nominal capacity.
// (Receive-interrupt CPU per arrival is on top of this, so the achievable
// rate sits a little under nominal — and erodes further with overload,
// the receive-livelock tax the tables make visible.)
constexpr sim::Duration kServiceTime = sim::usec(30);
constexpr double kCapacityRps = 1e9 / static_cast<double>(kServiceTime);
constexpr sim::SimTime kStart = sim::msec(40);  // after staggered accepts
constexpr sim::Duration kHorizon = sim::msec(50);
constexpr sim::Duration kDeadline = sim::msec(8);
// The on-wire deadline stamp is tightened by the expected service +
// reply-flight cost, so the server sheds requests it could only finish
// after the client's deadline anyway.
constexpr sim::Duration kServeMargin = sim::usec(200);
constexpr std::size_t kRequestBytes = 16;
constexpr std::size_t kReplyBytes = 64;

struct RunConfig {
  nic::NicProfile profile = nic::clanProfile();
  double loadMult = 1.0;          // offered load as a multiple of capacity
  serve::PolicyConfig policy{};   // default: everything disabled
  bool bursty = false;            // MMPP on/off instead of plain Poisson
  std::uint32_t clients = 16;
  std::uint32_t fatTreeK = 16;    // 0 = single switch
  sim::Duration horizon = kHorizon;
  std::uint64_t seed = 42;
  const fault::FaultPlan* churn = nullptr;
  bool tightBreaker = false;      // churn runs: trip Down within the run
  /// All clients share one arrival schedule (phase-synchronized bursts —
  /// correlated demand). Off: independent per-client draws, whose MMPP
  /// phases average out across clients.
  bool syncArrivals = false;
  /// >= 1 hosts the whole run on one domain per switch; 0 = one domain
  /// on one shard.
  std::uint32_t simShards = 0;
};

struct RunResult {
  double offered = 0;
  double good = 0;        // ok reply received within the deadline
  double late = 0;        // reply received, but past the deadline
  double lost = 0;        // never sent (session down) or never answered
  double goodputRps = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  double served = 0;      // admission-queue accounting, server side
  double rejected = 0;    // backlog + rate rejections at the door
  double evicted = 0;     // DropOldest victims
  double shed = 0;        // deadline + CoDel sheds at dequeue
  double reconnects = 0;  // client-side session re-establishments
  double reopens = 0;     // client-side circuit-breaker revivals tried
};

/// Churn runs tune the transport for fast failover, the way a serving
/// deployment would: the stock ~119 ms RTO budget (rtoBase 1 ms times the
/// doubling ramp, recovery bench table 1) dwarfs the 50 ms churn window,
/// so no flap or departure would ever surface as a session break. With
/// rtoBase 0.5 ms, budget 6 and cap 2, ConnectionLost fires after ~5.5 ms
/// of silence.
nic::NicProfile fastFailoverProfile() {
  nic::NicProfile p = nic::clanProfile();
  p.rtoBase = sim::usec(500);
  p.rtoRetryBudget = 6;
  p.rtoBackoffCap = 2;
  return p;
}

upper::rpc::RpcConfig rpcBaseFor(const RunConfig& rc) {
  upper::rpc::RpcConfig cfg;
  cfg.recovery = true;
  cfg.maxMessageBytes = 1024;
  cfg.reconnect.seed = rc.seed;
  if (rc.tightBreaker) {
    // Small retry budget (~7 ms): a reconnect loop runs inline and blocks
    // its node, so a long outage must trip the breaker quickly — both so
    // the "client departed" partition reaches Down inside the run (the
    // reopen path), and so the server's own broken sessions do not stall
    // serving long enough to starve other clients' redials into halting.
    cfg.reconnect.attemptsPerRound = 2;
    cfg.reconnect.maxRounds = 1;
    cfg.reconnect.connectTimeout = sim::msec(2);
    cfg.reconnect.helloTimeout = sim::msec(3);
    cfg.reconnect.backoffCap = sim::msec(2);
  }
  return cfg;
}

/// One complete serving run: an RpcServer with an AdmissionQueue on node 0,
/// `clients` open-loop senders on nodes 1..N. All observability attachments
/// are optional; latencies land in `lat` when given (so an SloMonitor can
/// watch them), a private histogram otherwise.
RunResult runServing(const RunConfig& rc, const harness::PointEnv* penv,
                     sim::Tracer* tracer = nullptr,
                     obs::TimeSeriesSampler* sampler = nullptr,
                     obs::Histogram* lat = nullptr) {
  const std::uint32_t nodes = rc.clients + 1;
  suite::ClusterConfig cc = penv != nullptr
                                ? clusterFor(rc.profile, nodes, *penv)
                                : clusterFor(rc.profile, nodes);
  cc.fatTreeK = rc.fatTreeK;
  cc.simShards = rc.simShards;
  cc.tracer = tracer;
  cc.sampler = sampler;
  Cluster cluster(cc);
  std::optional<fault::FaultInjector> injector;
  if (rc.churn != nullptr) {
    injector.emplace(*rc.churn);
    injector->arm(cluster);
  }

  obs::Histogram localLat;
  obs::Histogram& hist = lat != nullptr ? *lat : localLat;
  const upper::rpc::RpcConfig rpcBase = rpcBaseFor(rc);

  serve::AdmissionStats qstats;
  std::uint64_t offered = 0, good = 0, late = 0, lost = 0;
  std::uint64_t reconnects = 0, reopens = 0;

  std::vector<std::function<void(NodeEnv&)>> programs;
  programs.push_back([&](NodeEnv& env) {
    upper::rpc::RpcServer server(env, rpcBase);
    server.registerMethod(1, [&env](std::span<const std::byte>) {
      env.self.advance(kServiceTime, sim::CpuUse::Busy);
      return std::vector<std::byte>(kReplyBytes, std::byte{0x5A});
    });
    std::vector<fabric::NodeId> clientNodes(rc.clients);
    for (std::uint32_t i = 0; i < rc.clients; ++i) clientNodes[i] = i + 1;
    server.acceptClients(clientNodes);
    serve::AdmissionQueue queue(rc.policy);
    if (tracer != nullptr) queue.setTracer(tracer, /*component=*/0);
    upper::rpc::ServeOptions so;
    // Must outlast the accept-to-first-arrival gap (arrivals only start at
    // kStart) and any mid-run outage, or the server gives up early.
    so.idleTimeout = sim::msec(60);
    so.reopenInterval = rc.churn != nullptr ? sim::msec(3) : sim::Duration{0};
    server.serveOpenLoop(queue, so);
    qstats = queue.stats();
  });

  for (std::uint32_t c = 0; c < rc.clients; ++c) {
    programs.push_back([&, c](NodeEnv& env) {
      // Stagger the dials at roughly the server's serial accept rate, so
      // no client burns its (possibly tightened) retry budget waiting in
      // the accept queue behind fifteen earlier dialers.
      env.self.advance(sim::msec(1) * c, sim::CpuUse::Idle);
      upper::rpc::RpcConfig cfg = rpcBase;
      cfg.clientId = c;
      upper::rpc::RpcClient client(env, /*serverNode=*/0, cfg);

      serve::ArrivalConfig acfg;
      acfg.ratePerSec = rc.loadMult * kCapacityRps / rc.clients;
      acfg.start = kStart;
      acfg.horizon = rc.horizon;
      acfg.deadline = kDeadline;
      if (rc.bursty) {
        acfg.meanOn = sim::msec(4);
        acfg.meanOff = sim::msec(4);
      }
      const std::vector<sim::SimTime> arrivals =
          serve::generateArrivals(acfg, rc.seed, rc.syncArrivals ? 0 : c);

      struct Pend {
        sim::SimTime gen;
        sim::SimTime dl;
      };
      std::map<std::uint32_t, Pend> pending;
      std::uint64_t myGood = 0, myLate = 0, myLost = 0;
      const std::vector<std::byte> body(kRequestBytes, std::byte{0x42});
      upper::rpc::AsyncReply rep;
      sim::SimTime lastReopen = 0;

      auto account = [&](const upper::rpc::AsyncReply& r) {
        auto it = pending.find(r.token);
        if (it == pending.end()) return;
        hist.add(static_cast<std::int64_t>(env.now() - it->second.gen));
        if (r.status == upper::rpc::kStatusOk && env.now() <= it->second.dl) {
          ++myGood;
        } else {
          ++myLate;
        }
        pending.erase(it);
      };

      for (const sim::SimTime at : arrivals) {
        // Open loop: drain replies until the next arrival time, then fire
        // regardless of how the server is doing. A tripped session gets a
        // periodic reopen attempt; arrivals fired while it is down are lost.
        while (env.now() < at) {
          if (client.down()) {
            if (env.now() - lastReopen >= sim::msec(3)) {
              lastReopen = env.now();
              (void)client.reopen();
              continue;  // a failed reopen blocks past `at`: recheck time
            }
            env.self.advance(
                std::min<sim::Duration>(sim::msec(1), at - env.now()),
                sim::CpuUse::Idle);
            continue;
          }
          if (client.waitReply(rep, at - env.now())) account(rep);
        }
        const sim::SimTime now = env.now();
        const serve::Stamp st{now, now + kDeadline - kServeMargin};
        const std::uint32_t tok =
            client.down() ? 0u : client.callAsync(1, serve::stampArgs(st, body));
        if (tok == 0) {
          ++myLost;
        } else {
          pending.emplace(tok, Pend{now, now + kDeadline});
        }
      }
      // Grace drain: anything unanswered once every deadline has passed
      // was rejected, shed, or abandoned server-side — no reply is coming.
      // A session that tripped Down keeps getting reopen attempts here,
      // so a departed node that returns late still rejoins the service.
      const sim::SimTime drainEnd = env.now() + kDeadline + sim::msec(4);
      while (env.now() < drainEnd && (!pending.empty() || client.down())) {
        if (client.down()) {
          if (env.now() - lastReopen >= sim::msec(3)) {
            lastReopen = env.now();
            (void)client.reopen();
            continue;  // a failed reopen blocks past drainEnd: recheck time
          }
          env.self.advance(
              std::min<sim::Duration>(sim::msec(1), drainEnd - env.now()),
              sim::CpuUse::Idle);
          continue;
        }
        if (client.waitReply(rep, std::min<sim::Duration>(
                                      sim::msec(1), drainEnd - env.now()))) {
          account(rep);
        }
      }
      myLost += pending.size();
      if (!client.down()) {
        try {
          client.shutdown();
        } catch (const std::exception&) {
          // Session broke during the final flush; the server's idle
          // timeout reaps the connection.
        }
      }
      offered += arrivals.size();
      good += myGood;
      late += myLate;
      lost += myLost;
      if (const session::SessionStats* ss = client.sessionStats()) {
        reconnects += ss->reconnects;
        reopens += ss->reopens;
      }
    });
  }
  cluster.run(std::move(programs));

  RunResult r;
  const double horizonSec = static_cast<double>(rc.horizon) / 1e9;
  r.offered = static_cast<double>(offered);
  r.good = static_cast<double>(good);
  r.late = static_cast<double>(late);
  r.lost = static_cast<double>(lost);
  r.goodputRps = static_cast<double>(good) / horizonSec;
  r.p50Ms = hist.quantile(0.5) / 1e6;
  r.p99Ms = hist.quantile(0.99) / 1e6;
  r.served = static_cast<double>(qstats.served);
  r.rejected =
      static_cast<double>(qstats.rejectedBacklog + qstats.rejectedRate);
  r.evicted = static_cast<double>(qstats.evicted);
  r.shed = static_cast<double>(qstats.shedDeadline + qstats.shedCodel);
  r.reconnects = static_cast<double>(reconnects);
  r.reopens = static_cast<double>(reopens);
  return r;
}

int run(int, char**) {
  bench::printHeader(
      "Overload-robust serving: open-loop load, admission control, shedding",
      "beyond the paper — §3.3.1 measures closed-loop transactions, which "
      "cannot overload the server; this bench offers open-loop load past "
      "capacity and measures goodput under shedding policies");

  std::printf(
      "server: 1 handler x %.0f us service => nominal capacity %.0f req/s\n"
      "clients: 16 open-loop senders on a k=16 fat-tree, %.0f ms deadlines\n\n",
      static_cast<double>(kServiceTime) / 1e3, kCapacityRps,
      static_cast<double>(kDeadline) / 1e6);

  std::vector<std::pair<std::string, double>> servingMetrics;

  serve::PolicyConfig nonePolicy;  // everything disabled: the baseline
  serve::PolicyConfig shedPolicy;
  shedPolicy.deadlineShed = true;

  // --- 1. Graceful degradation: goodput vs offered load ------------------
  const std::vector<double> loads = {0.5, 1.0, 2.0, 4.0};
  const auto degradeRuns = bench::sweepGrid(
      loads, std::vector<serve::PolicyConfig>{nonePolicy, shedPolicy},
      [](double load, const serve::PolicyConfig& policy,
         harness::PointEnv& env) {
        RunConfig rc;
        rc.loadMult = load;
        rc.policy = policy;
        return runServing(rc, &env);
      });

  suite::ResultTable degrade(
      "Goodput vs offered load (cLAN): no policy vs deadline-aware shed",
      {"offered_x", "offered_rps", "none_good_rps", "none_p99_ms",
       "shed_good_rps", "shed_p99_ms"});
  double peakNone = 0, peakShed = 0, lastNone = 0, lastShed = 0;
  auto runs = degradeRuns.begin();
  for (const double load : loads) {
    const RunResult& rn = *runs++;
    const RunResult& rs = *runs++;
    peakNone = std::max(peakNone, rn.goodputRps);
    peakShed = std::max(peakShed, rs.goodputRps);
    lastNone = rn.goodputRps;
    lastShed = rs.goodputRps;
    degrade.addRow({load, load * kCapacityRps, rn.goodputRps, rn.p99Ms,
                    rs.goodputRps, rs.p99Ms});
    const std::string tag = std::to_string(load);
    servingMetrics.emplace_back("none_goodput_" + tag + "x_rps",
                                rn.goodputRps);
    servingMetrics.emplace_back("shed_goodput_" + tag + "x_rps",
                                rs.goodputRps);
  }
  bench::emit(degrade);
  const double shedFrac = peakShed > 0 ? lastShed / peakShed : 0;
  const double noneFrac = peakNone > 0 ? lastNone / peakNone : 0;
  std::printf(
      "graceful degradation @ 4x offered: shed goodput %.1f%% of peak "
      "(>= 80%% required): %s; unpoliced collapses to %.1f%% of its peak\n\n",
      shedFrac * 100.0, shedFrac >= 0.8 ? "PASS" : "FAIL", noneFrac * 100.0);
  servingMetrics.emplace_back("shed_goodput_4x_frac", shedFrac);
  servingMetrics.emplace_back("none_goodput_4x_frac", noneFrac);
  servingMetrics.emplace_back("peak_goodput_rps", peakShed);

  // --- 2. Admission policies at 2x overload ------------------------------
  struct NamedPolicy {
    const char* name;
    serve::PolicyConfig cfg;
  };
  std::vector<NamedPolicy> policies;
  policies.push_back({"none", nonePolicy});
  // Backlog bound sized under the deadline: 192 x 30 us = 5.8 ms of queue,
  // so an admitted request can still finish in time.
  {
    serve::PolicyConfig p;
    p.backlogLimit = 192;
    p.admit = serve::AdmitPolicy::RejectNew;
    policies.push_back({"reject", p});
  }
  {
    serve::PolicyConfig p;
    p.backlogLimit = 192;
    p.admit = serve::AdmitPolicy::DropOldest;
    policies.push_back({"oldest", p});
  }
  policies.push_back({"deadline", shedPolicy});
  {
    serve::PolicyConfig p;
    p.bucket.ratePerSec = kCapacityRps;
    p.bucket.burst = 64;
    policies.push_back({"bucket", p});
  }
  {
    serve::PolicyConfig p;
    p.codel.target = sim::msec(1);
    p.codel.interval = sim::msec(10);
    policies.push_back({"codel", p});
  }
  const auto policyRuns = harness::runSweep(
      policies.size(),
      [&](harness::PointEnv& env) {
        RunConfig rc;
        rc.loadMult = 2.0;
        rc.policy = policies[env.index].cfg;
        return runServing(rc, &env);
      },
      bench::sweepOptions());
  suite::ResultTable ptable(
      "Admission policies at 2x overload (cLAN)",
      {"policy", "good_rps", "p50_ms", "p99_ms", "served", "rejected",
       "evicted", "shed"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const RunResult& r = policyRuns[i];
    ptable.addRow({static_cast<double>(i), r.goodputRps, r.p50Ms, r.p99Ms,
                   r.served, r.rejected, r.evicted, r.shed});
    servingMetrics.emplace_back(
        std::string(policies[i].name) + "_2x_goodput_rps", r.goodputRps);
  }
  bench::emit(ptable);
  std::printf(
      "(policy: 0=none 1=reject[backlog 192] 2=oldest[backlog 192] "
      "3=deadline 4=bucket[capacity, burst 64] 5=codel[1ms/10ms])\n\n");

  // --- 3. The same 2x overload on every paper NIC model ------------------
  const auto profiles = bench::paperProfiles();
  const auto profileRuns = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        RunConfig rc;
        rc.profile = profiles[env.index].profile;
        rc.loadMult = 2.0;
        rc.policy = shedPolicy;
        return runServing(rc, &env);
      },
      bench::sweepOptions());
  suite::ResultTable proftable(
      "2x overload with deadline shed, by NIC model",
      {"impl", "good_rps", "p99_ms", "served", "shed"});
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const RunResult& r = profileRuns[i];
    proftable.addRow(
        {static_cast<double>(i), r.goodputRps, r.p99Ms, r.served, r.shed});
    servingMetrics.emplace_back(profiles[i].shortName + "_2x_goodput_rps",
                                r.goodputRps);
  }
  bench::emit(proftable);
  std::printf("(impl: 0 = M-VIA, 1 = BVIA, 2 = cLAN; goodput below cLAN "
              "reflects each model's lower per-request capacity)\n\n");

  // --- 4. Bursty-load SLO timeline ---------------------------------------
  // Phase-synchronized MMPP at 0.8x mean (1.6x during on-phases): the
  // queue builds during bursts and drains between them, so the windowed
  // p99 crosses the SLO threshold and comes back — the breach/recover
  // cycle the flight recorder is for.
  {
    obs::Histogram lat;
    obs::TimeSeriesSampler sampler;
    sampler.setPeriod(sim::msec(5));
    obs::SloMonitor slo("serve_latency", lat);
    slo.setThresholdNs(static_cast<std::uint64_t>(sim::msec(2)));
    sim::Tracer tracer(4096);
    tracer.enable(sim::TraceCategory::User);
    tracer.enable(sim::TraceCategory::Session);
    slo.setTracer(&tracer, /*component=*/0);
    slo.bindTo(sampler);
    auto flight = obs::FlightRecorder::fromEnv();
    if (flight) {
      flight->setSampler(&sampler);
      flight->setSlo(&slo);
      flight->setTracer(&tracer);
    }
    RunConfig rc;
    rc.loadMult = 0.8;
    rc.bursty = true;
    rc.syncArrivals = true;
    rc.policy = shedPolicy;
    const RunResult r =
        runServing(rc, nullptr, &tracer, &sampler, &lat);
    suite::ResultTable timeline(
        "SLO timeline under bursty load (sync MMPP 0.8x mean, deadline shed)",
        {"t_ms", "reqs", "p50_ms", "p99_ms", "p9999_ms", "burn"});
    for (const obs::SloMonitor::Window& w : slo.windows()) {
      if (w.t <= kStart) continue;  // pre-traffic accept phase: all zeros
      timeline.addRow({static_cast<double>(w.t) / 1e6,
                       static_cast<double>(w.count), w.p50 / 1e6, w.p99 / 1e6,
                       w.p9999 / 1e6, w.burnRate});
    }
    bench::emit(timeline, 3);
    std::printf(
        "slo: threshold=2 ms, crossings=%llu, breached at end=%s; "
        "good=%.0f late=%.0f lost=%.0f shed=%.0f\n",
        static_cast<unsigned long long>(slo.crossingCount()),
        slo.breached() ? "yes" : "no", r.good, r.late, r.lost, r.shed);
    servingMetrics.emplace_back(
        "bursty_slo_crossings", static_cast<double>(slo.crossingCount()));
    servingMetrics.emplace_back("bursty_goodput_rps", r.goodputRps);
    if (flight && slo.crossingCount() > 0 &&
        flight->dump("serving SLO breach: windowed p99 over threshold")) {
      std::printf("flight recorder dump written to %s\n",
                  flight->path().c_str());
    }
    std::printf("\n");
  }

  // --- 5. Session churn: flaps plus one departed client ------------------
  // Short flaps stay inside the reconnect budget (session recovery hides
  // them); the one long partition trips the tightened circuit breaker, and
  // the client+server reopen path revives the session when the node
  // returns. The Session-category trace digest doubles as the determinism
  // witness for this scenario.
  {
    fault::ChurnParams cp;
    cp.firstNode = 1;
    cp.nodes = 16;
    cp.start = kStart;
    cp.horizon = kHorizon;
    cp.flapsPerNode = 0.25;
    // Long enough to exhaust the NIC's RTO budget (a break the session
    // layer must reconnect from), short enough to stay inside the
    // tightened retry budget.
    cp.meanFlapLen = sim::msec(12);
    fault::FaultPlan plan = fault::FaultPlan::generateChurn(7, cp);
    // One deliberate departure, pinned early so detection (+ the ~20 ms
    // breaker budget) trips Down with run time left for the revival.
    fault::FaultAction depart;
    depart.kind = fault::FaultKind::Partition;
    depart.node = 16;
    depart.side = fault::LinkSide::Both;
    depart.start = kStart + sim::msec(5);
    depart.duration = sim::msec(35);
    depart.rate = 1.0;
    plan.actions.push_back(depart);
    sim::Tracer tracer(16384);
    tracer.enable(sim::TraceCategory::Session);
    tracer.enable(sim::TraceCategory::User);
    RunConfig rc;
    rc.profile = fastFailoverProfile();
    rc.loadMult = 2.0;
    rc.policy = shedPolicy;
    rc.churn = &plan;
    rc.tightBreaker = true;
    // Same config minus the fault plan: the baseline row isolates what
    // churn costs (every break blocks the single-threaded server in an
    // inline reconnect loop — fail-fast VIA recovery is not free).
    RunConfig base = rc;
    base.churn = nullptr;
    const RunResult b = runServing(base, nullptr, nullptr);
    const RunResult r = runServing(rc, nullptr, &tracer);
    suite::ResultTable churn(
        "2x overload + session churn (flaps on all clients, 1 depart)",
        {"churn", "offered", "good", "late", "lost", "reconnects", "reopens",
         "served", "shed"});
    churn.addRow({0, b.offered, b.good, b.late, b.lost, b.reconnects,
                  b.reopens, b.served, b.shed});
    churn.addRow({1, r.offered, r.good, r.late, r.lost, r.reconnects,
                  r.reopens, r.served, r.shed});
    bench::emit(churn, 0);
    std::printf(
        "(churn=1 adds ~4 link flaps + one 35 ms departure; goodput lost to "
        "churn is serving time the server spends blocked in inline session "
        "recovery)\n");
    if (const char* p = std::getenv("VIBE_DEBUG_TRACE")) {
      if (std::FILE* f = std::fopen(p, "w")) {
        const std::string d = tracer.dump();
        std::fwrite(d.data(), 1, d.size(), f);
        std::fclose(f);
      }
    }
    std::printf("churn trace digest: %016llx (%llu session records)\n\n",
                static_cast<unsigned long long>(tracer.digest()),
                static_cast<unsigned long long>(tracer.totalRecorded()));
    servingMetrics.emplace_back("churn_good", r.good);
    servingMetrics.emplace_back("churn_lost", r.lost);
    servingMetrics.emplace_back("churn_reconnects", r.reconnects);
    servingMetrics.emplace_back("churn_reopens", r.reopens);
  }

  // --- Chaos sweep (CI soak): VIBE_CHAOS_SEEDS=<n> ------------------------
  // Smaller churn runs across n seeds; per-seed Session trace digests fold
  // (in index order) into one digest, so two soak invocations can be
  // compared byte-for-byte. Skipped when the variable is unset, keeping
  // the default output — and the golden capture — unchanged.
  if (const char* cs = std::getenv("VIBE_CHAOS_SEEDS")) {
    const int seeds = std::atoi(cs);
    if (seeds > 0) {
      struct ChaosPoint {
        std::uint64_t digest = 0;
        double good = 0;
        double lost = 0;
        double reconnects = 0;
      };
      const auto points = harness::runSweep(
          static_cast<std::size_t>(seeds),
          [&](harness::PointEnv& env) {
            const std::uint64_t seed = 1000 + env.index;
            fault::ChurnParams cp;
            cp.firstNode = 1;
            cp.nodes = 8;
            cp.start = kStart;
            cp.horizon = sim::msec(30);
            cp.flapsPerNode = 1.0;
            cp.meanFlapLen = sim::msec(10);
            cp.departs = 1;
            cp.departLen = sim::msec(40);
            const fault::FaultPlan plan =
                fault::FaultPlan::generateChurn(seed, cp);
            sim::Tracer t(256);
            t.enable(sim::TraceCategory::Session);
            t.enable(sim::TraceCategory::User);
            RunConfig rc;
            rc.profile = fastFailoverProfile();
            rc.clients = 8;
            rc.fatTreeK = 0;
            rc.loadMult = 1.0;
            rc.horizon = sim::msec(30);
            rc.policy = shedPolicy;
            rc.churn = &plan;
            rc.tightBreaker = true;
            rc.seed = seed;
            const RunResult r = runServing(rc, &env, &t);
            return ChaosPoint{t.digest(), r.good, r.lost, r.reconnects};
          },
          bench::sweepOptions());
      std::uint64_t digest = sim::Tracer::kDigestSeed;
      double good = 0, lost = 0, reconnects = 0;
      for (const ChaosPoint& p : points) {
        digest = sim::Tracer::combineDigest(digest, p.digest);
        good += p.good;
        lost += p.lost;
        reconnects += p.reconnects;
      }
      std::printf(
          "chaos churn: seeds=%d good=%.0f lost=%.0f reconnects=%.0f "
          "digest=%016llx\n\n",
          seeds, good, lost, reconnects,
          static_cast<unsigned long long>(digest));
    }
  }

  // --- 6. The serving macro-benchmark hosted on the sharded PDES engine --
  // The full stack — open-loop arrivals, admission queue, recovery RPC —
  // runs with one PDES domain per switch. Per-domain schedules are
  // shard-count-invariant, so the table is byte-identical at any
  // VIBE_SIM_SHARDS >= 1 and the golden matrix's shards axis re-runs it
  // on real worker threads against the same bytes.
  {
    const std::vector<double> pdesLoads = {1.0, 2.0};
    const auto pdesRuns = harness::runSweep(
        pdesLoads.size(),
        [&](harness::PointEnv& env) {
          RunConfig rc;
          rc.loadMult = pdesLoads[env.index];
          rc.policy = shedPolicy;
          rc.simShards = bench::simShards();
          return runServing(rc, &env);
        },
        bench::sweepOptions());
    suite::ResultTable pdes(
        "Goodput under overload hosted on the sharded PDES engine "
        "(cLAN k=16, deadline shed, any shard count)",
        {"offered_x", "good_rps", "p99_ms", "shed", "lost"});
    for (std::size_t i = 0; i < pdesLoads.size(); ++i) {
      const RunResult& r = pdesRuns[i];
      pdes.addRow({pdesLoads[i], r.goodputRps, r.p99Ms, r.shed, r.lost});
    }
    bench::emit(pdes);
  }

  if (bench::jsonRequested()) {
    bench::writeBenchJson("ext_serving", {},
                          {{"serving", std::move(servingMetrics)}});
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN_SHARDED(ext_serving, run)
