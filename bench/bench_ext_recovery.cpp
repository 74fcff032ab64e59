// Recovery extension bench: the measurements the paper could never run,
// because a year-2000 VIA fabric that lost a link simply hung. With the
// session layer on top of the same NIC models we can quantify:
//   1. MTTR — from fabric partition to re-established session, per profile
//      (detection is RTO-budget exhaustion, then backoff'd reconnects).
//   2. The rtoBackoffCap sweep: the cap bounds the largest RTO step, so it
//      trades retransmission pressure against break-detection latency.
//   3. Goodput under link flaps at the msg layer (recovery-mode
//      Communicator): exactly-once replay turns outages into stalls.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "bench_registry.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "session/session.hpp"
#include "simcore/trace.hpp"
#include "upper/msg/communicator.hpp"

namespace {

using namespace vibe;
using bench::clusterFor;
using suite::Cluster;
using suite::NodeEnv;

constexpr sim::SimTime kPartStart = sim::msec(100);
constexpr sim::Duration kPartDur = sim::msec(400);

struct Episode {
  double detectMs = 0;   // partition start -> session notices the break
  double mttrMs = 0;     // break noticed -> session re-established
  double attempts = 0;   // connect dialogs tried over the whole run
  double replayed = 0;   // messages resubmitted after the reconnect
};

session::SessionConfig sessionCfg(bool initiator) {
  session::SessionConfig c;
  c.sid = 1;
  c.remoteNode = initiator ? 1 : 0;
  c.discriminator = 0x5245'4356;  // "RECV"
  c.initiator = initiator;
  c.policy.seed = 42;
  return c;
}

fault::FaultPlan partitionPlan(int count, sim::SimTime start,
                               sim::Duration duration, sim::Duration gap) {
  fault::FaultPlan plan;
  plan.seed = 42;
  for (int i = 0; i < count; ++i) {
    fault::FaultAction part;
    part.kind = fault::FaultKind::Partition;
    part.node = 1;
    part.side = fault::LinkSide::Both;
    part.start = start + i * (duration + gap);
    part.duration = duration;
    part.rate = 1.0;
    plan.actions.push_back(part);
  }
  return plan;
}

/// One partition across a paced session stream; returns the recovery
/// timeline as seen by the initiator. With `exporter` set, the episode's
/// Session trace records and the cluster's spans (the Reconnect episode
/// and every message's stages) land in the Perfetto file (the CI soak job
/// uploads one such episode as an artifact).
Episode runEpisode(const nic::NicProfile& profile,
                   const harness::PointEnv& penv,
                   obs::TraceJsonExporter* exporter = nullptr) {
  obs::SpanProfiler spans;
  spans.setKeepEvents(true);

  sim::Tracer tracer(512);
  tracer.enable(sim::TraceCategory::Session);
  sim::SimTime downAt = 0;
  tracer.setSink([&](const sim::TraceRecord& rec) {
    if (rec.category != sim::TraceCategory::Session) return;
    if (exporter) exporter->instant(rec);
    if (rec.component == 0 && downAt == 0 &&
        rec.message.rfind("down ", 0) == 0) {
      downAt = rec.time;
    }
  });
  suite::ClusterConfig cc = clusterFor(profile, 2, penv);
  cc.tracer = &tracer;
  if (exporter) cc.spans = &spans;
  Cluster cluster(cc);

  fault::FaultInjector injector(partitionPlan(1, kPartStart, kPartDur, 0));
  injector.arm(cluster);

  constexpr int kMsgs = 160;  // 5 ms pace => traffic spans the partition
  Episode ep;
  auto sender = [&](NodeEnv& env) {
    session::Session s(env.nic, sessionCfg(/*initiator=*/true));
    if (!s.establish()) return;
    const std::vector<std::byte> payload(256, std::byte{0x42});
    for (int i = 0; i < kMsgs; ++i) {
      s.send(payload);
      s.progress();
      env.self.advance(sim::msec(5), sim::CpuUse::Idle);
    }
    s.flush(10 * sim::kSecond);
    ep.mttrMs = static_cast<double>(s.stats().lastMttr) / 1e6;
    ep.attempts = static_cast<double>(s.stats().connectAttempts);
    ep.replayed = static_cast<double>(s.stats().replayed);
  };
  auto receiver = [&](NodeEnv& env) {
    session::Session s(env.nic, sessionCfg(/*initiator=*/false));
    if (!s.establish()) return;
    std::vector<std::byte> m;
    for (int got = 0; got < kMsgs && s.recv(m, 10 * sim::kSecond); ++got) {
    }
  };
  cluster.run({sender, receiver});
  if (exporter) exporter->exportSpans(spans);
  ep.detectMs =
      downAt == 0 ? 0 : static_cast<double>(downAt - kPartStart) / 1e6;
  return ep;
}

/// Goodput of a recovery-mode Communicator stream across `flaps` link
/// flaps. Returns MB/s of application payload over the full run.
double runGoodput(int flaps, const harness::PointEnv& penv) {
  Cluster cluster(clusterFor(nic::clanProfile(), 2, penv));
  fault::FaultInjector injector(
      partitionPlan(flaps, kPartStart, sim::msec(250), sim::msec(150)));
  injector.arm(cluster);

  constexpr int kMsgs = 256;
  constexpr std::uint64_t kBytes = 16u << 10;
  double mbps = 0;
  auto rank0 = [&](NodeEnv& env) {
    upper::msg::CommConfig cc;
    cc.recovery = true;
    cc.reconnect.seed = 42;
    auto comm = upper::msg::Communicator::create(env, 0, 2, cc);
    const std::vector<std::byte> payload(kBytes, std::byte{0x7});
    for (int i = 0; i < kMsgs; ++i) {
      comm->send(1, /*tag=*/1, payload);
      env.self.advance(sim::msec(2), sim::CpuUse::Idle);
    }
    comm->barrier();
  };
  auto rank1 = [&](NodeEnv& env) {
    upper::msg::CommConfig cc;
    cc.recovery = true;
    cc.reconnect.seed = 42;
    auto comm = upper::msg::Communicator::create(env, 1, 2, cc);
    for (int i = 0; i < kMsgs; ++i) (void)comm->recv(0, /*tag=*/1);
    const double sec = static_cast<double>(env.now()) / 1e9;
    mbps = static_cast<double>(kMsgs * kBytes) / 1e6 / sec;
    comm->barrier();
  };
  cluster.run({rank0, rank1});
  return mbps;
}

int run(int, char**) {
  using namespace vibe;

  bench::printHeader(
      "Session recovery: MTTR and goodput under link flaps",
      "beyond the paper — TR §3.2.5 measures reliability levels on a "
      "healthy fabric; this bench partitions it and measures the way back");

  std::vector<std::pair<std::string, double>> recoveryMetrics;

  // With VIBE_TRACE_OUT set, the first profile's episode is exported as a
  // Perfetto-loadable trace: Session lifecycle records as instant events,
  // the cluster's spans (the Reconnect episode among them) as durations.
  auto exporter = obs::TraceJsonExporter::fromEnv();

  suite::ResultTable mttr(
      "Recovery timeline by NIC profile (400 ms partition)",
      {"impl", "detect_ms", "mttr_ms", "attempts", "replayed"});
  const auto profiles = bench::paperProfiles();
  const auto episodes = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        // Only point 0 feeds the exporter, so the trace file stays
        // identical to a serial run regardless of thread count.
        return runEpisode(profiles[env.index].profile, env,
                          env.index == 0 ? exporter.get() : nullptr);
      },
      bench::sweepOptions());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Episode& ep = episodes[i];
    mttr.addRow({static_cast<double>(i), ep.detectMs, ep.mttrMs,
                 ep.attempts, ep.replayed});
    recoveryMetrics.emplace_back(profiles[i].shortName + "_detect_ms",
                                 ep.detectMs);
    recoveryMetrics.emplace_back(profiles[i].shortName + "_mttr_ms",
                                 ep.mttrMs);
  }
  if (exporter) {
    const std::size_t n = exporter->eventCount();
    if (exporter->finish()) {
      std::printf("wrote %s (%zu trace events)\n\n", exporter->path().c_str(),
                  n);
    }
  }
  bench::emit(mttr);
  std::printf("(impl: 0 = M-VIA, 1 = BVIA, 2 = cLAN; detect = RTO budget "
              "exhaustion, mttr = detect -> session re-established)\n\n");

  // The backoff cap is the knob PR 2 buried in a comment: a smaller cap
  // keeps RTO steps short, so the retry budget burns down sooner and the
  // break surfaces earlier (at the price of more retransmissions on a
  // merely-congested fabric).
  suite::ResultTable caps(
      "Break detection vs rtoBackoffCap (cLAN, 400 ms partition)",
      {"cap", "detect_ms", "mttr_ms"});
  const std::vector<std::uint32_t> capValues = {2u, 4u, 8u, 16u};
  const auto capEpisodes = harness::runSweep(
      capValues.size(),
      [&](harness::PointEnv& env) {
        nic::NicProfile p = nic::clanProfile();
        p.rtoBackoffCap = capValues[env.index];
        return runEpisode(p, env);
      },
      bench::sweepOptions());
  for (std::size_t i = 0; i < capValues.size(); ++i) {
    const Episode& ep = capEpisodes[i];
    caps.addRow({static_cast<double>(capValues[i]), ep.detectMs, ep.mttrMs});
    recoveryMetrics.emplace_back(
        "cap" + std::to_string(capValues[i]) + "_detect_ms", ep.detectMs);
  }
  bench::emit(caps);

  suite::ResultTable goodput(
      "msg-layer goodput under link flaps (cLAN, 256 x 16 KiB)",
      {"flaps", "goodput_MBps"});
  const std::vector<int> flapCounts = {0, 1, 2};
  const auto goodputs = harness::runSweep(
      flapCounts.size(),
      [&](harness::PointEnv& env) {
        return runGoodput(flapCounts[env.index], env);
      },
      bench::sweepOptions());
  for (std::size_t i = 0; i < flapCounts.size(); ++i) {
    goodput.addRow({static_cast<double>(flapCounts[i]), goodputs[i]});
    recoveryMetrics.emplace_back(
        "goodput_flaps" + std::to_string(flapCounts[i]) + "_MBps",
        goodputs[i]);
  }
  bench::emit(goodput);

  if (bench::jsonRequested()) {
    // Schema 2 nested group only: no new flat keys, so schema-1 consumers
    // of the existing BENCH_*.json files see nothing change.
    bench::writeBenchJson("ext_recovery", {},
                          {{"recovery", std::move(recoveryMetrics)}});
  }
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(ext_recovery, run)
