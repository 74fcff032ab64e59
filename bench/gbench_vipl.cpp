// Wall-clock microbenchmarks of the VIPL/NIC stack (google-benchmark):
// how many simulated ping-pongs and registrations per second the harness
// executes. These are simulator-performance numbers, not VIA-performance
// numbers — the virtual-time results live in the bench_* binaries.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "nic/profiles.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_export.hpp"
#include "simcore/trace.hpp"
#include "vibe/clientserver.hpp"
#include "vibe/datatransfer.hpp"
#include "upper/dsm/dsm.hpp"
#include "upper/msg/communicator.hpp"
#include "vibe/nondata.hpp"
#include "vibe/report.hpp"

namespace {

using namespace vibe;

suite::ClusterConfig clanCluster() {
  // clusterFor wires the --stats registry in when stats are requested.
  return bench::clusterFor(nic::clanProfile());
}

void BM_SimulatedPingPong(benchmark::State& state) {
  const int iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = iters;
    cfg.warmup = 4;
    const auto r = suite::runPingPong(clanCluster(), cfg);
    benchmark::DoNotOptimize(r.latencyUsec);
  }
  state.SetItemsProcessed(state.iterations() * iters);
  state.SetLabel("simulated round trips");
}
BENCHMARK(BM_SimulatedPingPong)->Arg(50)->Unit(benchmark::kMillisecond);

/// The price of each tracing level on the same 50 round trips: 0 runs
/// detached, 1 attaches a tracer with every category disabled, 2 attaches
/// one with enableAll(). Trace text is built only for enabled categories,
/// so levels 0 and 1 should read the same.
void BM_SimulatedPingPongTraced(benchmark::State& state) {
  const auto level = state.range(0);
  constexpr int kIters = 50;
  for (auto _ : state) {
    sim::Tracer tracer;
    if (level == 2) tracer.enableAll();
    suite::ClusterConfig cc = clanCluster();
    if (level > 0) cc.tracer = &tracer;
    suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = kIters;
    cfg.warmup = 4;
    const auto r = suite::runPingPong(cc, cfg);
    benchmark::DoNotOptimize(r.latencyUsec);
    benchmark::DoNotOptimize(tracer.digest());
  }
  state.SetItemsProcessed(state.iterations() * kIters);
  state.SetLabel(level == 0   ? "detached"
                 : level == 1 ? "attached, categories disabled"
                              : "attached, enableAll");
}
BENCHMARK(BM_SimulatedPingPongTraced)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedBandwidthBurst(benchmark::State& state) {
  for (auto _ : state) {
    suite::TransferConfig cfg;
    cfg.msgBytes = 8192;
    cfg.burst = 100;
    const auto r = suite::runBandwidth(clanCluster(), cfg);
    benchmark::DoNotOptimize(r.bandwidthMBps);
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetLabel("simulated messages");
}
BENCHMARK(BM_SimulatedBandwidthBurst)->Unit(benchmark::kMillisecond);

void BM_MemRegistrationSweep(benchmark::State& state) {
  for (auto _ : state) {
    const auto pts = suite::runMemCostSweep(clanCluster(), {4096, 65536}, 4);
    benchmark::DoNotOptimize(pts.size());
  }
  state.SetLabel("register/deregister pairs");
}
BENCHMARK(BM_MemRegistrationSweep)->Unit(benchmark::kMillisecond);

void BM_SimulatedTransactions(benchmark::State& state) {
  for (auto _ : state) {
    suite::ClientServerConfig cfg;
    cfg.transactions = 50;
    cfg.warmup = 5;
    const auto r = suite::runClientServer(clanCluster(), cfg);
    benchmark::DoNotOptimize(r.transactionsPerSec);
  }
  state.SetItemsProcessed(state.iterations() * 50);
  state.SetLabel("simulated transactions");
}
BENCHMARK(BM_SimulatedTransactions)->Unit(benchmark::kMillisecond);

void BM_MsgLayerExchange(benchmark::State& state) {
  // Wall cost of a 4-rank allreduce + barrier through the message layer.
  for (auto _ : state) {
    suite::ClusterConfig cc;
    cc.profile = nic::clanProfile();
    cc.nodes = 4;
    suite::Cluster cluster(cc);
    std::vector<std::function<void(suite::NodeEnv&)>> programs;
    for (std::uint32_t r = 0; r < 4; ++r) {
      programs.push_back([r](suite::NodeEnv& env) {
        auto comm = upper::msg::Communicator::create(env, r, 4, {});
        double v = r + 1.0;
        for (int i = 0; i < 10; ++i) v = comm->allreduceSum(v) / 4.0;
        comm->barrier();
        benchmark::DoNotOptimize(v);
      });
    }
    cluster.run(std::move(programs));
  }
  state.SetItemsProcessed(state.iterations() * 10);
  state.SetLabel("simulated 4-rank allreduces");
}
BENCHMARK(BM_MsgLayerExchange)->Unit(benchmark::kMillisecond);

void BM_DsmSharedCounter(benchmark::State& state) {
  for (auto _ : state) {
    suite::ClusterConfig cc;
    cc.profile = nic::clanProfile();
    cc.nodes = 2;
    suite::Cluster cluster(cc);
    std::vector<std::function<void(suite::NodeEnv&)>> programs;
    for (std::uint32_t r = 0; r < 2; ++r) {
      programs.push_back([r](suite::NodeEnv& env) {
        auto comm = upper::msg::Communicator::create(env, r, 2, {});
        auto dsm = upper::dsm::DsmRegion::create(*comm, 4096, {});
        for (int round = 0; round < 8; ++round) {
          if (static_cast<int>(r) == round % 2) {
            dsm->writeDouble(0, round);
          }
          dsm->barrier();
        }
      });
    }
    cluster.run(std::move(programs));
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.SetLabel("simulated DSM rounds");
}
BENCHMARK(BM_DsmSharedCounter)->Unit(benchmark::kMillisecond);

/// Wall-clock rate of simulated cLAN round trips through the full
/// VIPL/NIC/fabric stack (the VIBE_JSON trajectory metric).
double measureRoundTripsPerSec() {
  constexpr int kIters = 200;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = kIters;
    cfg.warmup = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = suite::runPingPong(clanCluster(), cfg);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    benchmark::DoNotOptimize(r.latencyUsec);
    best = std::max(best, kIters / secs);
  }
  return best;
}

/// Observability pass: one instrumented ping-pong run with a span profiler
/// (and, with VIBE_TRACE_OUT, a tracer streaming into the Perfetto
/// exporter) attached. Prints the stage-attribution table and returns the
/// per-stage means for the schema-2 JSON group.
bench::MetricGroup runAttributedPingPong() {
  auto exporter = obs::TraceJsonExporter::fromEnv();
  obs::SpanProfiler spans;
  sim::Tracer tracer;
  obs::TimeSeriesSampler sampler;
  suite::ClusterConfig cc = clanCluster();
  cc.spans = &spans;
  if (exporter) {
    spans.setKeepEvents(true);
    tracer.enableAll();
    tracer.setSink(exporter->makeSink());
    cc.tracer = &tracer;
    // Counter tracks ride along with the span stream: NIC/fabric queue
    // depths sampled every 50 us of virtual time render as ph:"C" tracks
    // above the spans in the Perfetto UI.
    sampler.setPeriod(sim::usec(50));
    cc.sampler = &sampler;
  }
  suite::TransferConfig cfg;
  cfg.msgBytes = 64;
  cfg.iterations = 200;
  cfg.warmup = 4;
  const auto pp = suite::runPingPong(cc, cfg);
  std::printf("%s", suite::renderStageAttribution(spans).c_str());
  std::printf("measured one-way ping-pong latency: %.3f us\n\n",
              pp.latencyUsec);
  if (exporter) {
    exporter->exportSpans(spans);
    sampler.exportCounterTracks(*exporter);
    const std::size_t n = exporter->eventCount();
    if (exporter->finish()) {
      std::printf("wrote %s (%zu trace events, %zu counter windows)\n",
                  exporter->path().c_str(), n, sampler.windowCount());
    }
  }
  bench::MetricGroup group{"stage_usec", {}};
  for (std::size_t s = 0; s < static_cast<std::size_t>(obs::Stage::kCount);
       ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::Histogram& h = spans.stage(stage);
    if (h.count() == 0) continue;
    group.metrics.emplace_back(std::string(obs::toString(stage)) + "_mean",
                               h.mean() / 1000.0);
  }
  group.metrics.emplace_back("stage_mean_sum", spans.stageMeanSumUsec());
  group.metrics.emplace_back("pingpong_one_way", pp.latencyUsec);
  return group;
}

}  // namespace

int main(int argc, char** argv) {
  vibe::bench::parseStatsFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::vector<vibe::bench::MetricGroup> groups;
  if (vibe::bench::statsAttached() ||
      vibe::obs::TraceJsonExporter::envPath() != nullptr) {
    groups.push_back(runAttributedPingPong());
  }
  if (vibe::bench::jsonRequested()) {
    vibe::suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = 200;
    cfg.warmup = 4;
    const auto pp = vibe::suite::runPingPong(clanCluster(), cfg);
    vibe::bench::writeBenchJson(
        "vipl",
        {{"sim_roundtrips_per_sec", measureRoundTripsPerSec()},
         {"pingpong_sim_usec", pp.latencyUsec}},
        groups);
  }
  return 0;
}
