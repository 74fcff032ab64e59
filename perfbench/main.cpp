// perfbench: wall-clock benchmark of the VIBe simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--source-id TEXT]
//
// Repeats fixed-size episodes of one workload until S seconds have passed.
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run: it alternates traced and untraced
// episodes and reports per-layer metrics from spans, engine counters and
// getrusage. The last line of stdout is one JSON object; the exit code is
// non-zero when any op failed or a correctness check tripped.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string spansOut;
  std::string sourceId = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = findWorkload(val);
      if (a.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + val);
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0 && a.seconds <= 600)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
    } else if (key == "--spans-out") {
      a.spansOut = val;
    } else if (key == "--source-id") {
      a.sourceId = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload == nullptr) throw std::invalid_argument("--workload is required");
  return a;
}

std::string cpuList(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) out += '-' + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread, and so every thread it starts later.
void pinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Integer-multiply iterations per ns over 1 ms on the current CPU.
double spinRate() {
  volatile std::uint64_t x = 1;
  std::uint64_t n = 0;
  const std::int64_t t0 = nowNs();
  std::int64_t t = t0;
  while (t - t0 < 1'000'000) {
    for (int i = 0; i < 256; ++i) x = x * 6364136223846793005ull + 1;
    n += 256;
    t = nowNs();
  }
  return static_cast<double>(n) / static_cast<double>(t - t0);
}

/// Where each episode runs: on one CPU, every thread of it. The process is
/// pinned before the cluster is built, so the process threads (and the
/// sharded engine's workers) inherit the pin and every handoff is a
/// same-CPU switch. Spread over CPUs, handoffs cost about 2x more and an
/// unpinned run flips between the two. On a shared 4-vCPU KVM guest the
/// 4-shard workload spread over 4 vCPUs ran 2x slower than on one, and
/// fell into 5-10x slower runs whenever the hypervisor was slow to wake an
/// idle vCPU.
///
/// On a shared host, neighbours slow each vCPU independently, by up to 2x
/// for seconds at a time, so before each episode a 1 ms spin on each
/// candidate CPU picks the least contended one. CPU 0 takes most
/// interrupts and is a candidate only when it is the only CPU allowed.
class Placement {
 public:
  explicit Placement(const std::vector<int>& allowed) : allowed_(allowed) {
    for (int c : allowed) {
      if (c != 0 || allowed.size() == 1) candidates_.push_back(c);
    }
  }

  void beforeEpisode() {
    int best = candidates_.front();
    double bestRate = -1;
    for (int c : candidates_) {
      pinTo({c});
      const double rate = spinRate();
      if (rate > bestRate) {
        bestRate = rate;
        best = c;
      }
    }
    pinTo({best});
    ++episodesOn_[best];
  }

  std::string describe() const {
    return "allowed_cpus=" + cpuList(allowed_) +
           " one_cpu_per_episode_from=" + cpuList(candidates_);
  }

  /// " 1:40 3:12": episodes run on each CPU.
  std::string usage() const {
    std::string out;
    for (const auto& [cpu, n] : episodesOn_) {
      out += ' ';
      out += std::to_string(cpu);
      out += ':';
      out += std::to_string(n);
    }
    return out;
  }

 private:
  std::vector<int> allowed_;
  std::vector<int> candidates_;
  std::map<int, std::uint64_t> episodesOn_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void printMetric(const Metric& m) {
  std::printf("  %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string jsonLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Peak resident set of this program, from VmHWM. getrusage's ru_maxrss
/// would also count the parent's resident set at fork, before exec.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Runs one workload's episodes: places each on a CPU, applies the
/// correctness gate, and keeps the op totals.
class Runner {
 public:
  Runner(const Workload& w, const Args& args, Placement& placement)
      : w_(w), args_(args), placement_(placement) {}

  EpisodeResult episode(std::uint64_t ops, bool traced) {
    placement_.beforeEpisode();
    const EpisodeSpec spec{args_.seed, ops, traced};
    EpisodeResult r = w_.run(spec);
    applyGate(w_, spec, r);
    attempted_ += r.ops;
    failed_ += r.failed;
    if (firstError_.empty() && !r.error.empty()) firstError_ = r.error;
    return r;
  }

  /// True while the measured time lasts and nothing has failed.
  bool more(std::int64_t since) const {
    return failed_ == 0 &&
           static_cast<double>(nowNs() - since) < args_.seconds * 1e9;
  }

  std::uint64_t seed() const { return args_.seed; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& firstError() const { return firstError_; }

 private:
  const Workload& w_;
  const Args& args_;
  Placement& placement_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string firstError_;
};

/// Episodes whose timings count: all but the first (its caches and
/// allocator are cold), unless only one ran, and none that failed.
std::vector<const EpisodeResult*> timedEpisodes(const std::vector<EpisodeResult>& eps) {
  std::vector<const EpisodeResult*> out;
  for (std::size_t i = eps.size() > 1 ? 1 : 0; i < eps.size(); ++i) {
    if (eps[i].failed == 0 && eps[i].ops > 0) out.push_back(&eps[i]);
  }
  return out;
}

template <typename F>
std::vector<double> each(const std::vector<const EpisodeResult*>& eps, F f) {
  std::vector<double> out;
  for (const EpisodeResult* r : eps) out.push_back(f(*r));
  return out;
}

double perOp(const EpisodeResult& r) { return static_cast<double>(r.ops); }

void printVirtual(const Workload& w, std::uint64_t seed, const EpisodeResult& r) {
  std::printf("# virtual %s = %.6f (%lld ns); %s\n",
              std::string(w.virtualLabel).c_str(), virtualFigure(w, r),
              static_cast<long long>(r.virtualNs),
              seed == kDefaultSeed ? "pinned for this seed"
                                   : "not pinned for this seed");
}

/// A median with its sample count and, when there are enough samples for
/// them, the quartiles: "median of N episodes (q1 .., q3 ..)".
Metric medianOf(const std::string& name, const std::vector<double>& v,
                const std::string& unit, const std::string& of) {
  std::string note = "median of " + std::to_string(v.size()) + " " + of;
  const std::optional<double> q1 = percentile(v, 0.25);
  const std::optional<double> q3 = percentile(v, 0.75);
  if (q1 && q3) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " (q1 %.6g, q3 %.6g)", *q1, *q3);
    note += buf;
  }
  return {name, median(v), unit, note};
}

/// The fast tenth of per-episode values: the 90th percentile of a rate,
/// the 10th of a cost. On a shared host, neighbours slow a vCPU by up to 2x
/// for seconds at a time, and how often they do drifts over minutes; run
/// medians follow that drift, while the fast tenth is what the simulator
/// does when the host leaves it alone, and holds steadier.
/// Falls back to the median below 100 episodes, where the percentile would
/// have fewer than 10 samples beyond it.
Metric fastTenth(const std::string& name, const std::vector<double>& v,
                 const std::string& unit, bool higherIsBetter) {
  const std::optional<double> p = percentile(v, higherIsBetter ? 0.9 : 0.1);
  char note[112];
  std::snprintf(note, sizeof note, "%s of %zu episodes (median %.6g)",
                p ? (higherIsBetter ? "90th percentile" : "10th percentile")
                  : "too few episodes for the fast tenth: median",
                v.size(), median(v));
  return {name, p.value_or(median(v)), unit, note};
}

std::vector<Metric> endToEnd(const Workload& w, Runner& runner) {
  std::vector<EpisodeResult> eps;
  const std::int64_t t0 = nowNs();
  do {
    eps.push_back(runner.episode(w.opsPerEpisode, false));
  } while (runner.more(t0));
  printVirtual(w, runner.seed(), eps.front());

  const auto timed = timedEpisodes(eps);
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, runner.attempted()));
  const double failedFrac = static_cast<double>(runner.failed()) / attempted;
  return {
      fastTenth("ops_per_s", each(timed, [](const EpisodeResult& r) {
                  return perOp(r) / r.timedSec;
                }), "1/s", true),
      fastTenth("cpu_us_per_op", each(timed, [](const EpisodeResult& r) {
                  return 1e6 * (r.userSec + r.sysSec) / perOp(r);
                }), "us", false),
      medianOf("setup_s", each(timed, [](const EpisodeResult& r) {
                 return r.setupSec;
               }), "s", "fresh set-ups"),
      {"peak_rss_mb", peakRssMb(), "MB", "VmHWM"},
      {"ok_frac", 1.0 - failedFrac, "ratio",
       "1 - failed_frac; failed_frac = " + std::to_string(failedFrac)},
  };
}

std::string samples(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

Metric pct(const std::string& name, const std::vector<double>& v, double q) {
  const std::optional<double> p = percentile(v, q);
  return {name, p.value_or(0.0), "us",
          p ? samples(v.size())
            : samples(v.size()) + " too few samples for this percentile"};
}

void writeSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<std::int64_t>& self) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans.empty() ? 0 : spans.front().start;
  out << "name,thread,op,start_ns,end_ns,parent,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << spanName(s.kind) << ',' << s.thread << ',' << s.op << ','
        << s.start - base << ',' << s.end - base << ',' << s.parent << ','
        << self[i] << '\n';
  }
}

std::vector<Metric> perLayer(const Workload& w, Runner& runner,
                             const std::string& spansOut) {
  const std::uint64_t n = w.opsPerEpisode;
  setSpanRecording(true);
  const EpisodeResult base = runner.episode(0, true);
  std::vector<EpisodeResult> traced;
  std::vector<EpisodeResult> plain;
  const std::int64_t t0 = nowNs();
  do {
    setSpanRecording(true);
    traced.push_back(runner.episode(n, true));
    setSpanRecording(false);
    plain.push_back(runner.episode(n, false));
  } while (runner.more(t0));

  std::vector<Span> spans = collectSpans();
  assignParents(spans, w.nesting);
  const std::vector<std::int64_t> self = selfTimes(spans);
  if (!spansOut.empty()) writeSpans(spansOut, spans, self);

  std::map<SpanKind, std::vector<double>> setupUs;
  std::map<SpanKind, std::vector<double>> opUs;
  double reapSelfUs = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = 1e-3 * static_cast<double>(s.end - s.start);
    (s.op == 0 ? setupUs : opUs)[s.kind].push_back(us);
    if (s.op != 0 && s.kind == SpanKind::Reap) {
      reapSelfUs += 1e-3 * static_cast<double>(self[i]);
    }
  }
  std::vector<double> roundTrips;
  for (const EpisodeResult& r : traced) {
    roundTrips.insert(roundTrips.end(), r.roundTripUs.begin(), r.roundTripUs.end());
  }
  const auto tracedOk = timedEpisodes(traced);
  const auto plainOk = timedEpisodes(plain);
  const double opsTraced = static_cast<double>(n * traced.size());

  // Episodes are deterministic, so one full episode minus the zero-op
  // baseline gives exact per-op counts for the timed phase.
  const Counters& full = traced.front().counters;
  const Counters& zero = base.counters;
  const double dn = static_cast<double>(n);
  auto delta = [&](std::uint64_t Counters::*field) {
    return static_cast<double>(full.*field - zero.*field);
  };
  const double events = delta(&Counters::events);
  const double wallTraced = median(each(tracedOk, [](const EpisodeResult& r) {
    return r.timedSec / perOp(r);
  }));
  const double wallPlain = median(each(plainOk, [](const EpisodeResult& r) {
    return r.timedSec / perOp(r);
  }));
  const std::string serial = w.shards == 0 ? "serial engine: no windows" : "";
  printVirtual(w, runner.seed(), traced.front());

  return {
      medianOf("simcore.ctx_switches_per_op", each(plainOk, [](const EpisodeResult& r) {
                 return static_cast<double>(r.ctxSwitches) / perOp(r);
               }), "1/op", "untraced episodes; getrusage nvcsw+nivcsw"),
      medianOf("simcore.sys_frac", each(plainOk, [](const EpisodeResult& r) {
                 return r.sysSec / std::max(1e-9, r.userSec + r.sysSec);
               }), "ratio", "untraced episodes; sys / (user + sys)"),
      {"simcore.events_per_op", events / dn, "1/op", "engine executedEvents"},
      medianOf("simcore.ns_per_event", each(plainOk, [&](const EpisodeResult& r) {
                 return 1e9 * r.timedSec / events;
               }), "ns", "untraced episodes; timed wall / timed events"),
      {"nic.frags_per_op", delta(&Counters::frags) / dn, "1/op", "nic.frags_tx"},
      {"nic.acks_per_op", delta(&Counters::acks) / dn, "1/op", "nic.acks_tx"},
      {"nic.retransmits_per_op", delta(&Counters::retransmits) / dn, "1/op",
       "nic.retransmits; gated at 0"},
      {"fabric.forwards_per_op", delta(&Counters::forwards) / dn, "1/op",
       "fabric/packets_forwarded"},
      {"simcore.windows_per_op", delta(&Counters::windows) / dn, "1/op", serial},
      {"simcore.xshard_frac",
       events > 0 ? delta(&Counters::crossShard) / events : 0, "ratio", serial},
      {"simcore.barrier_wait_frac",
       median(each(tracedOk, [](const EpisodeResult& r) { return r.barrierWaitFrac; })),
       "ratio", serial.empty() ? "ShardedEngine profiler, median" : serial},
      {"simcore.load_imbalance",
       median(each(tracedOk, [](const EpisodeResult& r) { return r.loadImbalance; })),
       "ratio", serial.empty() ? "max/mean shard events" : "serial engine: 1"},
      medianOf("vipl.post_us", opUs[SpanKind::Post], "us", "spans"),
      medianOf("vipl.reap_us", opUs[SpanKind::Reap], "us", "spans"),
      {"vipl.reap_self_us", opsTraced > 0 ? reapSelfUs / opsTraced : 0, "us",
       "reap self time per op: engine, NIC, fabric, handoffs"},
      pct("vipl.roundtrip_us_p50", roundTrips, 0.50),
      pct("vipl.roundtrip_us_p99", roundTrips, 0.99),
      pct("rpc.call_us_p50", opUs[SpanKind::Call], 0.50),
      pct("rpc.call_us_p99", opUs[SpanKind::Call], 0.99),
      medianOf("vibe.cluster_build_us", setupUs[SpanKind::ClusterBuild], "us", "spans"),
      {"vibe.cold_setup_us", 1e6 * base.setupSec, "us", "first set-up of the process"},
      medianOf("vipl.connect_us", setupUs[SpanKind::Connect], "us", "spans"),
      medianOf("mem.register_us", setupUs[SpanKind::Register], "us", "spans"),
      medianOf("rpc.accept_us", setupUs[SpanKind::Accept], "us", "spans"),
      {"mem.resident_mb", traced.front().residentMb, "MB",
       "simulated host memory resident, all nodes"},
      {"trace.overhead_frac", wallPlain > 0 ? wallTraced / wallPlain - 1 : 0, "ratio",
       "traced vs untraced median wall per op, " + std::to_string(tracedOk.size()) +
           "+" + std::to_string(plainOk.size()) + " episodes"},
  };
}

int run(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const Workload& w = *args.workload;
  Placement placement(allowedCpus());

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              std::string(w.name).c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%ld %s shards=%u build=%s source=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), placement.describe().c_str(), w.shards,
              PERFBENCH_BUILD_TYPE, args.sourceId.c_str());
  std::printf("# op = %s; %llu ops per episode\n", std::string(w.op).c_str(),
              static_cast<unsigned long long>(w.opsPerEpisode));
  std::fflush(stdout);

  Runner runner(w, args, placement);
  const std::vector<Metric> metrics =
      args.trace ? perLayer(w, runner, args.spansOut) : endToEnd(w, runner);
  std::printf("# episodes per CPU:%s\n", placement.usage().c_str());
  for (const Metric& m : metrics) printMetric(m);
  const bool correct = runner.failed() == 0 && runner.attempted() > 0;
  if (!correct) {
    std::printf("# FAILED: %llu of %llu ops; first error: %s\n",
                static_cast<unsigned long long>(runner.failed()),
                static_cast<unsigned long long>(runner.attempted()),
                runner.firstError().c_str());
  }
  std::printf("%s\n",
              jsonLine(correct, runner.attempted(), runner.failed(), metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
