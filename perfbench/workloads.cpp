#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "mem/host_memory.hpp"
#include "nic/profiles.hpp"
#include "obs/metrics.hpp"
#include "simcore/prng.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace perfbench {

namespace {

using vibe::fabric::NodeId;
using vibe::mem::kPageSize;
using vibe::mem::MemHandle;
using vibe::mem::PtagId;
using vibe::mem::VirtAddr;
using vibe::suite::NodeEnv;
using vibe::vipl::Provider;
using vibe::vipl::Vi;
using vibe::vipl::VipDescriptor;
using vibe::vipl::VipResult;
using Program = std::function<void(NodeEnv&)>;

constexpr std::uint64_t kDiscriminator = 0x5046'4231;  // "PFB1"
constexpr vibe::sim::Duration kConnTimeout = vibe::sim::kSecond;

void check(VipResult r, const char* what) {
  if (r != VipResult::VIP_SUCCESS) {
    throw std::runtime_error(std::string(what) + ": " +
                             vibe::vipl::toString(r));
  }
}

/// Payload bytes determined by (seed, stream, index) alone.
void fillPattern(std::span<std::byte> out, std::uint64_t seed,
                 std::uint64_t stream, std::uint64_t index) {
  std::uint64_t state = seed ^ (stream << 40) ^ (index * 0x2545F4914F6CDD1Dull);
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t word = vibe::sim::splitmix64(state);
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, out.size() - i));
  }
}

struct CpuSample {
  double user = 0;
  double sys = 0;
  std::int64_t switches = 0;
};

CpuSample cpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

/// Wall, CPU and virtual clocks at the two ends of the timed phase. The
/// op-issuing side calls begin() once; each of `finishers` programs calls
/// finish() after its last op, and the last one closes the phase. Under
/// the sharded engine they run on different threads; the fields are read
/// only after Cluster::run has joined them.
class Phase {
 public:
  explicit Phase(int finishers) : pending_(finishers) {}

  void begin(vibe::sim::SimTime vnow) {
    start_ = nowNs();
    cpu0_ = cpuNow();
    vStart_ = vnow;
  }
  void finish(vibe::sim::SimTime vnow) {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      end_ = nowNs();
      cpu1_ = cpuNow();
      vEnd_ = vnow;
    }
  }
  bool begun() const { return start_ > 0; }
  bool complete() const { return begun() && end_ >= start_; }
  vibe::sim::Duration virtualSpan() const { return vEnd_ - vStart_; }

  void fill(EpisodeResult& r, std::int64_t buildStart) const {
    if (begun()) r.setupSec = 1e-9 * static_cast<double>(start_ - buildStart);
    if (!complete()) return;
    r.timedSec = 1e-9 * static_cast<double>(end_ - start_);
    r.userSec = cpu1_.user - cpu0_.user;
    r.sysSec = cpu1_.sys - cpu0_.sys;
    r.ctxSwitches = cpu1_.switches - cpu0_.switches;
  }

 private:
  std::atomic<int> pending_;
  std::int64_t start_ = 0;
  std::int64_t end_ = 0;
  CpuSample cpu0_;
  CpuSample cpu1_;
  vibe::sim::SimTime vStart_ = 0;
  vibe::sim::SimTime vEnd_ = 0;
};

/// State shared by the programs of one episode. `mutex` guards `result`
/// for programs that report while others may still run (sharded engine).
struct Episode {
  Episode(const EpisodeSpec& s, int finishers) : spec(s), phase(finishers) {
    result.ops = s.ops;
  }
  void report(std::uint64_t failed, const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex);
    result.failed += failed;
    if (!error.empty() && result.error.empty()) result.error = error;
  }

  const EpisodeSpec& spec;
  Phase phase;
  std::mutex mutex;
  EpisodeResult result;
};

bool endsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Counters countersOf(vibe::suite::Cluster& cluster,
                    const vibe::obs::MetricsRegistry& metrics) {
  Counters k;
  if (cluster.config().simShards > 0) {
    vibe::sim::ShardedEngine& se = cluster.shardedEngine();
    k.events = se.executedEvents();
    k.windows = se.windowsExecuted();
    k.crossShard = se.crossShardEvents();
  } else {
    k.events = cluster.nodeEngine(0).executedEvents();
  }
  for (const auto& [name, counter] : metrics.counters()) {
    if (endsWith(name, "/nic.frags_tx")) k.frags += counter.value();
    if (endsWith(name, "/nic.acks_tx")) k.acks += counter.value();
    if (endsWith(name, "/nic.retransmits")) k.retransmits += counter.value();
    if (name == "fabric/packets_forwarded") k.forwards += counter.value();
  }
  return k;
}

/// Builds the cluster, runs one program per node and collects the
/// episode's counters. A program that throws fails the whole episode.
EpisodeResult drive(Episode& ep, vibe::suite::ClusterConfig cfg,
                    std::vector<Program> programs) {
  vibe::obs::MetricsRegistry metrics;
  cfg.profile = vibe::nic::clanProfile();
  cfg.seed = ep.spec.seed;
  cfg.metrics = &metrics;
  const std::int64_t buildStart = nowNs();
  try {
    std::unique_ptr<vibe::suite::Cluster> cluster;
    {
      SpanScope span(SpanKind::ClusterBuild, 0);
      cluster = std::make_unique<vibe::suite::Cluster>(cfg);
    }
    const bool sharded = cfg.simShards > 0;
    if (sharded && ep.spec.traced) cluster->shardedEngine().setProfiling(true);
    cluster->run(std::move(programs));

    EpisodeResult& r = ep.result;
    r.counters = countersOf(*cluster, metrics);
    std::uint64_t pages = 0;
    for (std::uint32_t n = 0; n < cluster->nodeCount(); ++n) {
      pages += cluster->node(n).memory().residentPages();
    }
    r.residentMb = static_cast<double>(pages * kPageSize) / 1e6;
    if (sharded) {
      vibe::sim::ShardedEngine& se = cluster->shardedEngine();
      r.loadImbalance = se.loadImbalance();
      if (ep.spec.traced) {
        double wait = 0;
        double busy = 0;
        for (const vibe::sim::ShardProfile& p : se.shardProfiles()) {
          wait += static_cast<double>(p.barrierWaitNs);
          busy += static_cast<double>(p.execNs + p.barrierWaitNs);
        }
        r.barrierWaitFrac = busy > 0 ? wait / busy : 0.0;
      }
    }
  } catch (const std::exception& e) {
    ep.report(ep.spec.ops, e.what());
  }
  ep.phase.fill(ep.result, buildStart);
  // With no ops the last client may finish before the server opens the
  // phase; only the set-up time is wanted then.
  if (ep.spec.ops > 0 && !ep.phase.complete()) {
    ep.report(ep.spec.ops, "timed phase did not complete");
  }
  ep.result.failed = std::min(ep.result.failed, ep.result.ops);
  return std::move(ep.result);
}

/// Allocates and registers `bytes` of page-aligned memory under `ptag`.
std::pair<VirtAddr, MemHandle> registered(Provider& nic, PtagId ptag,
                                          std::uint64_t bytes) {
  const VirtAddr va = nic.memory().alloc(bytes, kPageSize);
  MemHandle handle = 0;
  SpanScope span(SpanKind::Register, 0);
  check(vibe::vipl::VipRegisterMem(nic, va, bytes, {ptag, false, false}, handle),
        "VipRegisterMem");
  return {va, handle};
}

Vi* createVi(Provider& nic, PtagId ptag) {
  vibe::vipl::VipViAttributes attrs;
  attrs.ptag = ptag;
  attrs.reliabilityLevel = vibe::nic::Reliability::ReliableDelivery;
  Vi* vi = nullptr;
  check(vibe::vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi),
        "VipCreateVi");
  return vi;
}

void connectTo(Provider& nic, Vi* vi, NodeId server) {
  SpanScope span(SpanKind::Connect, 0);
  check(vibe::vipl::VipConnectRequest(nic, vi, {server, kDiscriminator},
                                      kConnTimeout),
        "VipConnectRequest");
}

void acceptOn(Provider& nic, Vi* vi, NodeId self) {
  vibe::vipl::PendingConn conn;
  check(vibe::vipl::VipConnectWait(nic, {self, kDiscriminator}, kConnTimeout,
                                   conn),
        "VipConnectWait");
  check(vibe::vipl::VipConnectAccept(nic, conn, vi), "VipConnectAccept");
}

// --- pingpong_64b: the paper's base latency test (Fig. 3), polling -------

constexpr std::uint32_t kPingBytes = 64;

EpisodeResult runPingPong(const EpisodeSpec& spec) {
  Episode ep(spec, 1);
  const std::uint64_t n = spec.ops;

  Program client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    const PtagId ptag = vibe::vipl::VipCreatePtag(nic);
    const auto [buf, handle] = registered(nic, ptag, 2 * kPageSize);
    const VirtAddr pongVa = buf + kPageSize;
    Vi* vi = createVi(nic, ptag);
    connectTo(nic, vi, 1);

    std::array<std::byte, kPingBytes> ping{};
    std::array<std::byte, kPingBytes> pong{};
    std::uint64_t failed = 0;
    if (spec.traced) ep.result.roundTripUs.reserve(n);
    ep.phase.begin(env.now());
    for (std::uint64_t op = 1; op <= n; ++op) {
      fillPattern(ping, spec.seed, 0, op);
      const std::int64_t t0 = spec.traced ? nowNs() : 0;
      nic.memory().write(buf, ping);
      VipDescriptor recv = VipDescriptor::recv(pongVa, handle, kPingBytes);
      VipDescriptor send = VipDescriptor::send(buf, handle, kPingBytes);
      {
        SpanScope span(SpanKind::Post, op);
        check(vibe::vipl::VipPostRecv(nic, vi, &recv), "VipPostRecv");
        check(vibe::vipl::VipPostSend(nic, vi, &send), "VipPostSend");
      }
      VipDescriptor* done = nullptr;
      {
        SpanScope span(SpanKind::Reap, op);
        check(nic.pollRecv(vi, done), "pollRecv");
        check(nic.pollSend(vi, done), "pollSend");
      }
      if (spec.traced) {
        ep.result.roundTripUs.push_back(1e-3 * static_cast<double>(nowNs() - t0));
      }
      nic.memory().read(pongVa, pong);
      if (recv.cs.length != kPingBytes || pong != ping) ++failed;
    }
    ep.phase.finish(env.now());
    ep.report(failed, failed ? "pong payload differs from ping" : "");
  };

  Program server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    const PtagId ptag = vibe::vipl::VipCreatePtag(nic);
    const auto [buf, handle] = registered(nic, ptag, 2 * kPageSize);
    Vi* vi = createVi(nic, ptag);
    // Two receive buffers alternate so the next ping always has one posted
    // while the previous one is echoed back from the other.
    std::array<VipDescriptor, 2> recvs = {
        VipDescriptor::recv(buf, handle, kPingBytes),
        VipDescriptor::recv(buf + kPageSize, handle, kPingBytes)};
    check(vibe::vipl::VipPostRecv(nic, vi, &recvs[0]), "VipPostRecv");
    acceptOn(nic, vi, env.nodeId);
    for (std::uint64_t op = 1; op <= n; ++op) {
      const VirtAddr cur = buf + ((op - 1) % 2) * kPageSize;
      VipDescriptor& next = recvs[op % 2];
      VipDescriptor* done = nullptr;
      {
        SpanScope span(SpanKind::Reap, op);
        check(nic.pollRecv(vi, done), "pollRecv");
      }
      next = VipDescriptor::recv(buf + (op % 2) * kPageSize, handle, kPingBytes);
      VipDescriptor echo = VipDescriptor::send(cur, handle, done->cs.length);
      {
        SpanScope span(SpanKind::Post, op);
        check(vibe::vipl::VipPostRecv(nic, vi, &next), "VipPostRecv");
        check(vibe::vipl::VipPostSend(nic, vi, &echo), "VipPostSend");
      }
      {
        SpanScope span(SpanKind::Reap, op);
        check(nic.pollSend(vi, done), "pollSend");
      }
    }
  };

  vibe::suite::ClusterConfig cfg;
  cfg.nodes = 2;
  EpisodeResult r = drive(ep, cfg, {client, server});
  r.virtualNs = ep.phase.virtualSpan();
  return r;
}

// --- stream_64k_fattree: largest cLAN transfer, across a k=4 fat-tree ----

constexpr std::uint32_t kStreamBytes = 64 * 1024;
constexpr std::uint64_t kStreamDepth = 8;  // sends outstanding
constexpr std::uint64_t kStreamRing = 8;   // receives kept posted
constexpr NodeId kStreamSrc = 0;           // pod 0
constexpr NodeId kStreamDst = 12;          // pod 3: edge, aggr, core, aggr, edge

EpisodeResult runStream(const EpisodeSpec& spec) {
  Episode ep(spec, 1);
  const std::uint64_t n = spec.ops;
  // Every message carries the same seed-made payload, sent from one
  // buffer, with its sequence number as immediate data. A small working
  // set keeps the benchmark's own memory traffic, which the host's other
  // tenants contend for, from dominating what it measures.
  std::vector<std::byte> payload(kStreamBytes);
  fillPattern(payload, spec.seed, 1, 0);

  Program sender = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    const PtagId ptag = vibe::vipl::VipCreatePtag(nic);
    const auto [buf, handle] = registered(nic, ptag, kStreamBytes);
    nic.memory().write(buf, payload);
    Vi* vi = createVi(nic, ptag);
    connectTo(nic, vi, kStreamDst);

    std::array<VipDescriptor, kStreamDepth> descs{};
    std::array<std::int64_t, kStreamDepth> postedAt{};
    if (spec.traced) ep.result.roundTripUs.reserve(n);
    ep.phase.begin(env.now());
    std::uint64_t posted = 0;
    std::uint64_t reaped = 0;
    while (reaped < n) {
      while (posted < n && posted - reaped < kStreamDepth) {
        VipDescriptor& d = descs[posted % kStreamDepth];
        d = VipDescriptor::send(buf, handle, kStreamBytes);
        d.cs.control |= vibe::vipl::VIP_CONTROL_IMMEDIATE;
        d.cs.immediateData = static_cast<std::uint32_t>(posted);
        if (spec.traced) postedAt[posted % kStreamDepth] = nowNs();
        ++posted;
        SpanScope span(SpanKind::Post, posted);
        check(vibe::vipl::VipPostSend(nic, vi, &d), "VipPostSend");
      }
      VipDescriptor* done = nullptr;
      {
        SpanScope span(SpanKind::Reap, reaped + 1);
        check(nic.pollSend(vi, done), "pollSend");
      }
      const std::uint64_t slot = reaped % kStreamDepth;
      if (done != &descs[slot]) {
        throw std::runtime_error("send completions out of order");
      }
      if (spec.traced) {
        ep.result.roundTripUs.push_back(
            1e-3 * static_cast<double>(nowNs() - postedAt[slot]));
      }
      ++reaped;
    }
  };

  Program receiver = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    const PtagId ptag = vibe::vipl::VipCreatePtag(nic);
    const auto [buf, handle] = registered(nic, ptag, kStreamRing * kStreamBytes);
    Vi* vi = createVi(nic, ptag);
    std::array<VipDescriptor, kStreamRing> ring{};
    for (std::uint64_t s = 0; s < kStreamRing; ++s) {
      ring[s] = VipDescriptor::recv(buf + s * kStreamBytes, handle, kStreamBytes);
      check(vibe::vipl::VipPostRecv(nic, vi, &ring[s]), "VipPostRecv");
    }
    acceptOn(nic, vi, env.nodeId);

    std::vector<std::byte> got(kStreamBytes);
    std::uint64_t failed = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t slot = i % kStreamRing;
      VipDescriptor* done = nullptr;
      {
        SpanScope span(SpanKind::Reap, i + 1);
        check(nic.pollRecv(vi, done), "pollRecv");
      }
      if (done != &ring[slot]) {
        throw std::runtime_error("receive completions out of order");
      }
      const VirtAddr va = buf + slot * kStreamBytes;
      nic.memory().read(va, got);
      if (done->cs.length != kStreamBytes || !done->hasImmediate() ||
          done->cs.immediateData != static_cast<std::uint32_t>(i) ||
          got != payload) {
        ++failed;
      }
      ring[slot] = VipDescriptor::recv(va, handle, kStreamBytes);
      SpanScope span(SpanKind::Post, i + 1);
      check(vibe::vipl::VipPostRecv(nic, vi, &ring[slot]), "VipPostRecv");
    }
    ep.phase.finish(env.now());
    ep.report(failed, failed ? "streamed message differs from what was sent" : "");
  };

  vibe::suite::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.fatTreeK = 4;
  std::vector<Program> programs(cfg.nodes);
  programs[kStreamSrc] = sender;
  programs[kStreamDst] = receiver;
  EpisodeResult r = drive(ep, cfg, std::move(programs));
  r.virtualNs = ep.phase.virtualSpan();
  return r;
}

// --- rpc_incast_sharded: §3.3.1 client/server on the hosted PDES engine --

constexpr std::uint32_t kRpcClients = 3;
constexpr std::uint32_t kRpcBytes = 256;
constexpr std::uint32_t kEcho = 1;
constexpr NodeId kRpcServer = 0;                                 // pod 0
constexpr std::array<NodeId, kRpcClients> kRpcClientNodes = {4, 8, 12};  // pods 1-3

EpisodeResult runRpc(const EpisodeSpec& spec) {
  Episode ep(spec, kRpcClients);
  const std::uint64_t perClient = spec.ops / kRpcClients;
  std::atomic<std::int64_t> virtualRttNs{0};

  Program server = [&](NodeEnv& env) {
    vibe::upper::rpc::RpcServer rpc(env);
    rpc.registerMethod(kEcho, [](std::span<const std::byte> args) {
      return std::vector<std::byte>(args.begin(), args.end());
    });
    {
      SpanScope span(SpanKind::Accept, 0);
      rpc.acceptClients(kRpcClients);
    }
    ep.phase.begin(env.now());
    rpc.serve();
  };

  auto client = [&](std::uint64_t index) -> Program {
    return [&, index](NodeEnv& env) {
      std::unique_ptr<vibe::upper::rpc::RpcClient> rpc;
      {
        SpanScope span(SpanKind::Connect, 0);
        rpc = std::make_unique<vibe::upper::rpc::RpcClient>(env, kRpcServer);
      }
      std::vector<std::byte> args(kRpcBytes);
      std::uint64_t failed = 0;
      std::int64_t rtt = 0;
      for (std::uint64_t i = 1; i <= perClient; ++i) {
        fillPattern(args, spec.seed, 2 + index, i);
        const vibe::sim::SimTime v0 = env.now();
        std::vector<std::byte> reply;
        {
          SpanScope span(SpanKind::Call, i);
          reply = rpc->call(kEcho, args);
        }
        rtt += env.now() - v0;
        if (reply != args) ++failed;
      }
      ep.phase.finish(env.now());
      virtualRttNs += rtt;
      ep.report(failed, failed ? "rpc reply differs from request" : "");
      rpc->shutdown();
    };
  };

  vibe::suite::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.fatTreeK = 4;
  cfg.simShards = 4;
  std::vector<Program> programs(cfg.nodes);
  programs[kRpcServer] = server;
  for (std::uint32_t c = 0; c < kRpcClients; ++c) {
    programs[kRpcClientNodes[c]] = client(c);
  }
  EpisodeResult r = drive(ep, cfg, std::move(programs));
  r.virtualNs = virtualRttNs.load();
  return r;
}

// Pinned virtual-time results of a full episode at kDefaultSeed. Any change
// to the simulated timing model moves them; ROADMAP holds them fixed.
constexpr std::array<Workload, 3> kWorkloads = {{
    {WorkloadId::PingPong64B, "pingpong_64b", "64 B round trip", 0,
     Nesting::Global, 250, "one-way latency (us)", 5258000, runPingPong},
    {WorkloadId::Stream64KFatTree, "stream_64k_fattree", "64 KB message delivered",
     0, Nesting::Global, 125, "stream completion time (us)", 75254470, runStream},
    {WorkloadId::RpcIncastSharded, "rpc_incast_sharded", "256 B echo call", 4,
     Nesting::PerThread, 102, "mean call round trip (us)", 12596634, runRpc},
}};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double virtualFigure(const Workload& w, const EpisodeResult& r) {
  const double ns = static_cast<double>(r.virtualNs);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, r.ops));
  switch (w.id) {
    case WorkloadId::PingPong64B: return ns / (2.0 * ops) / 1e3;
    case WorkloadId::Stream64KFatTree: return ns / 1e3;
    case WorkloadId::RpcIncastSharded: return ns / ops / 1e3;
  }
  return 0;
}

void applyGate(const Workload& w, const EpisodeSpec& spec, EpisodeResult& r) {
  std::string why;
  if (r.counters.retransmits != 0) {
    why = std::to_string(r.counters.retransmits) + " NIC retransmits";
  } else if (spec.seed == kDefaultSeed && spec.ops == w.opsPerEpisode &&
             r.virtualNs != w.pinnedVirtualNs) {
    why = "virtual-time result " + std::to_string(r.virtualNs) +
          " ns differs from the pinned " + std::to_string(w.pinnedVirtualNs) +
          " ns";
  }
  if (why.empty()) return;
  r.failed = r.ops;
  if (r.error.empty()) r.error = why;
}

}  // namespace perfbench
