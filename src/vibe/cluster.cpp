#include "vibe/cluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace vibe::suite {

namespace {

/// The fabric a config describes: the profile's link on every host port
/// and, past one switch, on the inter-switch links too (at trunkMBps when
/// set).
fabric::TopologySpec topologySpecFor(const ClusterConfig& c) {
  fabric::TopologySpec spec;
  spec.nodes = c.nodes;
  spec.hostLink.bandwidthMBps = c.profile.linkMBps;
  spec.hostLink.propagation = c.profile.linkPropagation;
  spec.hostLink.headerBytes = c.profile.linkHeaderBytes;
  spec.hostLink.lossRate = c.lossRate;
  spec.edgeLatency = c.profile.switchLatency;
  spec.seed = c.seed;
  if (c.fatTreeK != 0 || c.nodesPerSwitch != 0) {
    spec.kind = c.fatTreeK != 0 ? fabric::TopologyKind::FatTree
                                : fabric::TopologyKind::TwoLevelTree;
    spec.nodesPerSwitch = c.nodesPerSwitch;
    spec.fatTreeK = c.fatTreeK;
    spec.fabricLink = spec.hostLink;
    if (c.trunkMBps > 0.0) spec.fabricLink.bandwidthMBps = c.trunkMBps;
    spec.coreLatency = c.profile.switchLatency;
  }
  return spec;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  ns_ = std::make_shared<vipl::NameService>();

  const fabric::TopologySpec spec = topologySpecFor(config_);
  // simShards == 0: one domain, one shard, one window to the drain.
  // Otherwise one domain per switch, windows bounded by the minimum
  // inter-switch hop (header serialization + propagation); every shard
  // count runs the same per-domain schedules, simShards only chooses how
  // many threads execute them.
  sim::EngineConfig ec;
  ec.shards = 1;
  if (config_.simShards > 0) {
    ec.domains = fabric::stackDomainCount(spec);
    ec.lookahead = fabric::hopLookahead(spec);
    ec.shards = config_.simShards;
  }
  pdes_ = std::make_unique<sim::ShardedEngine>(ec);
  topo_ = std::make_unique<fabric::Topology>(*pdes_, spec);

  providers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_.push_back(std::make_unique<vipl::Provider>(
        nodeEngine(n), *topo_, n, config_.profile, ns_,
        "node" + std::to_string(n)));
  }

  // Observability attachments; all default to null = disabled.
  if (config_.tracer != nullptr) attachTracer();
  if (config_.spans != nullptr) attachSpans();
  if (config_.sampler != nullptr) attachSampler();
}

Cluster::~Cluster() = default;

sim::Engine& Cluster::nodeEngine(std::uint32_t i) {
  return topo_->engineForDomain(topo_->hostDomain(i));
}

void Cluster::attachSampler() {
  obs::TimeSeriesSampler& sampler = *config_.sampler;
  if (sampler.period() <= 0) {
    throw sim::SimError(
        "Cluster: the config's sampler has no period (call setPeriod)");
  }
  // Every window end is clamped to the sample grid and the sampler
  // flushes from the single-threaded completion step, where probes may
  // safely read any domain's state: at a boundary T every event strictly
  // before T has executed and none at or after T has.
  pdes_->setBoundaryHook(sampler.period(), [&sampler](sim::SimTime t) {
    sampler.flushUntil(t);
  });
  // Aggregate probes: sums over nodes, so the series count stays O(1)
  // whether the cluster has 2 nodes or 1024. Probes only read, and only
  // while this Cluster lives; a sampler that carries them for another
  // Cluster already is refused.
  probeOwner_ = std::make_shared<char>();
  sampler.addProbe("nic/tx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().txBacklog();
    return static_cast<double>(n);
  }, probeOwner_);
  sampler.addProbe("nic/rx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().rxBacklog();
    return static_cast<double>(n);
  }, probeOwner_);
  sampler.addProbe("nic/cq_depth", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->cqDepthTotal();
    return static_cast<double>(n);
  }, probeOwner_);
  sampler.addProbe("fabric/host_link_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      n += topo_->hostUplink(i).queuedFrames(at);
      n += topo_->hostDownlink(i).queuedFrames(at);
    }
    return static_cast<double>(n);
  }, probeOwner_);
  sampler.addProbe("fabric/switch_queue_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (const auto& sw : topo_->switches()) {
      for (std::uint32_t i = 0; i < sw->portCount(); ++i) {
        const fabric::Switch::Port& port = sw->port(i);
        if (port.out != nullptr) n += port.out->queuedFrames(at);
      }
    }
    return static_cast<double>(n);
  }, probeOwner_);
}

void Cluster::attachSpans() {
  // One domain: every provider, link and switch emits straight into the
  // user profiler. More: per-domain shadows, so each provider and switch
  // emits into its own domain's profiler (single-writer during a
  // window); run() folds them into the user profiler in domain order,
  // which makes the merged histograms and event buffer shard-count
  // independent.
  const std::uint32_t doms = topo_->domainCount();
  std::vector<obs::SpanProfiler*> byDomain(doms, config_.spans);
  if (doms > 1) {
    shadowSpans_.reserve(doms);
    for (std::uint32_t d = 0; d < doms; ++d) {
      auto sp = std::make_unique<obs::SpanProfiler>();
      sp->setKeepEvents(true);  // mergeFrom copies events if the user keeps
      byDomain[d] = sp.get();
      shadowSpans_.push_back(std::move(sp));
    }
  }
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_[n]->setSpanProfiler(byDomain[topo_->hostDomain(n)]);
  }
  topo_->setDomainSpanProfilers(byDomain);
}

void Cluster::mergeShadowSpans() {
  for (auto& sp : shadowSpans_) {
    config_.spans->mergeFrom(*sp);
    sp->clear();  // repeated run() calls merge only the new spans
  }
}

void Cluster::publishStats() {
  if (config_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *config_.metrics;
  lastPublished_.resize(providers_.size());
  for (std::uint32_t n = 0; n < providers_.size(); ++n) {
    const nic::NicStats& s = providers_[n]->device().stats();
    nic::NicStats& prev = lastPublished_[n];
    const std::string scope = "node" + std::to_string(n);
    auto pub = [&](const char* name, std::uint64_t cur, std::uint64_t& last) {
      if (cur > last) {
        m.counter(obs::scoped(scope, name)).add(cur - last);
      }
      last = cur;
    };
    pub("nic.sends_posted", s.sendsPosted, prev.sendsPosted);
    pub("nic.recvs_posted", s.recvsPosted, prev.recvsPosted);
    pub("nic.frags_tx", s.fragsTx, prev.fragsTx);
    pub("nic.frags_rx", s.fragsRx, prev.fragsRx);
    pub("nic.bytes_tx", s.bytesTx, prev.bytesTx);
    pub("nic.bytes_rx", s.bytesRx, prev.bytesRx);
    pub("nic.acks_tx", s.acksTx, prev.acksTx);
    pub("nic.acks_rx", s.acksRx, prev.acksRx);
    pub("nic.retransmits", s.retransmits, prev.retransmits);
    pub("nic.rx_corrupted", s.rxCorrupted, prev.rxCorrupted);
    pub("nic.rx_dropped_no_descriptor", s.rxDroppedNoDescriptor,
        prev.rxDroppedNoDescriptor);
    pub("nic.rx_dropped_bad_endpoint", s.rxDroppedBadEndpoint,
        prev.rxDroppedBadEndpoint);
    pub("nic.rx_out_of_order_dropped", s.rxOutOfOrderDropped,
        prev.rxOutOfOrderDropped);
    pub("nic.protocol_errors", s.protocolErrors, prev.protocolErrors);
  }
  auto pubNet = [&](const char* name, std::uint64_t cur,
                    std::uint64_t& last) {
    if (cur > last) m.counter(obs::scoped("fabric", name)).add(cur - last);
    last = cur;
  };
  pubNet("frames_dropped", topo_->framesDropped(), lastFramesDropped_);
  pubNet("frames_corrupted", topo_->framesCorrupted(), lastFramesCorrupted_);
  pubNet("packets_forwarded", topo_->hostIngressForwards(), lastForwarded_);
}

void Cluster::attachTracer() {
  if (topo_->domainCount() == 1) {
    // One domain records in execution order. A replay would reorder
    // records that share a timestamp by node: a different trace.
    for (auto& p : providers_) p->device().setTracer(config_.tracer);
    return;
  }
  // Per-node shadows record everything (the user tracer's enablement is
  // applied at replay, so late enable() calls still work) into per-node
  // logs that stay single-writer inside the node's domain. Only the sink
  // is read, so the shadows keep no ring.
  shadowTraceLogs_.assign(config_.nodes, {});
  shadowTracers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    auto shadow = std::make_unique<sim::Tracer>(/*capacity=*/0);
    shadow->enableAll();
    auto* log = &shadowTraceLogs_[n];
    shadow->setSink([log](const sim::TraceRecord& r) { log->push_back(r); });
    providers_[n]->device().setTracer(shadow.get());
    shadowTracers_.push_back(std::move(shadow));
  }
}

void Cluster::replayShadowTraces() {
  if (shadowTraceLogs_.empty()) return;
  // Node-major concatenation + stable sort by time = (time, node, record
  // index) order: each node's log is already time-ordered, so the merged
  // interleaving depends only on the simulation, never the shard count.
  std::vector<const sim::TraceRecord*> merged;
  std::size_t total = 0;
  for (const auto& log : shadowTraceLogs_) total += log.size();
  merged.reserve(total);
  for (const auto& log : shadowTraceLogs_) {
    for (const sim::TraceRecord& r : log) merged.push_back(&r);
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const sim::TraceRecord* a, const sim::TraceRecord* b) {
                     return a->time < b->time;
                   });
  sim::Tracer& tracer = *config_.tracer;
  for (const sim::TraceRecord* r : merged) {
    if (tracer.enabled(r->category)) {
      tracer.record(r->time, r->category, r->component, r->message);
    }
  }
  for (auto& log : shadowTraceLogs_) log.clear();
}

void Cluster::run(std::vector<std::function<void(NodeEnv&)>> programs) {
  if (programs.size() > config_.nodes) {
    throw sim::SimError("Cluster::run: more programs than nodes");
  }
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(programs.size());
  for (std::uint32_t i = 0; i < programs.size(); ++i) {
    if (!programs[i]) continue;
    procs.push_back(std::make_unique<sim::Process>(
        nodeEngine(i), "node" + std::to_string(i),
        [this, i, fn = std::move(programs[i])] {
          sim::Engine& eng = nodeEngine(i);
          NodeEnv env{i, *providers_[i], *eng.currentProcess(), eng};
          fn(env);
          // The program's stack frames (and any descriptors on them) are
          // dead once fn returns; abandon its pending work so completions
          // still in flight do not write through dangling pointers.
          providers_[i]->quiesce();
        }));
  }
  try {
    pdes_->run();
  } catch (...) {
    // Deadlock/error dumps still want the trace: replay whatever the
    // shadows captured before rethrowing.
    replayShadowTraces();
    throw;
  }
  if (config_.sampler != nullptr) {
    // Capture remaining whole boundaries up to the drain time, so the
    // timeline's tail does not depend on whether a final event happened
    // to land past the last boundary.
    config_.sampler->flushUntil(pdes_->maxNow());
  }
  replayShadowTraces();
  mergeShadowSpans();
  publishStats();
}

}  // namespace vibe::suite
