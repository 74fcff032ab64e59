#include "vibe/cluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace vibe::suite {

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  ns_ = std::make_shared<vipl::NameService>();

  fabric::NetworkParams np;
  np.nodes = config_.nodes;
  np.link.bandwidthMBps = config_.profile.linkMBps;
  np.link.propagation = config_.profile.linkPropagation;
  np.link.headerBytes = config_.profile.linkHeaderBytes;
  np.link.lossRate = config_.lossRate;
  np.switchLatency = config_.profile.switchLatency;
  np.seed = config_.seed;
  if (config_.nodesPerSwitch != 0 || config_.fatTreeK != 0) {
    np.nodesPerSwitch = config_.nodesPerSwitch;
    np.fatTreeK = config_.fatTreeK;
    np.trunk = np.link;
    if (config_.trunkMBps > 0.0) np.trunk.bandwidthMBps = config_.trunkMBps;
    np.rootSwitchLatency = config_.profile.switchLatency;
  }
  np.switchBufferFrames = config_.switchBufferFrames;
  if (config_.simShards > 0) {
    // Hosted PDES: one domain per switch, windows bounded by the minimum
    // inter-switch hop (header serialization + propagation). Every
    // shard-count value runs the same per-domain schedules; simShards
    // only chooses how many worker threads execute them.
    const fabric::TopologySpec spec = fabric::Network::specFor(np);
    sim::EngineConfig ec;
    ec.domains = fabric::stackDomainCount(spec);
    ec.lookahead = fabric::hopLookahead(spec);
    ec.shards = config_.simShards;
    pdes_ = std::make_unique<sim::ShardedEngine>(ec);
    net_ = std::make_unique<fabric::Network>(*pdes_, np);
  } else {
    net_ = std::make_unique<fabric::Network>(engine_, np);
  }

  providers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_.push_back(std::make_unique<vipl::Provider>(
        nodeEngine(n), *net_, n, config_.profile, ns_,
        "node" + std::to_string(n)));
  }

  // Config-carried observability attachments (used by runners that build
  // the Cluster internally). All default to null = disabled.
  if (config_.tracer != nullptr) setTracer(config_.tracer);
  if (config_.spans != nullptr) setSpanProfiler(config_.spans);
  if (config_.metrics != nullptr) setMetricsRegistry(config_.metrics);
  if (config_.sampler != nullptr) {
    setSampler(config_.sampler, config_.samplePeriod);
  }
}

Cluster::~Cluster() = default;

sim::Engine& Cluster::engine() {
  if (pdes_ != nullptr) {
    throw sim::SimError(
        "Cluster::engine: sharded cluster has no single engine; use now(), "
        "shardedEngine(), or nodeEngine()");
  }
  return engine_;
}

sim::ShardedEngine& Cluster::shardedEngine() {
  if (pdes_ == nullptr) {
    throw sim::SimError("Cluster::shardedEngine: cluster is not sharded "
                        "(config.simShards == 0)");
  }
  return *pdes_;
}

sim::Engine& Cluster::nodeEngine(std::uint32_t i) {
  if (pdes_ == nullptr) return engine_;
  fabric::Topology& topo = net_->topology();
  return topo.engineForDomain(topo.hostDomain(i));
}

sim::SimTime Cluster::now() const {
  return pdes_ != nullptr ? pdes_->maxNow() : engine_.now();
}

void Cluster::setSampler(obs::TimeSeriesSampler* sampler,
                         sim::Duration period) {
  if (sampler == nullptr) {
    sampler_ = nullptr;
    return;
  }
  if (period <= 0) {
    throw sim::SimError("Cluster::setSampler: samplePeriod must be > 0");
  }
  if (sampler_ != nullptr) {
    throw sim::SimError("Cluster::setSampler: a sampler is already set "
                        "(probes register once)");
  }
  sampler_ = sampler;
  samplePeriod_ = period;
  sampler_->setPeriod(period);
  if (pdes_ != nullptr) {
    // Sharded runs have no engine observer to attach to; instead every
    // window end is clamped to the sample grid and the sampler flushes
    // from the single-threaded completion step, where probes may safely
    // read any domain's state (exactly what a serial TimeObserver sees).
    pdes_->setBoundaryHook(period, [this](sim::SimTime t) {
      sampler_->flushUntil(t);
    });
  }
  // Aggregate probes: sums over nodes, so the series count stays O(1)
  // whether the cluster has 2 nodes or 1024. Probes only read.
  sampler_->addProbe("nic/tx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().txBacklog();
    return static_cast<double>(n);
  });
  sampler_->addProbe("nic/rx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().rxBacklog();
    return static_cast<double>(n);
  });
  sampler_->addProbe("nic/cq_depth", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->cqDepthTotal();
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/host_link_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      n += net_->uplink(i).queuedFrames(at);
      n += net_->downlink(i).queuedFrames(at);
    }
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/switch_queue_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (const auto& sw : net_->topology().switches()) {
      for (std::uint32_t i = 0; i < sw->portCount(); ++i) {
        const fabric::Switch::Port& port = sw->port(i);
        if (port.out != nullptr) n += port.out->queuedFrames(at);
      }
    }
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/switch_buffer_drops", [this](sim::SimTime) {
    return static_cast<double>(net_->switchBufferDrops());
  });
}

void Cluster::setSpanProfiler(obs::SpanProfiler* spans) {
  spans_ = spans;
  if (pdes_ == nullptr) {
    for (auto& p : providers_) p->setSpanProfiler(spans);
    net_->setSpanProfiler(spans);
    return;
  }
  if (spans == nullptr) {
    for (auto& p : providers_) p->setSpanProfiler(nullptr);
    net_->setSpanProfiler(nullptr);
    shadowSpans_.clear();
    return;
  }
  // Per-domain shadows: each provider and switch emits into its own
  // domain's profiler (single-writer during a window); run() folds them
  // into the user profiler in domain order, which makes the merged
  // histograms and event buffer shard-count independent.
  fabric::Topology& topo = net_->topology();
  const std::uint32_t doms = topo.domainCount();
  shadowSpans_.clear();
  shadowSpans_.reserve(doms);
  std::vector<obs::SpanProfiler*> byDomain(doms);
  for (std::uint32_t d = 0; d < doms; ++d) {
    auto sp = std::make_unique<obs::SpanProfiler>();
    sp->setKeepEvents(true);  // mergeFrom copies events if the user keeps
    byDomain[d] = sp.get();
    shadowSpans_.push_back(std::move(sp));
  }
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_[n]->setSpanProfiler(byDomain[topo.hostDomain(n)]);
  }
  topo.setDomainSpanProfilers(byDomain);
}

void Cluster::mergeShadowSpans() {
  if (spans_ == nullptr || shadowSpans_.empty()) return;
  for (auto& sp : shadowSpans_) {
    spans_->mergeFrom(*sp);
    sp->clear();  // repeated run() calls merge only the new spans
  }
}

void Cluster::publishStats() {
  if (metrics_ == nullptr) return;
  obs::MetricsRegistry& m = *metrics_;
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
  pubNet("frames_dropped", net_->framesDropped(), lastFramesDropped_);
  pubNet("frames_corrupted", net_->framesCorrupted(), lastFramesCorrupted_);
  pubNet("packets_forwarded", net_->packetsForwarded(), lastForwarded_);
  pubNet("switch_buffer_drops", net_->switchBufferDrops(), lastSwitchDrops_);
  // Per-switch congestion stats appear only when a finite buffer actually
  // queued or dropped something, so metric dumps for the star/tree
  // configurations (which never do) are unchanged.
  if (net_->maxSwitchQueueDepth() > 0) {
    m.gauge(obs::scoped("fabric", "switch_queue_depth_max"))
        .set(net_->maxSwitchQueueDepth());
    for (const auto& sw : net_->topology().switches()) {
      if (sw->bufferDrops() == 0 && sw->maxQueueDepth() == 0) continue;
      const std::string scope = "fabric." + sw->name();
      if (sw->bufferDrops() > 0) {
        // Delta against the counter's own value: switch names are unique
        // within a cluster, so the counter mirrors the lifetime total.
        auto& c = m.counter(obs::scoped(scope, "buffer_drops"));
        if (sw->bufferDrops() > c.value()) c.add(sw->bufferDrops() - c.value());
      }
      m.gauge(obs::scoped(scope, "queue_depth_max")).set(sw->maxQueueDepth());
    }
  }
}

void Cluster::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  if (pdes_ == nullptr) {
    for (auto& p : providers_) p->device().setTracer(tracer);
    return;
  }
  if (tracer == nullptr) {
    for (auto& p : providers_) p->device().setTracer(nullptr);
    shadowTracers_.clear();
    shadowTraceLogs_.clear();
    return;
  }
  // Per-node shadows record everything (the user tracer's enablement is
  // applied at replay, so late enable() calls still work) into per-node
  // logs that stay single-writer inside the node's domain.
  shadowTracers_.clear();
  shadowTraceLogs_.assign(config_.nodes, {});
  shadowTracers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    auto shadow = std::make_unique<sim::Tracer>(/*capacity=*/1);
    shadow->enableAll();
    auto* log = &shadowTraceLogs_[n];
    shadow->setSink([log](const sim::TraceRecord& r) { log->push_back(r); });
    providers_[n]->device().setTracer(shadow.get());
    shadowTracers_.push_back(std::move(shadow));
  }
}

void Cluster::replayShadowTraces() {
  if (tracer_ == nullptr || shadowTraceLogs_.empty()) return;
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
  for (const sim::TraceRecord* r : merged) {
    if (tracer_->enabled(r->category)) {
      tracer_->record(r->time, r->category, r->component, r->message);
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
  if (pdes_ != nullptr) {
    try {
      pdes_->run();
    } catch (...) {
      // Deadlock/error dumps still want the trace: replay whatever the
      // shadows captured before rethrowing.
      replayShadowTraces();
      throw;
    }
    if (sampler_ != nullptr) {
      // Tail boundaries past the last window (same contract as serial).
      sampler_->flushUntil(pdes_->maxNow());
    }
    replayShadowTraces();
    mergeShadowSpans();
    publishStats();
    return;
  }
  if (sampler_ != nullptr) sampler_->attach(engine_);
  try {
    engine_.run();
  } catch (...) {
    if (sampler_ != nullptr) sampler_->detach();
    throw;
  }
  if (sampler_ != nullptr) {
    // Capture remaining whole boundaries up to the drain time, so the
    // timeline's tail does not depend on whether a final event happened
    // to land past the last boundary.
    sampler_->flushUntil(engine_.now());
    sampler_->detach();
  }
  publishStats();
}

}  // namespace vibe::suite
