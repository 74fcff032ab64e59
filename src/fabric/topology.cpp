#include "fabric/topology.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/span.hpp"
#include "simcore/pdes.hpp"

namespace vibe::fabric {

namespace {

/// Uniform bounds guard for the index-based accessors: every
/// out-of-range index surfaces as a SimError naming the accessor and
/// the valid range, never as a raw std::out_of_range.
void checkIndex(std::size_t i, std::size_t size, const char* what) {
  if (i >= size) {
    throw sim::SimError(std::string(what) + ": index " + std::to_string(i) +
                        " out of range [0, " + std::to_string(size) + ")");
  }
}

/// Leaf switches of a two-level tree. A zero fan-out would leave the
/// hosts no leaf to hang from (and divide by zero).
std::uint32_t treeLeaves(const TopologySpec& spec) {
  if (spec.nodesPerSwitch == 0) {
    throw sim::SimError("Topology: two-level tree needs nodesPerSwitch > 0");
  }
  return (spec.nodes + spec.nodesPerSwitch - 1) / spec.nodesPerSwitch;
}

/// splitmix64 finalizer: the ECMP flow-hash mixer. Pure function of its
/// input, so path selection is reproducible from (seed, flow) alone.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t stackDomainCount(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::Star:
      return 1;
    case TopologyKind::TwoLevelTree:
      return treeLeaves(spec) + 1;  // + root
    case TopologyKind::FatTree: {
      const std::uint32_t half = spec.fatTreeK / 2;
      return 2 * spec.fatTreeK * half + half * half;  // edges, aggrs, cores
    }
  }
  throw sim::SimError("stackDomainCount: unknown topology kind");
}

sim::Duration hopLookahead(const TopologySpec& spec) {
  if (spec.kind == TopologyKind::Star) return 0;
  return sim::transferTime(spec.fabricLink.headerBytes,
                           spec.fabricLink.bandwidthMBps) +
         spec.fabricLink.propagation;
}

const char* toString(SwitchTier t) {
  switch (t) {
    case SwitchTier::Edge: return "edge";
    case SwitchTier::Aggregation: return "aggr";
    case SwitchTier::Core: return "core";
  }
  return "?";
}

// --- Switch ---------------------------------------------------------------

Switch::Switch(Topology& topo, sim::Engine& engine, std::uint32_t domain,
               std::uint32_t id, std::string name, SwitchTier tier,
               sim::Duration latency, std::uint32_t nodes,
               std::uint32_t bufferFrames)
    : topo_(topo),
      engine_(engine),
      domain_(domain),
      id_(id),
      name_(std::move(name)),
      tier_(tier),
      latency_(latency),
      bufferFrames_(bufferFrames),
      route_(nodes, -1) {}

std::uint32_t Switch::addPort(Link* out) {
  ports_.push_back(Port{out});
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

void Switch::setHostRoute(NodeId dst, std::uint32_t port) {
  checkIndex(dst, route_.size(), "Switch::setHostRoute");
  checkIndex(port, ports_.size(), "Switch::setHostRoute(port)");
  route_[dst] = static_cast<std::int32_t>(port);
}

const Switch::Port& Switch::port(std::uint32_t i) const {
  checkIndex(i, ports_.size(), "Switch::port");
  return ports_[i];
}

void Switch::setEcmpUplinks(std::vector<std::uint32_t> ports) {
  ecmp_ = std::move(ports);
}

void Switch::ingress(PacketPtr p, std::uint32_t ingressHeaderBytes,
                     bool fromHost) {
  // Switch-hop Wire span: cut-through latency, sized with the bytes the
  // ingress wire actually carried (each hop attributes its own link's
  // header, not a topology-wide constant). spans_ is this switch's own
  // (domain-local under sharding) profiler.
  if (spans_ != nullptr && latency_ > 0 && p->kind != PacketKind::Ack &&
      !isConnectionManagement(p->kind)) {
    const sim::SimTime now = engine_.now();
    spans_->emit(obs::Stage::Wire, p->src, p->srcVi, now, now + latency_,
                 p->wireBytes(ingressHeaderBytes));
  }
  engine_.post(latency_, [this, p = std::move(p), fromHost]() mutable {
    forward(std::move(p), fromHost);
  });
}

std::uint32_t Switch::selectUplink(const Packet& p) const {
  // Seed-keyed flow hash: constant for one (src, dst, srcVi, dstVi) tuple
  // so a VI's frames stay in order, decorrelated across switches by id.
  std::uint64_t h = topo_.spec().seed ^
                    (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id_) + 1));
  h = mix(h ^ ((static_cast<std::uint64_t>(p.src) << 32) | p.dst));
  h = mix(h ^ ((static_cast<std::uint64_t>(p.srcVi) << 32) | p.dstVi));
  return ecmp_[h % ecmp_.size()];
}

void Switch::forward(PacketPtr p, bool fromHost) {
  ++forwarded_;
  if (fromHost) ++fromHostForwards_;
  std::uint32_t portIdx = 0;
  const std::int32_t rt =
      p->dst < route_.size() ? route_[p->dst] : std::int32_t{-1};
  if (rt >= 0) {
    portIdx = static_cast<std::uint32_t>(rt);
  } else if (!ecmp_.empty()) {
    portIdx = selectUplink(*p);
  } else {
    throw sim::SimError("Switch " + name_ + ": no route to node " +
                        std::to_string(p->dst));
  }
  Port& port = ports_.at(portIdx);
  if (bufferFrames_ != 0) {
    const std::uint32_t depth = port.out->queuedFrames(engine_.now());
    if (depth >= bufferFrames_) {
      // Tail drop: the output buffer is full. The frame is gone; higher
      // layers see it exactly like wire loss (timeout + retransmit).
      ++port.drops;
      ++drops_;
      return;
    }
    if (depth > 0) {
      ++port.queued;
      ++queuedTotal_;
    }
    port.maxDepth = std::max(port.maxDepth, depth + 1);
    maxDepth_ = std::max(maxDepth_, depth + 1);
  }
  port.out->send(std::move(p));
}

// --- Topology -------------------------------------------------------------

Topology::Topology(sim::ShardedEngine& pdes, const TopologySpec& spec)
    : pdes_(pdes), spec_(spec), receivers_(spec.nodes) {
  const std::uint32_t perSwitch = stackDomainCount(spec_);
  domainCount_ = pdes.domainCount();
  if (domainCount_ != 1 && domainCount_ != perSwitch) {
    throw sim::SimError("Topology: spec needs 1 PDES domain or " +
                        std::to_string(perSwitch) +
                        " (one per switch) but the engine has " +
                        std::to_string(domainCount_));
  }
  switch (spec_.kind) {
    case TopologyKind::Star: buildStar(); break;
    case TopologyKind::TwoLevelTree: buildTree(); break;
    case TopologyKind::FatTree: buildFatTree(); break;
  }
}

sim::Engine& Topology::engineForDomain(std::uint32_t domain) {
  return pdes_.domainEngine(domain);
}

std::uint32_t Topology::hostDomain(NodeId n) const {
  checkIndex(n, spec_.nodes, "Topology::hostDomain");
  if (domainCount_ == 1) return 0;
  switch (spec_.kind) {
    case TopologyKind::Star: return 0;
    case TopologyKind::TwoLevelTree: return n / spec_.nodesPerSwitch;
    case TopologyKind::FatTree: return n / (spec_.fatTreeK / 2);
  }
  return 0;
}

void Topology::setReceiver(NodeId node, Receiver rx) {
  checkIndex(node, receivers_.size(), "Topology::setReceiver");
  receivers_[node] = std::move(rx);
}

void Topology::send(PacketPtr p) {
  if (p->src >= spec_.nodes || p->dst >= spec_.nodes) {
    throw sim::SimError("Topology::send: node id out of range");
  }
  if (p->src == p->dst) {
    throw sim::SimError("Topology::send: wire loopback not supported");
  }
  hostUp_[p->src]->send(std::move(p));
}

void Topology::placeLink(Link* l, std::uint32_t srcDomain,
                         std::uint32_t dstDomain) {
  linkDomains_.emplace_back(l, srcDomain);
  if (srcDomain != dstDomain) {
    sim::ShardedEngine* pdes = &pdes_;
    l->setRemoteDelivery(
        [pdes, srcDomain, dstDomain](sim::SimTime at, sim::EventFn fn) {
          pdes->sendAt(srcDomain, dstDomain, at, std::move(fn));
        });
  }
}

Switch* Topology::addSwitch(std::string name, SwitchTier tier,
                            sim::Duration latency, std::uint32_t domain) {
  if (domainCount_ == 1) domain = 0;
  switches_.push_back(std::make_unique<Switch>(
      *this, engineForDomain(domain), domain,
      static_cast<std::uint32_t>(switches_.size()), std::move(name), tier,
      latency, spec_.nodes, spec_.portBufferFrames));
  return switches_.back().get();
}

void Topology::connectToSwitch(Link* l, Switch* sw, bool fromHost) {
  const std::uint32_t header = l->headerBytes();
  l->connect([sw, header, fromHost](PacketPtr p) {
    sw->ingress(std::move(p), header, fromHost);
  });
}

Link* Topology::addFabricLink(std::string name, std::uint64_t seedSalt,
                              Switch* from, Switch* to) {
  LinkParams lp = spec_.fabricLink;
  lp.seed = spec_.seed ^ seedSalt;
  fabricLinks_.push_back(std::make_unique<Link>(
      engineForDomain(from->domain()), std::move(name), lp));
  Link* l = fabricLinks_.back().get();
  connectToSwitch(l, to, /*fromHost=*/false);
  placeLink(l, from->domain(), to->domain());
  return l;
}

/// Host link pairs: "up<n>"/"down<n>", salts 0x1000/0x2000. The names
/// and salts fix every host link's PRNG stream, so changing them moves
/// every table.
void Topology::buildHostLinks(const std::function<Switch*(NodeId)>& edgeOf) {
  hostUp_.reserve(spec_.nodes);
  hostDown_.reserve(spec_.nodes);
  for (NodeId n = 0; n < spec_.nodes; ++n) {
    // A host link pair lives entirely inside its edge switch's domain:
    // the host's NIC, the uplink, the switch, and the downlink all run on
    // the same engine, so host traffic only crosses domains on the
    // inter-switch fabric links.
    Switch* edge = edgeOf(n);
    sim::Engine& eng = engineForDomain(edge->domain());
    LinkParams lp = spec_.hostLink;
    lp.seed = spec_.seed ^ (0x1000ULL + n);
    auto up = std::make_unique<Link>(eng, "up" + std::to_string(n), lp);
    lp.seed = spec_.seed ^ (0x2000ULL + n);
    auto down = std::make_unique<Link>(eng, "down" + std::to_string(n), lp);
    connectToSwitch(up.get(), edge, /*fromHost=*/true);
    down->connect([this, n](PacketPtr p) {
      if (!receivers_[n]) {
        throw sim::SimError("Topology: no receiver registered for node " +
                            std::to_string(n));
      }
      receivers_[n](std::move(p));
    });
    const std::uint32_t port = edge->addPort(down.get());
    edge->setHostRoute(n, port);
    placeLink(up.get(), edge->domain(), edge->domain());
    placeLink(down.get(), edge->domain(), edge->domain());
    hostUp_.push_back(std::move(up));
    hostDown_.push_back(std::move(down));
  }
}

void Topology::buildStar() {
  Switch* sw = addSwitch("sw0", SwitchTier::Edge, spec_.edgeLatency, 0);
  buildHostLinks([sw](NodeId) { return sw; });
}

void Topology::buildTree() {
  const std::uint32_t nps = spec_.nodesPerSwitch;
  const std::uint32_t leaves = treeLeaves(spec_);
  // Domains: leaf l -> l, root -> leaves.
  std::vector<Switch*> leafSw(leaves);
  for (std::uint32_t leaf = 0; leaf < leaves; ++leaf) {
    leafSw[leaf] = addSwitch("leaf" + std::to_string(leaf), SwitchTier::Edge,
                             spec_.edgeLatency, leaf);
  }
  Switch* root =
      addSwitch("root", SwitchTier::Core, spec_.coreLatency, leaves);

  buildHostLinks([&leafSw, nps](NodeId n) { return leafSw[n / nps]; });

  // Trunks: legacy names/salts ("trunkUp<leaf>" 0x3000, "trunkDown<leaf>"
  // 0x4000), one shared pair per leaf. An up trunk serializes in the leaf
  // domain and delivers into the root domain; a down trunk the reverse.
  for (std::uint32_t leaf = 0; leaf < leaves; ++leaf) {
    const std::uint32_t leafDom = leafSw[leaf]->domain();
    LinkParams tp = spec_.fabricLink;
    tp.seed = spec_.seed ^ (0x3000ULL + leaf);
    auto up = std::make_unique<Link>(
        engineForDomain(leafDom), "trunkUp" + std::to_string(leaf), tp);
    tp.seed = spec_.seed ^ (0x4000ULL + leaf);
    auto down = std::make_unique<Link>(
        engineForDomain(root->domain()), "trunkDown" + std::to_string(leaf),
        tp);
    connectToSwitch(up.get(), root, /*fromHost=*/false);
    connectToSwitch(down.get(), leafSw[leaf], /*fromHost=*/false);
    placeLink(up.get(), leafDom, root->domain());
    placeLink(down.get(), root->domain(), leafDom);

    // Leaf: non-local hosts go up the (single-member ECMP) trunk.
    leafSw[leaf]->setEcmpUplinks({leafSw[leaf]->addPort(up.get())});
    // Root: this leaf's hosts go down its trunk.
    const std::uint32_t rootPort = root->addPort(down.get());
    const NodeId first = leaf * nps;
    const NodeId last = std::min<NodeId>(first + nps, spec_.nodes);
    for (NodeId n = first; n < last; ++n) root->setHostRoute(n, rootPort);

    trunkUp_.push_back(std::move(up));
    trunkDown_.push_back(std::move(down));
  }
}

void Topology::buildFatTree() {
  const std::uint32_t k = spec_.fatTreeK;
  if (k < 2 || (k % 2) != 0) {
    throw sim::SimError("Topology: fat-tree arity k must be even and >= 2");
  }
  const std::uint32_t half = k / 2;
  const std::uint32_t maxHosts = k * k * k / 4;
  if (spec_.nodes > maxHosts) {
    throw sim::SimError("Topology: " + std::to_string(spec_.nodes) +
                        " hosts exceed k^3/4 = " + std::to_string(maxHosts) +
                        " for fat-tree k=" + std::to_string(k));
  }
  const std::uint32_t pods = k;
  const std::uint32_t numEdges = pods * half;
  const std::uint32_t numAggrs = pods * half;
  const std::uint32_t numCores = half * half;
  const std::uint32_t podHosts = half * half;  // hosts per pod

  // Domains: edge e -> e, aggr a -> numEdges + a, core c -> numEdges +
  // numAggrs + c (one PDES domain per switch).
  std::vector<Switch*> edges(numEdges);
  std::vector<Switch*> aggrs(numAggrs);
  std::vector<Switch*> cores(numCores);
  for (std::uint32_t e = 0; e < numEdges; ++e) {
    edges[e] = addSwitch("edge" + std::to_string(e), SwitchTier::Edge,
                         spec_.edgeLatency, e);
  }
  for (std::uint32_t a = 0; a < numAggrs; ++a) {
    aggrs[a] = addSwitch("aggr" + std::to_string(a), SwitchTier::Aggregation,
                         spec_.coreLatency, numEdges + a);
  }
  for (std::uint32_t c = 0; c < numCores; ++c) {
    cores[c] = addSwitch("core" + std::to_string(c), SwitchTier::Core,
                         spec_.coreLatency, numEdges + numAggrs + c);
  }

  // Host n sits under edge n/(k/2); only the first `nodes` hosts exist.
  buildHostLinks([&edges, half](NodeId n) { return edges[n / half]; });

  // Inter-switch links, salted by running index (disjoint from the host
  // 0x1000/0x2000 and tree 0x3000/0x4000 salt ranges).
  std::uint64_t salt = 0x5000;

  // Edge <-> aggregation, per pod: full bipartite k/2 x k/2 mesh.
  for (std::uint32_t p = 0; p < pods; ++p) {
    for (std::uint32_t i = 0; i < half; ++i) {
      const std::uint32_t e = p * half + i;
      std::vector<std::uint32_t> edgeUp;
      edgeUp.reserve(half);
      for (std::uint32_t j = 0; j < half; ++j) {
        const std::uint32_t a = p * half + j;
        Link* up = addFabricLink(
            "ft.e" + std::to_string(e) + ".up" + std::to_string(j), salt++,
            edges[e], aggrs[a]);
        edgeUp.push_back(edges[e]->addPort(up));
        Link* down = addFabricLink(
            "ft.a" + std::to_string(a) + ".down" + std::to_string(i), salt++,
            aggrs[a], edges[e]);
        const std::uint32_t aPort = aggrs[a]->addPort(down);
        // Aggregation routes this edge's hosts down to it.
        const NodeId first = e * half;
        const NodeId last =
            std::min<NodeId>(first + half, spec_.nodes);
        for (NodeId n = first; n < last; ++n) {
          aggrs[a]->setHostRoute(n, aPort);
        }
      }
      edges[e]->setEcmpUplinks(std::move(edgeUp));
    }
  }

  // Aggregation <-> core: aggregation j of every pod connects to cores
  // [j*k/2, (j+1)*k/2); each core reaches every pod through exactly one
  // aggregation switch.
  for (std::uint32_t p = 0; p < pods; ++p) {
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::uint32_t a = p * half + j;
      std::vector<std::uint32_t> aggrUp;
      aggrUp.reserve(half);
      for (std::uint32_t m = 0; m < half; ++m) {
        const std::uint32_t c = j * half + m;
        Link* up = addFabricLink(
            "ft.a" + std::to_string(a) + ".up" + std::to_string(m), salt++,
            aggrs[a], cores[c]);
        aggrUp.push_back(aggrs[a]->addPort(up));
        Link* down = addFabricLink(
            "ft.c" + std::to_string(c) + ".down" + std::to_string(p), salt++,
            cores[c], aggrs[a]);
        const std::uint32_t cPort = cores[c]->addPort(down);
        // Core routes every host of pod p down through aggregation a.
        const NodeId first = p * podHosts;
        const NodeId last =
            std::min<NodeId>(first + podHosts, spec_.nodes);
        for (NodeId n = first; n < last; ++n) {
          cores[c]->setHostRoute(n, cPort);
        }
      }
      aggrs[a]->setEcmpUplinks(std::move(aggrUp));
    }
  }
}

Link& Topology::hostUplink(NodeId n) {
  checkIndex(n, hostUp_.size(), "Topology::hostUplink");
  return *hostUp_[n];
}

Link& Topology::hostDownlink(NodeId n) {
  checkIndex(n, hostDown_.size(), "Topology::hostDownlink");
  return *hostDown_[n];
}

Link& Topology::trunkUp(std::uint32_t leaf) {
  checkIndex(leaf, trunkUp_.size(), "Topology::trunkUp");
  return *trunkUp_[leaf];
}

Link& Topology::trunkDown(std::uint32_t leaf) {
  checkIndex(leaf, trunkDown_.size(), "Topology::trunkDown");
  return *trunkDown_[leaf];
}

Link& Topology::fabricLink(std::size_t i) {
  checkIndex(i, fabricLinks_.size(), "Topology::fabricLink");
  return *fabricLinks_[i];
}

void Topology::setDomainSpanProfilers(
    const std::vector<obs::SpanProfiler*>& byDomain) {
  if (byDomain.size() != domainCount_) {
    throw sim::SimError("Topology::setDomainSpanProfilers: got " +
                        std::to_string(byDomain.size()) + " profilers for " +
                        std::to_string(domainCount_) + " domains");
  }
  for (auto& [l, d] : linkDomains_) l->setSpanProfiler(byDomain[d]);
  for (auto& s : switches_) s->setSpanProfiler(byDomain[s->domain()]);
}

std::uint64_t Topology::hostIngressForwards() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) n += s->hostIngressForwarded();
  return n;
}

std::uint64_t Topology::coreForwards() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) {
    if (s->tier() == SwitchTier::Core) n += s->packetsForwarded();
  }
  return n;
}

std::uint64_t Topology::framesDropped() const {
  std::uint64_t n = 0;
  for (const auto& l : hostUp_) n += l->framesDropped();
  for (const auto& l : hostDown_) n += l->framesDropped();
  for (const auto& l : trunkUp_) n += l->framesDropped();
  for (const auto& l : trunkDown_) n += l->framesDropped();
  for (const auto& l : fabricLinks_) n += l->framesDropped();
  return n;
}

std::uint64_t Topology::framesCorrupted() const {
  std::uint64_t n = 0;
  for (const auto& l : hostUp_) n += l->framesCorrupted();
  for (const auto& l : hostDown_) n += l->framesCorrupted();
  for (const auto& l : trunkUp_) n += l->framesCorrupted();
  for (const auto& l : trunkDown_) n += l->framesCorrupted();
  for (const auto& l : fabricLinks_) n += l->framesCorrupted();
  return n;
}

std::uint64_t Topology::switchBufferDrops() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) n += s->bufferDrops();
  return n;
}

std::uint32_t Topology::maxQueueDepth() const {
  std::uint32_t d = 0;
  for (const auto& s : switches_) d = std::max(d, s->maxQueueDepth());
  return d;
}

}  // namespace vibe::fabric
