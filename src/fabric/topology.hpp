// The SAN fabric: switches, routing tables, links, and the endpoint
// surface NICs use (setReceiver / send).
//
// Three topology families share one Switch model:
//
//   Star          one crossbar switch, every host on a full-duplex link
//                 pair (the paper's single-switch testbeds: Myrinet,
//                 Gigabit Ethernet and cLAN5000 switches wiring a handful
//                 of PCs).
//   TwoLevelTree  hosts on leaf switches, leaves on one root through
//                 shared trunk links (`nodesPerSwitch`). Cross-leaf
//                 traffic pays two extra link traversals plus the root's
//                 forwarding latency, and trunks are shared — the way a
//                 real multi-switch SAN oversubscribes.
//   FatTree       k-ary fat-tree / folded Clos (k even): k pods of k/2
//                 edge and k/2 aggregation switches, (k/2)^2 core
//                 switches, up to k^3/4 hosts. Every inter-switch tier is
//                 fully wired, so there are (k/2)^2 equal-cost paths
//                 between hosts in different pods.
//
// A Switch owns output ports (each port drives one Link), a routing table
// mapping destination hosts to ports, and an optional ECMP uplink group
// for destinations that must travel "up" the fabric. Uplink selection is
// a seed-keyed deterministic hash of the flow tuple (src, dst, srcVi,
// dstVi), so one flow always takes one path (per-VI frame order is
// preserved through the fabric) while distinct flows spread across the
// equal-cost uplinks — and the same spec + seed always builds the same
// paths.
//
// Ports may be given a finite output buffer (`portBufferFrames`): a frame
// routed to a port whose link already has that many frames awaiting
// serialization is tail-dropped and counted, per port and per switch,
// with a high-watermark occupancy gauge — the congestion signal incast
// and oversubscription benches measure. 0 keeps the legacy unbounded
// FIFO behavior.
//
// A Topology is always built on a sim::ShardedEngine, in one of two
// placements: one PDES domain per switch (the engine has
// stackDomainCount(spec) domains), or the whole fabric in domain 0 (the
// engine has one domain). To use the fabric on its own, build it on
// `sim::ShardedEngine(sim::EngineConfig{})` and drive that engine with
// run() / runUntil().
//
// Determinism contract: construction derives every Link's PRNG stream
// from (spec.seed, link name) with fixed names and salts, so a spec and
// seed always reproduce the same event sequence, loss draws, spans and
// tables, in either placement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/link.hpp"
#include "fabric/packet.hpp"
#include "simcore/engine.hpp"

namespace vibe::sim {
class ShardedEngine;
}

namespace vibe::fabric {

enum class TopologyKind : std::uint8_t { Star, TwoLevelTree, FatTree };

/// Which layer of the fabric a switch sits on. Star and tree-leaf
/// switches are Edge; the tree root and fat-tree cores are Core.
enum class SwitchTier : std::uint8_t { Edge, Aggregation, Core };

const char* toString(SwitchTier t);

struct TopologySpec {
  TopologyKind kind = TopologyKind::Star;
  std::uint32_t nodes = 2;
  LinkParams hostLink;              // every host <-> edge-switch link
  sim::Duration edgeLatency = 0;    // star/leaf/fat-tree-edge forwarding
  std::uint64_t seed = 1;           // link PRNG streams + ECMP hash key

  // TwoLevelTree: hosts [k*nodesPerSwitch, ...) share leaf switch k.
  std::uint32_t nodesPerSwitch = 0;

  // Inter-switch links: tree trunks, fat-tree edge<->aggr and aggr<->core.
  LinkParams fabricLink;
  // Root (tree) and aggregation/core (fat-tree) forwarding latency.
  sim::Duration coreLatency = 0;

  // FatTree: the arity k (even, >= 2); hosts <= k^3/4.
  std::uint32_t fatTreeK = 0;

  // Finite per-port output buffers, in frames. 0 = unbounded (legacy).
  std::uint32_t portBufferFrames = 0;
};

/// Number of PDES domains the per-switch placement of `spec` needs — one
/// per switch, in the builder's numbering (star: 1; tree: leaves then
/// root; fat-tree: edges, then aggregations, then cores). Use this to
/// size the ShardedEngine before constructing the Topology, which checks
/// the rest of the spec.
std::uint32_t stackDomainCount(const TopologySpec& spec);

/// Window width for that partition: the minimum virtual time between a
/// frame entering any inter-switch link and its delivery at the far
/// switch,
///
///   hop = serialize(fabricLink.headerBytes) + fabricLink.propagation
///
/// Link::send schedules delivery at serialization-complete + propagation
/// with serialization-complete >= now + serialize(header), and latency
/// windows only add delay, so every cross-domain delivery arrives at
/// least `hop` after the send. A star (one switch) returns 0: there is
/// nothing to cross.
sim::Duration hopLookahead(const TopologySpec& spec);

class Topology;

/// One switch: output ports, a per-destination routing table, an ECMP
/// uplink group, cut-through forwarding latency, and finite-buffer
/// tail-drop accounting.
class Switch {
 public:
  struct Port {
    Link* out = nullptr;
    std::uint64_t drops = 0;      // tail drops at this port's buffer
    std::uint64_t queued = 0;     // frames enqueued behind >= 1 other frame
    std::uint32_t maxDepth = 0;   // occupancy high watermark (frames)
  };

  Switch(Topology& topo, sim::Engine& engine, std::uint32_t domain,
         std::uint32_t id, std::string name, SwitchTier tier,
         sim::Duration latency, std::uint32_t nodes,
         std::uint32_t bufferFrames);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Registers `out` as the next output port; returns its index.
  std::uint32_t addPort(Link* out);
  /// Routes frames for host `dst` to `port`.
  void setHostRoute(NodeId dst, std::uint32_t port);
  /// Ports used (via the ECMP flow hash) for destinations with no host
  /// route — the switch's equal-cost uplinks toward the next tier.
  void setEcmpUplinks(std::vector<std::uint32_t> ports);

  /// Terminates an input link: emits the switch-hop Wire span (sized with
  /// the *ingress* link's header, i.e. the bytes that wire carried), then
  /// forwards after the cut-through latency. `fromHost` marks frames
  /// entering the fabric from a host uplink (ingress accounting).
  void ingress(PacketPtr p, std::uint32_t ingressHeaderBytes, bool fromHost);

  const std::string& name() const { return name_; }
  std::uint32_t id() const { return id_; }
  SwitchTier tier() const { return tier_; }
  /// PDES domain this switch (and its forwarding events) belongs to.
  std::uint32_t domain() const { return domain_; }
  /// Span profiler for this switch's hop spans (per-domain under
  /// sharding; one shared profiler otherwise). nullptr detaches.
  void setSpanProfiler(obs::SpanProfiler* spans) { spans_ = spans; }
  std::uint32_t portCount() const {
    return static_cast<std::uint32_t>(ports_.size());
  }
  /// Throws SimError naming the switch and index when out of range.
  const Port& port(std::uint32_t i) const;

  std::uint64_t packetsForwarded() const { return forwarded_; }
  /// Frames this switch forwarded that arrived from a host uplink (the
  /// per-switch share of Topology::hostIngressForwards; keeping the
  /// counter on the switch makes it single-writer under sharding).
  std::uint64_t hostIngressForwarded() const { return fromHostForwards_; }
  /// Frames tail-dropped at this switch's finite output buffers.
  std::uint64_t bufferDrops() const { return drops_; }
  /// Frames that found >= 1 frame already queued at their output port
  /// (the backpressure counter: how often the fabric actually queued).
  std::uint64_t framesQueued() const { return queuedTotal_; }
  /// Deepest output-buffer occupancy seen, in frames (includes the frame
  /// being enqueued).
  std::uint32_t maxQueueDepth() const { return maxDepth_; }

 private:
  void forward(PacketPtr p, bool fromHost);
  std::uint32_t selectUplink(const Packet& p) const;

  Topology& topo_;
  sim::Engine& engine_;  // the owning domain's engine
  std::uint32_t domain_;
  std::uint32_t id_;
  std::string name_;
  SwitchTier tier_;
  sim::Duration latency_;
  std::uint32_t bufferFrames_;
  obs::SpanProfiler* spans_ = nullptr;
  std::vector<Port> ports_;
  // route_[dst] = port, or -1 = use the ECMP uplink group.
  std::vector<std::int32_t> route_;
  std::vector<std::uint32_t> ecmp_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t fromHostForwards_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t queuedTotal_ = 0;
  std::uint32_t maxDepth_ = 0;
};

/// The wired fabric: owns every switch and link of a spec'd topology,
/// takes packets from host uplinks and hands them to the receiver
/// registered for their destination host.
class Topology {
 public:
  /// Called with each frame that reaches its destination host.
  using Receiver = std::function<void(PacketPtr)>;

  /// Builds `spec` on `pdes`, which must have either one domain per
  /// switch (stackDomainCount(spec)) or exactly one; any other count
  /// throws. Per switch, every switch and link is built on its domain's
  /// engine — one domain per edge switch covering its hosts and host
  /// links, one per aggregation/core switch — and every inter-switch link
  /// whose endpoints straddle domains routes its delivery through
  /// ShardedEngine::sendAt; the executed event schedule per domain is
  /// byte-identical at any shard count. With one domain everything runs
  /// on domain 0's engine and nothing is delivered remotely.
  Topology(sim::ShardedEngine& pdes, const TopologySpec& spec);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// PDES domains this topology spans (1 or one per switch).
  std::uint32_t domainCount() const { return domainCount_; }
  /// Domain of host `n`'s edge switch (0 on a star or with one domain).
  /// Throws on an out-of-range host.
  std::uint32_t hostDomain(NodeId n) const;
  /// The engine owning `domain`.
  sim::Engine& engineForDomain(std::uint32_t domain);
  const TopologySpec& spec() const { return spec_; }

  /// Registers the NIC RX handler for a host.
  void setReceiver(NodeId node, Receiver rx);

  /// Injects a packet from its source host's uplink. The destination must
  /// be a valid host other than the source (no loopback on the wire).
  void send(PacketPtr p);

  /// Attaches span profilers to every link and switch hop, so Wire spans
  /// tile the whole wire interval (host link, each switch hop, each
  /// inter-switch link). One profiler per domain (indexed by domain id;
  /// size must equal domainCount(), so a one-domain topology takes one):
  /// each link and switch attaches its owning domain's profiler, so every
  /// emit is domain-local and the per-domain profilers can be merged
  /// deterministically after the run. nullptr entries detach.
  void setDomainSpanProfilers(const std::vector<obs::SpanProfiler*>& byDomain);

  // Link accessors, exposed for fault injection and utilization stats.
  // Every accessor below throws SimError naming the accessor and the
  // offending index on out-of-range arguments, rather than leaking a raw
  // std::out_of_range from the underlying container.
  Link& hostUplink(NodeId n);
  Link& hostDownlink(NodeId n);

  /// Shared leaf<->root trunk links (empty outside TwoLevelTree): the
  /// links most worth failing are the shared ones.
  std::uint32_t trunkCount() const {
    return static_cast<std::uint32_t>(trunkUp_.size());
  }
  Link& trunkUp(std::uint32_t leaf);
  Link& trunkDown(std::uint32_t leaf);

  /// Fat-tree inter-switch links, in construction order (edge<->aggr by
  /// pod, then aggr<->core); exposed for fault injection and stats.
  std::size_t fabricLinkCount() const { return fabricLinks_.size(); }
  Link& fabricLink(std::size_t i);

  const std::vector<std::unique_ptr<Switch>>& switches() const {
    return switches_;
  }

  /// Frames dropped / corrupted by *links* (loss and corruption windows),
  /// summed over every link in the topology.
  std::uint64_t framesDropped() const;
  std::uint64_t framesCorrupted() const;
  /// Frames tail-dropped at finite switch buffers, summed over switches.
  std::uint64_t switchBufferDrops() const;
  /// Deepest output-buffer occupancy seen at any switch port.
  std::uint32_t maxQueueDepth() const;

  /// Packets forwarded by their first (host-ingress) switch — one per
  /// packet that entered the fabric. Summed over per-switch counters so
  /// every counter stays single-writer under sharding.
  std::uint64_t hostIngressForwards() const;
  /// Packets forwarded by a Core-tier switch (tree root / fat-tree core).
  std::uint64_t coreForwards() const;

 private:
  friend class Switch;

  void buildHostLinks(const std::function<Switch*(NodeId)>& edgeOf);
  void buildStar();
  void buildTree();
  void buildFatTree();
  /// Adds a switch in `domain` of the per-switch numbering (domain 0
  /// when the topology spans one domain).
  Switch* addSwitch(std::string name, SwitchTier tier, sim::Duration latency,
                    std::uint32_t domain);
  /// Creates one directed inter-switch link (salted off the running
  /// fabric-link index) owned by `from`'s domain and connects it to
  /// `to`'s ingress (via the cross-domain mailbox when they differ).
  Link* addFabricLink(std::string name, std::uint64_t seedSalt, Switch* from,
                      Switch* to);
  void connectToSwitch(Link* l, Switch* sw, bool fromHost);
  /// Registers a newly built link's owning domain and routes its delivery
  /// through sendAt when `dstDomain` differs.
  void placeLink(Link* l, std::uint32_t srcDomain, std::uint32_t dstDomain);

  sim::ShardedEngine& pdes_;
  std::uint32_t domainCount_ = 1;
  TopologySpec spec_;
  std::vector<Receiver> receivers_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> hostUp_;
  std::vector<std::unique_ptr<Link>> hostDown_;
  std::vector<std::unique_ptr<Link>> trunkUp_;    // TwoLevelTree only
  std::vector<std::unique_ptr<Link>> trunkDown_;  // TwoLevelTree only
  std::vector<std::unique_ptr<Link>> fabricLinks_;  // FatTree only
  // (link, owner domain) in construction order, for per-domain span
  // attachment; owner = the domain whose engine runs the link's events.
  std::vector<std::pair<Link*, std::uint32_t>> linkDomains_;
};

}  // namespace vibe::fabric
