#include "fault/fault_injector.hpp"

#include <string>

#include "simcore/trace.hpp"

namespace vibe::fault {

void FaultInjector::arm(suite::Cluster& cluster) {
  if (armed_) throw sim::SimError("FaultInjector::arm called twice");
  armed_ = true;
  for (const FaultAction& a : plan_.actions) {
    if (a.target == FaultTarget::Trunk) {
      const std::uint32_t trunks = cluster.topology().trunkCount();
      if (a.node >= trunks) {
        throw sim::SimError(
            "FaultInjector: trunk action targets leaf " +
            std::to_string(a.node) + " but the topology has " +
            std::to_string(trunks) + " trunk(s)");
      }
    } else if (a.node >= cluster.nodeCount()) {
      throw sim::SimError("FaultInjector: action targets node " +
                          std::to_string(a.node) + " of a " +
                          std::to_string(cluster.nodeCount()) +
                          "-node cluster");
    }
    apply(cluster, a);
    sim::trace(cluster.tracer(), a.start, sim::TraceCategory::User, a.node,
               [&] {
                 return "fault " + std::string(toString(a.kind)) + " side=" +
                        toString(a.side) + " dur=" +
                        std::to_string(a.duration) +
                        (a.target == FaultTarget::Trunk ? " target=trunk" : "");
               });
  }
}

void FaultInjector::apply(suite::Cluster& cluster, const FaultAction& a) {
  fabric::Topology& topo = cluster.topology();
  // Trunk actions hit the shared leaf<->root pair ("up" = leaf-to-root);
  // host actions hit the node's own link pair, exactly as before.
  const bool trunk = a.target == FaultTarget::Trunk;
  fabric::Link& up = trunk ? topo.trunkUp(a.node) : topo.hostUplink(a.node);
  fabric::Link& down =
      trunk ? topo.trunkDown(a.node) : topo.hostDownlink(a.node);
  const bool onUp = a.side != LinkSide::Downlink;
  const bool onDown = a.side != LinkSide::Uplink;
  switch (a.kind) {
    case FaultKind::LossBurst:
      if (onUp) up.scheduleLossWindow(a.start, a.end(), a.rate);
      if (onDown) down.scheduleLossWindow(a.start, a.end(), a.rate);
      break;
    case FaultKind::LinkFlap:
      if (onUp) up.scheduleLossWindow(a.start, a.end(), 1.0);
      if (onDown) down.scheduleLossWindow(a.start, a.end(), 1.0);
      break;
    case FaultKind::LatencySpike:
      if (onUp) up.scheduleLatencyWindow(a.start, a.end(), a.extraLatency);
      if (onDown) down.scheduleLatencyWindow(a.start, a.end(), a.extraLatency);
      break;
    case FaultKind::Corruption:
      if (onUp) up.scheduleCorruptWindow(a.start, a.end(), a.rate);
      if (onDown) down.scheduleCorruptWindow(a.start, a.end(), a.rate);
      break;
    case FaultKind::Partition:
      // Isolate the node entirely: nothing in, nothing out.
      up.scheduleLossWindow(a.start, a.end(), 1.0);
      down.scheduleLossWindow(a.start, a.end(), 1.0);
      break;
  }
}

}  // namespace vibe::fault
