// FaultInjector: applies a FaultPlan to a Cluster.
//
// Arming translates each declarative action into scheduled parameter
// windows on the cluster's fabric links (Link::scheduleLossWindow and
// friends). Windows are passive data evaluated inside Link::send, so the
// injector needs no events of its own and arming before Cluster::run is
// sufficient — even for windows that open mid-run. An unarmed injector, or
// a plan with no actions, leaves the simulation byte-identical to a run
// with no injector at all.
#pragma once

#include "fault/fault_plan.hpp"
#include "vibe/cluster.hpp"

namespace vibe::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return armed_; }

  /// Schedules every action of the plan onto `cluster`'s links. Call
  /// once, before Cluster::run. If the cluster's config carries a tracer,
  /// each action is recorded into it as a User mark (stamped with its
  /// window-open time) for log context.
  void arm(suite::Cluster& cluster);

 private:
  void apply(suite::Cluster& cluster, const FaultAction& a);

  FaultPlan plan_;
  bool armed_ = false;
};

}  // namespace vibe::fault
