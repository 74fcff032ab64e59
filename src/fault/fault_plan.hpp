// FaultPlan: a declarative, seed-derived schedule of timed fault actions.
//
// A plan is pure data — absolute virtual-time windows plus parameters —
// so it can be generated from a seed, printed, parsed back, and replayed
// bit-for-bit. The FaultInjector turns a plan into scheduled link-parameter
// overrides on a Cluster before the simulation starts; nothing about a
// plan depends on wall-clock state, which is what makes chaos runs
// reproducible from the seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/time.hpp"

namespace vibe::fault {

enum class FaultKind : std::uint8_t {
  LossBurst,     // loss-rate override on one link for a window
  LinkFlap,      // lossRate=1.0 window: the link is down, then comes back
  LatencySpike,  // extra one-way latency for a window (congestion/reroute)
  Corruption,    // frames delivered with the corrupted flag for a window
  Partition,     // both directions of a node's link pair down: node isolated
};

const char* toString(FaultKind k);

/// Which half of the target's full-duplex link pair the action hits.
enum class LinkSide : std::uint8_t { Uplink, Downlink, Both };

const char* toString(LinkSide s);

/// What `FaultAction::node` names: a host (its uplink/downlink pair) or,
/// on a two-level tree, a leaf switch's shared trunk pair — the links
/// most worth failing, since one trunk fault hits every host on the leaf.
enum class FaultTarget : std::uint8_t { HostLink, Trunk };

const char* toString(FaultTarget t);

struct FaultAction {
  FaultKind kind = FaultKind::LossBurst;
  std::uint32_t node = 0;              // target host (or leaf, for Trunk)
  LinkSide side = LinkSide::Uplink;    // Partition always acts on Both
  FaultTarget target = FaultTarget::HostLink;
  sim::SimTime start = 0;              // window open (absolute virtual time)
  sim::Duration duration = 0;          // window length
  double rate = 0.0;                   // LossBurst / Corruption probability
  sim::Duration extraLatency = 0;      // LatencySpike only

  sim::SimTime end() const { return start + duration; }
};

/// Knobs for FaultPlan::generate. Defaults produce recoverable chaos:
/// bursts and flaps far shorter than the reliability engine's retry
/// budget, so connections always survive. Loss bursts draw rates up to
/// 1.0, corruption up to 0.5, latency spikes up to 50 us, and partitions
/// last 3 ms. Enable partitions to exercise the teardown path.
struct FaultPlanParams {
  std::uint32_t nodes = 2;
  std::uint32_t actions = 6;
  sim::Duration horizon = sim::msec(20);      // action starts in [0, horizon)
  sim::Duration maxBurst = sim::msec(2);      // max burst/flap/spike length
  bool allowPartitions = false;
};

/// Knobs for FaultPlan::generateChurn: per-client session churn for the
/// serving benchmarks. Each churning node draws short full-duplex flaps
/// (connection breaks the session layer recovers from within its retry
/// budget); `departs` nodes additionally get one long partition — a
/// deliberate "client left" episode that trips the session circuit
/// breaker, so reviving it exercises Session::reopen.
struct ChurnParams {
  std::uint32_t firstNode = 1;   // first churning node id
  std::uint32_t nodes = 1;       // how many consecutive nodes churn
  sim::SimTime start = 0;        // episode windows open in [start, ...)
  sim::Duration horizon = sim::msec(100);
  double flapsPerNode = 1.0;     // expected short flaps per node
  sim::Duration meanFlapLen = sim::msec(2);
  std::uint32_t departs = 0;     // nodes given one long partition each
  sim::Duration departLen = sim::msec(50);
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultAction> actions;

  /// Derives a plan deterministically from `seed`: same seed and params,
  /// same plan, always.
  static FaultPlan generate(std::uint64_t seed, const FaultPlanParams& p);

  /// Session-churn plan for serving scenarios: short Partition flaps on
  /// each churning node plus `departs` long partitions, all windows drawn
  /// deterministically from `seed`. Departing nodes are taken from the
  /// high end of the node range so low-numbered clients keep flapping.
  static FaultPlan generateChurn(std::uint64_t seed, const ChurnParams& p);

  /// Round-trippable text form (one `key=value ...` line per action);
  /// parse(toString()) reproduces the plan exactly. Durations are integer
  /// nanoseconds, rates fixed-point decimals.
  std::string toString() const;
  static FaultPlan parse(const std::string& text);
};

}  // namespace vibe::fault
