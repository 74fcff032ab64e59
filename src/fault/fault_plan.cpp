#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "simcore/engine.hpp"
#include "simcore/prng.hpp"

namespace vibe::fault {

const char* toString(FaultKind k) {
  switch (k) {
    case FaultKind::LossBurst: return "lossburst";
    case FaultKind::LinkFlap: return "linkflap";
    case FaultKind::LatencySpike: return "latencyspike";
    case FaultKind::Corruption: return "corruption";
    case FaultKind::Partition: return "partition";
  }
  return "?";
}

const char* toString(LinkSide s) {
  switch (s) {
    case LinkSide::Uplink: return "up";
    case LinkSide::Downlink: return "down";
    case LinkSide::Both: return "both";
  }
  return "?";
}

const char* toString(FaultTarget t) {
  switch (t) {
    case FaultTarget::HostLink: return "host";
    case FaultTarget::Trunk: return "trunk";
  }
  return "?";
}

namespace {

FaultKind kindFromString(const std::string& s) {
  if (s == "lossburst") return FaultKind::LossBurst;
  if (s == "linkflap") return FaultKind::LinkFlap;
  if (s == "latencyspike") return FaultKind::LatencySpike;
  if (s == "corruption") return FaultKind::Corruption;
  if (s == "partition") return FaultKind::Partition;
  throw sim::SimError("FaultPlan::parse: unknown kind '" + s + "'");
}

LinkSide sideFromString(const std::string& s) {
  if (s == "up") return LinkSide::Uplink;
  if (s == "down") return LinkSide::Downlink;
  if (s == "both") return LinkSide::Both;
  throw sim::SimError("FaultPlan::parse: unknown side '" + s + "'");
}

FaultTarget targetFromString(const std::string& s) {
  if (s == "host") return FaultTarget::HostLink;
  if (s == "trunk") return FaultTarget::Trunk;
  throw sim::SimError("FaultPlan::parse: unknown target '" + s + "'");
}

/// Rates round-trip through text as micro-units (integer millionths), so
/// toString/parse is exact and locale-independent.
std::uint64_t rateToMicro(double r) {
  return static_cast<std::uint64_t>(r * 1e6 + 0.5);
}

}  // namespace

FaultPlan FaultPlan::generate(std::uint64_t seed, const FaultPlanParams& p) {
  constexpr double kMaxLossRate = 1.0;
  constexpr double kMaxCorruptRate = 0.5;
  constexpr sim::Duration kMaxLatencySpike = sim::usec(50);
  constexpr sim::Duration kPartitionLength = sim::msec(3);
  FaultPlan plan;
  plan.seed = seed;
  plan.actions.reserve(p.actions);
  sim::Xoshiro256 rng(seed, "faultplan");
  const std::uint64_t kinds = p.allowPartitions ? 5 : 4;
  for (std::uint32_t i = 0; i < p.actions; ++i) {
    // Every field draws unconditionally, in a fixed order, so the PRNG
    // stream stays aligned no matter which kind is selected.
    const std::uint64_t kindSel = rng.below(kinds);
    const std::uint64_t node = rng.below(p.nodes);
    const std::uint64_t sideSel = rng.below(2);
    const std::uint64_t start =
        rng.below(static_cast<std::uint64_t>(p.horizon));
    const std::uint64_t burst =
        1 + rng.below(static_cast<std::uint64_t>(p.maxBurst));
    const double rateDraw = rng.uniform();
    const std::uint64_t latDraw =
        1 + rng.below(static_cast<std::uint64_t>(kMaxLatencySpike));

    FaultAction a;
    a.kind = static_cast<FaultKind>(kindSel);
    a.node = static_cast<std::uint32_t>(node);
    a.side = sideSel == 0 ? LinkSide::Uplink : LinkSide::Downlink;
    a.start = static_cast<sim::SimTime>(start);
    a.duration = static_cast<sim::Duration>(burst);
    switch (a.kind) {
      case FaultKind::LossBurst:
        a.rate = kMaxLossRate * (0.25 + 0.75 * rateDraw);
        break;
      case FaultKind::LinkFlap:
        a.rate = 1.0;
        break;
      case FaultKind::LatencySpike:
        a.extraLatency = static_cast<sim::Duration>(latDraw);
        break;
      case FaultKind::Corruption:
        a.rate = kMaxCorruptRate * (0.25 + 0.75 * rateDraw);
        break;
      case FaultKind::Partition:
        a.side = LinkSide::Both;
        a.rate = 1.0;
        a.duration = kPartitionLength;
        break;
    }
    // Rates pass through the text round-trip on generation too, so a
    // generated plan and its parsed print are byte-for-byte equivalent.
    a.rate = static_cast<double>(rateToMicro(a.rate)) / 1e6;
    plan.actions.push_back(a);
  }
  return plan;
}

FaultPlan FaultPlan::generateChurn(std::uint64_t seed, const ChurnParams& p) {
  FaultPlan plan;
  plan.seed = seed;
  sim::Xoshiro256 rng(seed, "faultchurn");
  const std::uint64_t span =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(p.horizon));
  auto partition = [](std::uint32_t node, sim::SimTime start,
                      sim::Duration dur) {
    FaultAction a;
    a.kind = FaultKind::Partition;
    a.node = node;
    a.side = LinkSide::Both;
    a.start = start;
    a.duration = dur;
    a.rate = 1.0;
    return a;
  };
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    // Flap count: integer part plus a Bernoulli draw on the remainder,
    // so fractional flapsPerNode still averages out across nodes.
    const double whole = std::floor(p.flapsPerNode);
    std::uint32_t flaps = static_cast<std::uint32_t>(whole);
    if (rng.uniform() < p.flapsPerNode - whole) ++flaps;
    for (std::uint32_t f = 0; f < flaps; ++f) {
      const sim::SimTime at =
          p.start + static_cast<sim::SimTime>(rng.below(span));
      // Uniform in (0, 2*mean]: mean meanFlapLen, never zero-length.
      const sim::Duration len =
          1 + static_cast<sim::Duration>(rng.below(std::max<std::uint64_t>(
                  1, 2 * static_cast<std::uint64_t>(p.meanFlapLen))));
      plan.actions.push_back(partition(p.firstNode + n, at, len));
    }
  }
  for (std::uint32_t d = 0; d < p.departs && p.nodes > 0; ++d) {
    const std::uint32_t node = p.firstNode + p.nodes - 1 - (d % p.nodes);
    // Departures open in the middle half of the horizon, so the session
    // is established before the break and the revival fits the run.
    const sim::SimTime at =
        p.start + static_cast<sim::SimTime>(span / 4 + rng.below(span / 2));
    plan.actions.push_back(partition(node, at, p.departLen));
  }
  return plan;
}

std::string FaultPlan::toString() const {
  std::ostringstream os;
  os << "seed=" << seed << '\n';
  for (const FaultAction& a : actions) {
    os << "kind=" << fault::toString(a.kind) << " node=" << a.node
       << " side=" << fault::toString(a.side) << " start=" << a.start
       << " dur=" << a.duration << " rate_ppm=" << rateToMicro(a.rate)
       << " lat=" << a.extraLatency;
    // Emitted only when non-default, so pre-trunk plan strings (and any
    // golden that embeds one) stay byte-identical.
    if (a.target != FaultTarget::HostLink) {
      os << " target=" << fault::toString(a.target);
    }
    os << '\n';
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream toks(line);
    std::string tok;
    FaultAction a;
    bool isAction = false;
    while (toks >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        throw sim::SimError("FaultPlan::parse: bad token '" + tok + "'");
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "seed") {
        plan.seed = std::stoull(val);
      } else if (key == "kind") {
        a.kind = kindFromString(val);
        isAction = true;
      } else if (key == "node") {
        a.node = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "side") {
        a.side = sideFromString(val);
      } else if (key == "start") {
        a.start = std::stoll(val);
      } else if (key == "dur") {
        a.duration = std::stoll(val);
      } else if (key == "rate_ppm") {
        a.rate = static_cast<double>(std::stoull(val)) / 1e6;
      } else if (key == "lat") {
        a.extraLatency = std::stoll(val);
      } else if (key == "target") {
        a.target = targetFromString(val);
      } else {
        throw sim::SimError("FaultPlan::parse: unknown key '" + key + "'");
      }
    }
    if (isAction) plan.actions.push_back(a);
  }
  return plan;
}

}  // namespace vibe::fault
