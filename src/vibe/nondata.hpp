// Non-data-transfer micro-benchmarks (paper §3.1 / Table 1, Figs. 1-2):
// VI create/destroy, connection establish/teardown, CQ create/destroy, and
// the memory registration/deregistration cost sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "vibe/cluster.hpp"

namespace vibe::suite {

/// All costs in microseconds (Table 1 layout).
struct NonDataResult {
  double createVi = 0;
  double destroyVi = 0;
  double connect = 0;
  double teardown = 0;
  double createCq = 0;
  double destroyCq = 0;
};

/// Averages 50 create/destroy pairs and 8 connect/teardown dialogs.
NonDataResult runNonData(const ClusterConfig& cluster);

/// Memory registration / deregistration cost (µs) for each buffer length.
struct MemCostPoint {
  std::uint64_t bytes = 0;
  double registerUs = 0;
  double deregisterUs = 0;
};

std::vector<MemCostPoint> runMemCostSweep(
    const ClusterConfig& cluster, const std::vector<std::uint64_t>& sizes,
    int repeats = 8);

}  // namespace vibe::suite
