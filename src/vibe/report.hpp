// One-call survey of a VIA implementation: runs a condensed pass over all
// three VIBe categories against one NicProfile and renders a report.
// This is the library face of the suite — the per-figure bench binaries
// regenerate the paper's tables, an application calls runSurvey() to grade
// a new implementation model.
#pragma once

#include <string>
#include <vector>

#include "nic/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "vibe/clientserver.hpp"
#include "vibe/datatransfer.hpp"
#include "vibe/nondata.hpp"

namespace vibe::suite {

struct SurveyOptions {
  std::vector<std::uint64_t> messageSizes{4, 1024, 8192, 28672};
  std::vector<std::uint32_t> replySizes{16, 1024, 16384};
  int iterations = 100;
  int warmup = 20;
  /// Sizes for the registration probe.
  std::vector<std::uint64_t> regSizes{4096, 65536, 1 << 20};
  /// Message size at which the one-component probes run.
  std::uint64_t probeBytes = 4096;
};

struct SurveyResult {
  std::string implementation;
  NonDataResult nonData;
  std::vector<MemCostPoint> memCosts;

  struct TransferPoint {
    std::uint64_t bytes = 0;
    double latencyPollUsec = 0;
    double latencyBlockUsec = 0;
    double bandwidthMBps = 0;
    double blockRecvCpuPct = 0;
  };
  std::vector<TransferPoint> transfers;

  /// One-component-at-a-time deltas over the base latency at probeBytes.
  double baseLatencyUsec = 0;
  double cqOverheadUsec = 0;        // completion queue
  double noReuseOverheadUsec = 0;   // 0% buffer reuse
  double multiViOverheadUsec = 0;   // 16 active VIs
  double notifyOverheadUsec = 0;    // async handler vs polling
  bool rdmaWriteSupported = false;
  double rdmaLatencyDeltaUsec = 0;  // RDMA write minus send/recv (if any)

  struct TransactionPoint {
    std::uint32_t replyBytes = 0;
    double transactionsPerSec = 0;
    double roundTripUsec = 0;
  };
  std::vector<TransactionPoint> transactions;
};

/// Runs the condensed suite against one implementation model.
SurveyResult runSurvey(const nic::NicProfile& profile,
                       const SurveyOptions& options = {});

/// Renders a human-readable report.
std::string renderSurvey(const SurveyResult& result);

/// Renders the registry as a stats appendix (the VIBE_STATS=1 output
/// appended after a suite run). Empty string when the registry recorded
/// nothing.
std::string renderStatsAppendix(const obs::MetricsRegistry& metrics);

/// Renders the span profiler's per-stage latency attribution table.
std::string renderStageAttribution(const obs::SpanProfiler& spans);

}  // namespace vibe::suite
