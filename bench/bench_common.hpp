// Shared helpers for the VIBe bench binaries: the three paper profiles,
// paper-reference printing, and result assembly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "obs/metrics.hpp"
#include "vibe/cluster.hpp"
#include "vibe/report.hpp"
#include "vibe/results.hpp"

namespace vibe::bench {

struct NamedProfile {
  std::string shortName;
  nic::NicProfile profile;
};

inline std::vector<NamedProfile> paperProfiles() {
  return {{"mvia", nic::mviaProfile()},
          {"bvia", nic::bviaProfile()},
          {"clan", nic::clanProfile()}};
}

/// True when a stats appendix was requested (VIBE_STATS=1).
inline bool statsRequested() {
  const char* v = std::getenv("VIBE_STATS");
  return v != nullptr && v[0] == '1';
}

/// VIBE_METRICS_OUT destination for the final-registry JSON dump, or
/// nullptr when unset/empty.
inline const char* metricsOutPath() {
  const char* v = std::getenv("VIBE_METRICS_OUT");
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

/// True when the benchmark clusters should publish into statsRegistry():
/// either the stdout appendix (VIBE_STATS=1) or the JSON dump
/// (VIBE_METRICS_OUT=<path>) was requested.
inline bool statsAttached() {
  return statsRequested() || metricsOutPath() != nullptr;
}

/// Process-wide registry the benchmark clusters publish into when stats
/// are requested. Owned here so every cluster built via clusterFor()
/// accumulates into one appendix.
inline obs::MetricsRegistry& statsRegistry() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Installs the end-of-run appendix printer and, when VIBE_METRICS_OUT
/// is set, the final-registry schema-2 JSON dump (idempotent).
inline void installStatsAppendix() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  // Construct the registry static BEFORE registering the atexit handler:
  // handlers and static destructors unwind together in reverse order, so
  // the handler must come later to still find the registry alive.
  statsRegistry();
  std::atexit([] {
    if (statsRequested()) {
      const std::string appendix =
          suite::renderStatsAppendix(statsRegistry());
      if (!appendix.empty()) std::printf("%s", appendix.c_str());
    }
    if (const char* path = metricsOutPath()) {
      const std::string body = obs::renderMetricsJson(statsRegistry());
      if (std::FILE* f = std::fopen(path, "w")) {
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "VIBE_METRICS_OUT: cannot open %s\n", path);
      }
    }
  });
}

inline suite::ClusterConfig clusterFor(const nic::NicProfile& p,
                                       std::uint32_t nodes = 2) {
  suite::ClusterConfig c;
  c.profile = p;
  c.nodes = nodes;
  if (statsAttached()) {
    c.metrics = &statsRegistry();
    installStatsAppendix();
  }
  return c;
}

/// Sweep-point variant of clusterFor: publishes into the point's private
/// registry (set exactly when stats were requested via sweepOptions())
/// instead of the shared process-wide one, so points can run on worker
/// threads without racing on statsRegistry(). The harness merges the
/// per-point registries into statsRegistry() in index order afterwards.
inline suite::ClusterConfig clusterFor(const nic::NicProfile& p,
                                       std::uint32_t nodes,
                                       const harness::PointEnv& env) {
  suite::ClusterConfig c;
  c.profile = p;
  c.nodes = nodes;
  c.metrics = env.metrics;
  return c;
}

/// Options for harness::runSweep in a bench driver: when stats are
/// requested, arms the appendix printer and routes the per-point
/// registries into statsRegistry().
inline harness::SweepOptions sweepOptions() {
  harness::SweepOptions opts;
  if (statsAttached()) {
    installStatsAppendix();
    opts.mergeInto = &statsRegistry();
  }
  return opts;
}

/// Prints a table; with VIBE_CSV=1 in the environment, also emits the
/// machine-readable CSV block (for plotting scripts), and with VIBE_JSON=1
/// a one-line JSON block (for trajectory/regression tooling).
inline void emit(const suite::ResultTable& table, int precision = 2) {
  std::printf("%s\n", table.renderText(precision).c_str());
  const char* csv = std::getenv("VIBE_CSV");
  if (csv != nullptr && csv[0] == '1') {
    std::printf("--- csv: %s ---\n%s--- end csv ---\n\n",
                table.title().c_str(), table.renderCsv().c_str());
  }
  const char* json = std::getenv("VIBE_JSON");
  if (json != nullptr && json[0] == '1') {
    std::printf("--- json: %s ---\n%s\n--- end json ---\n\n",
                table.title().c_str(), table.renderJson().c_str());
  }
}

inline void printHeader(const std::string& what, const std::string& paperRef) {
  std::printf("\n############################################################\n");
  std::printf("# VIBe reproduction: %s\n", what.c_str());
  std::printf("# Paper reference: %s\n", paperRef.c_str());
  std::printf("############################################################\n");
}

}  // namespace vibe::bench
