// Red-black successive over-relaxation on a shared 1-D grid over the DSM
// layer — the canonical TreadMarks-class workload, here running on the
// software distributed shared memory the paper lists as future work (§5,
// and the authors' own ref [7], "Implementing TreadMarks over VIA").
//
// The grid lives in one DsmRegion; each rank sweeps a block of cells.
// Red/black phases plus DSM barriers give a data-race-free schedule; the
// page cache means interior cells are local after the first sweep, and
// only the block-boundary pages move between ranks each iteration.
//
//   $ ./dsm_sor
#include <cmath>
#include <cstdio>
#include <vector>

#include "nic/profiles.hpp"
#include "upper/dsm/dsm.hpp"
#include "vibe/cluster.hpp"

using namespace vibe;
using upper::dsm::DsmConfig;
using upper::dsm::DsmRegion;
using upper::msg::Communicator;

namespace {

constexpr std::uint32_t kRanks = 4;
constexpr std::uint32_t kCells = 512;
constexpr int kSweeps = 12;
constexpr double kOmega = 1.5;

std::uint64_t at(std::uint32_t i) { return i * sizeof(double); }

}  // namespace

int main() {
  suite::ClusterConfig config;
  config.profile = nic::clanProfile();
  config.nodes = kRanks;
  suite::Cluster cluster(config);

  double finalResidual = 0;
  std::uint64_t remoteReads = 0;
  std::uint64_t writeThroughs = 0;

  std::vector<std::function<void(suite::NodeEnv&)>> programs;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    programs.push_back([&, r](suite::NodeEnv& env) {
      auto comm = Communicator::create(env, r, kRanks, {});
      DsmConfig dc;
      dc.pageBytes = 512;  // 64 doubles per page
      auto dsm = DsmRegion::create(*comm, kCells * sizeof(double), dc);

      // Boundary conditions: 100 at both ends, 0 inside (rank 0 writes).
      if (r == 0) {
        dsm->writeDouble(at(0), 100.0);
        dsm->writeDouble(at(kCells - 1), 100.0);
      }
      dsm->barrier();

      const std::uint32_t per = kCells / kRanks;
      const std::uint32_t lo = std::max<std::uint32_t>(1, r * per);
      const std::uint32_t hi =
          std::min<std::uint32_t>(kCells - 1, (r + 1) * per);

      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (const int colour : {0, 1}) {  // red, then black
          for (std::uint32_t i = lo + ((lo % 2) != (unsigned)colour ? 1 : 0);
               i < hi; i += 2) {
            const double left = dsm->readDouble(at(i - 1));
            const double right = dsm->readDouble(at(i + 1));
            const double old = dsm->readDouble(at(i));
            dsm->writeDouble(at(i),
                             (1 - kOmega) * old + kOmega * 0.5 * (left + right));
          }
          dsm->barrier();
        }
      }

      // Residual: distance from the exact linear solution (==100 line).
      double partial = 0;
      for (std::uint32_t i = lo; i < hi; ++i) {
        const double d = dsm->readDouble(at(i)) - 100.0;
        partial += d * d;
      }
      const double total = comm->allreduceSum(partial);
      if (r == 0) {
        finalResidual = std::sqrt(total);
        remoteReads = dsm->remoteReads();
        writeThroughs = dsm->writeThroughs();
      }
      dsm->barrier();
    });
  }
  cluster.run(std::move(programs));

  std::printf("red-black SOR, %u cells on %u ranks, %d sweeps\n", kCells,
              kRanks, kSweeps);
  std::printf("  ||u-100||_2 = %.3f (decreases with more sweeps)\n",
              finalResidual);
  std::printf("  rank 0 DSM traffic: %llu remote page reads, %llu "
              "write-throughs\n",
              static_cast<unsigned long long>(remoteReads),
              static_cast<unsigned long long>(writeThroughs));
  std::printf("  simulated time: %.2f ms\n",
              sim::toUsec(cluster.now()) / 1000.0);
  return 0;
}
