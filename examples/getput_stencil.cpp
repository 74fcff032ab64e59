// 1-D Jacobi heat diffusion with one-sided halo exchange — the get/put /
// distributed-shared-memory scenario from the paper's §5 future work.
//
// Each of four ranks owns a block of cells in a get/put Window and, per
// iteration, puts its boundary cells into its neighbours' halo slots and
// fences. On the cLAN model the puts are true RDMA writes; on the BVIA
// model (no RDMA) the same program transparently uses the emulated
// active-message path — the capability difference VIBe's RDMA benchmark
// exposes, visible here as put-path statistics.
//
//   $ ./getput_stencil
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "nic/profiles.hpp"
#include "upper/getput/window.hpp"
#include "vibe/cluster.hpp"

using namespace vibe;
using upper::getput::Window;
using upper::getput::WindowConfig;
using upper::msg::Communicator;

namespace {

constexpr std::uint32_t kRanks = 4;
constexpr std::size_t kCells = 256;   // interior cells per rank
constexpr int kIterations = 50;

// Window layout (doubles): [0] left halo | [1..kCells] cells | [kCells+1]
// right halo.
constexpr std::uint64_t kLeftHalo = 0;
constexpr std::uint64_t kCellsOff = sizeof(double);
constexpr std::uint64_t kRightHalo = (kCells + 1) * sizeof(double);

std::span<const std::byte> bytesOf(const double& v) {
  return {reinterpret_cast<const std::byte*>(&v), sizeof(double)};
}

}  // namespace

int main() {
  for (const auto* profileName : {"clan", "bvia"}) {
    suite::ClusterConfig config;
    config.profile = nic::profileByName(profileName);
    config.nodes = kRanks;
    suite::Cluster cluster(config);

    double residual = 0;
    std::uint64_t rdmaPuts = 0;
    std::uint64_t emulatedPuts = 0;
    std::vector<std::function<void(suite::NodeEnv&)>> programs;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      programs.push_back([&, r](suite::NodeEnv& env) {
        auto comm = Communicator::create(env, r, kRanks, {});
        WindowConfig wc;
        wc.windowBytes = (kCells + 2) * sizeof(double);
        auto win = Window::create(*comm, wc);

        // Initial condition: a hot spike at the global left edge.
        std::vector<double> u(kCells, 0.0);
        if (r == 0) u[0] = 1000.0;
        auto writeCells = [&] {
          win->writeLocal(kCellsOff,
                          std::as_bytes(std::span<const double>(u)));
        };
        writeCells();
        win->fence();

        for (int it = 0; it < kIterations; ++it) {
          // Publish boundary cells into the neighbours' halos (fixed
          // boundary at the global edges).
          if (r > 0) win->put(r - 1, kRightHalo, bytesOf(u.front()));
          if (r + 1 < kRanks) win->put(r + 1, kLeftHalo, bytesOf(u.back()));
          win->fence();

          double left = (r == 0) ? 1000.0 : 0.0;
          double right = 0.0;
          auto halo = win->readLocal(kLeftHalo, sizeof(double));
          if (r > 0) std::memcpy(&left, halo.data(), sizeof(double));
          halo = win->readLocal(kRightHalo, sizeof(double));
          if (r + 1 < kRanks) std::memcpy(&right, halo.data(), sizeof(double));

          // Jacobi sweep.
          std::vector<double> next(kCells);
          for (std::size_t i = 0; i < kCells; ++i) {
            const double lo = (i == 0) ? left : u[i - 1];
            const double hi = (i == kCells - 1) ? right : u[i + 1];
            next[i] = 0.5 * (lo + hi);
          }
          u.swap(next);
          writeCells();
          win->fence();
        }

        const double partial =
            std::inner_product(u.begin(), u.end(), u.begin(), 0.0);
        const double total = comm->allreduceSum(partial);
        if (r == 0) {
          residual = std::sqrt(total);
          rdmaPuts = win->rdmaPuts();
          emulatedPuts = win->emulatedPuts();
        }
      });
    }
    cluster.run(std::move(programs));

    std::printf(
        "%-6s: ||u||_2 after %d sweeps = %.4f   puts: %llu RDMA, %llu "
        "emulated   (%.2f simulated ms)\n",
        profileName, kIterations, residual,
        static_cast<unsigned long long>(rdmaPuts),
        static_cast<unsigned long long>(emulatedPuts),
        sim::toUsec(cluster.now()) / 1000.0);
  }
  std::printf("both models compute identical physics; only the transport "
              "path differs\n");
  return 0;
}
