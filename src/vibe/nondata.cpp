#include "vibe/nondata.hpp"

#include "vipl/vipl.hpp"

namespace vibe::suite {

namespace {

using vipl::Cq;
using vipl::PendingConn;
using vipl::Vi;

constexpr std::uint64_t kDiscriminator = 99;
constexpr sim::Duration kConnTimeout = sim::msec(500);
constexpr int kIterations = 50;        // create/destroy averaging count
constexpr int kConnectIterations = 8;  // connect/teardown averaging count

constexpr vipl::ResultCheck require{"non-data benchmark failed: "};

}  // namespace

NonDataResult runNonData(const ClusterConfig& clusterCfg) {
  Cluster cluster(clusterCfg);
  NonDataResult result;

  auto client = [&](NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;

    // --- VI create / destroy ---
    std::vector<Vi*> vis(kIterations, nullptr);
    sim::SimTime t0 = env.now();
    for (int i = 0; i < kIterations; ++i) {
      require(vipl::VipCreateVi(nic, va, nullptr, nullptr, vis[i]),
              "create VI");
    }
    result.createVi = sim::toUsec(env.now() - t0) / kIterations;
    t0 = env.now();
    for (int i = 0; i < kIterations; ++i) {
      require(vipl::VipDestroyVi(nic, vis[i]), "destroy VI");
    }
    result.destroyVi = sim::toUsec(env.now() - t0) / kIterations;

    // --- CQ create / destroy ---
    std::vector<Cq*> cqs(kIterations, nullptr);
    t0 = env.now();
    for (int i = 0; i < kIterations; ++i) {
      require(vipl::VipCreateCQ(nic, 64, cqs[i]), "create CQ");
    }
    result.createCq = sim::toUsec(env.now() - t0) / kIterations;
    t0 = env.now();
    for (int i = 0; i < kIterations; ++i) {
      require(vipl::VipDestroyCQ(nic, cqs[i]), "destroy CQ");
    }
    result.destroyCq = sim::toUsec(env.now() - t0) / kIterations;

    // --- connection establish / teardown ---
    double connectTotal = 0;
    double teardownTotal = 0;
    for (int i = 0; i < kConnectIterations; ++i) {
      Vi* vi = nullptr;
      require(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi), "conn VI");
      const sim::SimTime c0 = env.now();
      require(vipl::VipConnectRequest(nic, vi, {1, kDiscriminator},
                                      kConnTimeout),
              "connect");
      connectTotal += sim::toUsec(env.now() - c0);
      const sim::SimTime d0 = env.now();
      require(vipl::VipDisconnect(nic, vi), "disconnect");
      teardownTotal += sim::toUsec(env.now() - d0);
      require(vipl::VipDestroyVi(nic, vi), "destroy conn VI");
    }
    result.connect = connectTotal / kConnectIterations;
    result.teardown = teardownTotal / kConnectIterations;
  };

  auto server = [&](NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    for (int i = 0; i < kConnectIterations; ++i) {
      Vi* vi = nullptr;
      require(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi), "server VI");
      PendingConn conn;
      require(vipl::VipConnectWait(nic, {1, kDiscriminator},
                                   sim::kSecond, conn),
              "connect wait");
      require(vipl::VipConnectAccept(nic, conn, vi), "accept");
      // Wait for the client's disconnect, then recycle the VI.
      while (vi->state() == vipl::ViState::Connected) {
        env.self.advance(sim::usec(50), sim::CpuUse::Idle);
      }
      require(vipl::VipDestroyVi(nic, vi), "server destroy VI");
    }
  };

  cluster.run({client, server});
  return result;
}

std::vector<MemCostPoint> runMemCostSweep(
    const ClusterConfig& clusterCfg, const std::vector<std::uint64_t>& sizes,
    int repeats) {
  ClusterConfig oneNode = clusterCfg;
  oneNode.nodes = std::max(1u, oneNode.nodes);
  Cluster cluster(oneNode);
  std::vector<MemCostPoint> points;

  auto program = [&](NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    vipl::VipMemAttributes ma;
    ma.ptag = ptag;
    for (const std::uint64_t size : sizes) {
      MemCostPoint p;
      p.bytes = size;
      for (int r = 0; r < repeats; ++r) {
        const mem::VirtAddr va = nic.memory().alloc(size, mem::kPageSize);
        mem::MemHandle handle = 0;
        sim::SimTime t0 = env.now();
        require(vipl::VipRegisterMem(nic, va, size, ma, handle),
                "register mem");
        p.registerUs += sim::toUsec(env.now() - t0);
        t0 = env.now();
        require(vipl::VipDeregisterMem(nic, handle), "deregister mem");
        p.deregisterUs += sim::toUsec(env.now() - t0);
      }
      p.registerUs /= repeats;
      p.deregisterUs /= repeats;
      points.push_back(p);
    }
  };

  cluster.run({program});
  return points;
}

}  // namespace vibe::suite
