#include "vibe/clientserver.hpp"

#include "vipl/vipl.hpp"

namespace vibe::suite {

namespace {

using vipl::PendingConn;
using vipl::Vi;
using vipl::VipDescriptor;

constexpr std::uint64_t kDiscriminator = 4242;
constexpr sim::Duration kConnTimeout = sim::msec(500);

constexpr vipl::ResultCheck require{"client/server benchmark failed: "};

}  // namespace

ClientServerResult runClientServer(const ClusterConfig& clusterCfg,
                                   const ClientServerConfig& cfg) {
  Cluster cluster(clusterCfg);
  ClientServerResult result;
  const int total = cfg.warmup + cfg.transactions;

  auto client = [&](NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    vipl::VipMemAttributes ma;
    ma.ptag = ptag;
    // Two distinct buffers: one for the request, one for the reply (§3.3.1).
    const mem::VirtAddr reqBuf =
        nic.memory().alloc(cfg.requestBytes, mem::kPageSize);
    const mem::VirtAddr repBuf =
        nic.memory().alloc(cfg.replyBytes, mem::kPageSize);
    mem::MemHandle reqH = 0;
    mem::MemHandle repH = 0;
    require(vipl::VipRegisterMem(nic, reqBuf, cfg.requestBytes, ma, reqH),
            "register request buffer");
    require(vipl::VipRegisterMem(nic, repBuf, cfg.replyBytes, ma, repH),
            "register reply buffer");

    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    require(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi), "create VI");
    require(vipl::VipConnectRequest(nic, vi, {1, kDiscriminator},
                                    kConnTimeout),
            "connect");

    sim::SimTime t0 = 0;
    sim::Duration cpu0 = 0;
    for (int it = 0; it < total; ++it) {
      if (it == cfg.warmup) {
        t0 = env.now();
        cpu0 = env.cpuBusy();
      }
      VipDescriptor recvD = VipDescriptor::recv(repBuf, repH, cfg.replyBytes);
      require(vipl::VipPostRecv(nic, vi, &recvD), "post reply recv");
      VipDescriptor sendD = VipDescriptor::send(reqBuf, reqH,
                                                cfg.requestBytes);
      require(vipl::VipPostSend(nic, vi, &sendD), "post request");
      VipDescriptor* done = nullptr;
      require(nic.pollRecv(vi, done), "poll reply");
      require(nic.pollSend(vi, done), "poll request completion");
    }
    const sim::SimTime t1 = env.now();
    const double elapsedSec = sim::toSec(t1 - t0);
    result.transactionsPerSec = cfg.transactions / elapsedSec;
    result.roundTripUsec = sim::toUsec(t1 - t0) / cfg.transactions;
    result.clientCpuPct = 100.0 *
                          static_cast<double>(env.cpuBusy() - cpu0) /
                          static_cast<double>(t1 - t0);
  };

  auto server = [&](NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    vipl::VipMemAttributes ma;
    ma.ptag = ptag;
    const mem::VirtAddr reqBuf =
        nic.memory().alloc(cfg.requestBytes, mem::kPageSize);
    const mem::VirtAddr repBuf =
        nic.memory().alloc(cfg.replyBytes, mem::kPageSize);
    mem::MemHandle reqH = 0;
    mem::MemHandle repH = 0;
    require(vipl::VipRegisterMem(nic, reqBuf, cfg.requestBytes, ma, reqH),
            "register request buffer");
    require(vipl::VipRegisterMem(nic, repBuf, cfg.replyBytes, ma, repH),
            "register reply buffer");

    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    require(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi), "create VI");
    VipDescriptor first = VipDescriptor::recv(reqBuf, reqH, cfg.requestBytes);
    require(vipl::VipPostRecv(nic, vi, &first), "prepost request recv");

    PendingConn conn;
    require(vipl::VipConnectWait(nic, {1, kDiscriminator}, kConnTimeout,
                                 conn),
            "connect wait");
    require(vipl::VipConnectAccept(nic, conn, vi), "accept");

    sim::SimTime t0 = 0;
    sim::Duration cpu0 = 0;
    // Posted at iteration `it`, reaped by the pollRecv at the top of
    // `it + 1` — must outlive the loop body.
    VipDescriptor recvD;
    for (int it = 0; it < total; ++it) {
      VipDescriptor* done = nullptr;
      require(nic.pollRecv(vi, done), "poll request");
      if (it == cfg.warmup) {
        t0 = env.now();
        cpu0 = env.cpuBusy();
      }
      recvD = VipDescriptor::recv(reqBuf, reqH, cfg.requestBytes);
      if (it + 1 < total) {
        require(vipl::VipPostRecv(nic, vi, &recvD), "repost request recv");
      }
      VipDescriptor sendD = VipDescriptor::send(repBuf, repH, cfg.replyBytes);
      require(vipl::VipPostSend(nic, vi, &sendD), "post reply");
      require(nic.pollSend(vi, done), "poll reply completion");
    }
    const sim::SimTime t1 = env.now();
    result.serverCpuPct = 100.0 *
                          static_cast<double>(env.cpuBusy() - cpu0) /
                          static_cast<double>(t1 - t0);
  };

  cluster.run({client, server});
  return result;
}

}  // namespace vibe::suite
