#include "vibe/datatransfer.hpp"

#include <algorithm>

#include "simcore/stats.hpp"
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "vipl/vipl.hpp"

namespace vibe::suite {

namespace {

using vipl::Cq;
using vipl::PendingConn;
using vipl::Provider;
using vipl::Vi;
using vipl::VipDescriptor;

constexpr std::uint64_t kDiscriminator = 7;
constexpr sim::Duration kConnTimeout = sim::msec(500);
constexpr sim::Duration kWaitForever = -1;

constexpr vipl::ResultCheck require{"VIBe setup failed: "};

/// Everything one side sets up before the measurement loop.
struct Side {
  Provider* nic = nullptr;
  NodeEnv* env = nullptr;
  mem::PtagId ptag = 0;
  Cq* cq = nullptr;
  Vi* vi = nullptr;
  std::vector<Vi*> extras;
  std::vector<mem::VirtAddr> bufs;
  std::vector<mem::MemHandle> handles;
  int poolCursor = 0;
};

/// Cross-node info exchanged out of band by the harness (what a real
/// benchmark would ship in its first message): RDMA target addresses.
struct SharedSetup {
  mem::VirtAddr rdmaTarget[2] = {0, 0};
  mem::MemHandle rdmaHandle[2] = {0, 0};
};

void setupSide(Side& s, NodeEnv& env, const TransferConfig& cfg) {
  s.env = &env;
  s.nic = &env.nic;
  Provider& nic = *s.nic;
  s.ptag = vipl::VipCreatePtag(nic);

  // Buffer pool: page-aligned so translation behaviour is deterministic.
  const int pool = std::max(1, cfg.bufferPool);
  const std::uint64_t len = std::max<std::uint64_t>(cfg.msgBytes, 4);
  s.bufs.resize(pool);
  s.handles.resize(pool);
  vipl::VipMemAttributes ma;
  ma.ptag = s.ptag;
  ma.enableRdmaWrite = cfg.useRdmaWrite;
  for (int i = 0; i < pool; ++i) {
    s.bufs[i] = nic.memory().alloc(len, mem::kPageSize);
    require(vipl::VipRegisterMem(nic, s.bufs[i], len, ma, s.handles[i]),
            "register buffer");
  }

  if (cfg.reap == ReapMode::PollCq || cfg.reap == ReapMode::BlockCq) {
    require(vipl::VipCreateCQ(nic, 512, s.cq), "create CQ");
  }

  vipl::VipViAttributes va;
  va.reliabilityLevel = cfg.reliability;
  va.ptag = s.ptag;
  va.enableRdmaWrite = cfg.useRdmaWrite;
  if (cfg.maxTransferSize != 0) va.maxTransferSize = cfg.maxTransferSize;

  // Extra idle VIs first, so the firmware scans them during the test.
  for (int i = 0; i < cfg.extraVis; ++i) {
    Vi* extra = nullptr;
    require(vipl::VipCreateVi(nic, va, nullptr, nullptr, extra), "extra VI");
    s.extras.push_back(extra);
  }
  require(vipl::VipCreateVi(nic, va, nullptr, s.cq, s.vi), "create VI");
}

/// Deterministic buffer choice implementing the reuse percentage.
int pickBuffer(Side& s, const TransferConfig& cfg, int iteration) {
  if (cfg.bufferPool <= 1 || cfg.reusePercent >= 100) return 0;
  if ((iteration % 100) < cfg.reusePercent) return 0;
  const int rotating = static_cast<int>(s.bufs.size()) - 1;
  const int idx = 1 + (s.poolCursor % std::max(1, rotating));
  ++s.poolCursor;
  return idx;
}

/// Builds the send-side descriptor for iteration buffer `b`.
VipDescriptor makeSendDesc(const Side& s, const TransferConfig& cfg, int b,
                           const SharedSetup& shared, std::uint32_t peer) {
  const auto bytes = static_cast<std::uint32_t>(cfg.msgBytes);
  if (cfg.useRdmaWrite) {
    VipDescriptor d = VipDescriptor::rdmaWrite(
        s.bufs[b], s.handles[b], bytes, shared.rdmaTarget[peer],
        shared.rdmaHandle[peer]);
    d.cs.control |= vipl::VIP_CONTROL_IMMEDIATE;  // consume a recv descriptor
    d.cs.immediateData = 0xC0FFEE;
    return d;
  }
  VipDescriptor d = VipDescriptor::send(s.bufs[b], s.handles[b], bytes);
  if (cfg.dataSegments > 1) {
    d.ds.clear();
    const std::uint32_t segs = cfg.dataSegments;
    std::uint32_t off = 0;
    for (std::uint32_t i = 0; i < segs; ++i) {
      const std::uint32_t chunk =
          (bytes / segs) + (i < bytes % segs ? 1 : 0);
      d.ds.push_back({s.bufs[b] + off, s.handles[b], chunk});
      off += chunk;
    }
    d.cs.segCount = static_cast<std::uint16_t>(d.ds.size());
  }
  return d;
}

VipDescriptor makeRecvDesc(const Side& s, const TransferConfig& cfg, int b) {
  const auto bytes = static_cast<std::uint32_t>(cfg.msgBytes);
  VipDescriptor d = VipDescriptor::recv(s.bufs[b], s.handles[b], bytes);
  if (cfg.dataSegments > 1) {
    d.ds.clear();
    const std::uint32_t segs = cfg.dataSegments;
    std::uint32_t off = 0;
    for (std::uint32_t i = 0; i < segs; ++i) {
      const std::uint32_t chunk = (bytes / segs) + (i < bytes % segs ? 1 : 0);
      d.ds.push_back({s.bufs[b] + off, s.handles[b], chunk});
      off += chunk;
    }
    d.cs.segCount = static_cast<std::uint16_t>(d.ds.size());
  }
  return d;
}

/// Reaps one receive completion according to the configured mode.
void reapRecv(Side& s, const TransferConfig& cfg) {
  Provider& nic = *s.nic;
  VipDescriptor* done = nullptr;
  switch (cfg.reap) {
    case ReapMode::Poll:
      require(nic.pollRecv(s.vi, done), "poll recv");
      return;
    case ReapMode::Block:
      require(nic.recvWait(s.vi, kWaitForever, done), "recv wait");
      return;
    case ReapMode::PollCq: {
      Vi* vi = nullptr;
      bool isRecv = false;
      require(nic.pollCq(s.cq, vi, isRecv), "poll CQ");
      require(nic.recvDone(vi, done), "recv done after CQ");
      return;
    }
    case ReapMode::BlockCq: {
      Vi* vi = nullptr;
      bool isRecv = false;
      require(nic.cqWait(s.cq, kWaitForever, vi, isRecv), "CQ wait");
      require(nic.recvDone(vi, done), "recv done after CQ");
      return;
    }
    case ReapMode::Notify: {
      // One-shot handler fires in interrupt context and wakes us.
      auto signal = std::make_shared<sim::Signal>(s.env->engine);
      require(nic.recvNotify(s.vi,
                             [signal](VipDescriptor*) { signal->notifyAll(); }),
              "recv notify");
      s.env->self.await(*signal);
      return;
    }
  }
}

/// Reaps one send completion (always cheap poll/wait matching the mode).
void reapSend(Side& s, const TransferConfig& cfg) {
  Provider& nic = *s.nic;
  VipDescriptor* done = nullptr;
  if (cfg.reap == ReapMode::Block || cfg.reap == ReapMode::BlockCq) {
    require(nic.sendWait(s.vi, kWaitForever, done), "send wait");
  } else {
    require(nic.pollSend(s.vi, done), "poll send");
  }
}

}  // namespace

TransferResult runPingPong(const ClusterConfig& clusterCfg,
                           const TransferConfig& cfg) {
  if (cfg.useRdmaWrite && !clusterCfg.profile.supportsRdmaWrite) {
    TransferResult r;
    r.supported = false;
    return r;
  }
  if (cfg.pingSrc == cfg.pingDst || cfg.pingSrc >= clusterCfg.nodes ||
      cfg.pingDst >= clusterCfg.nodes) {
    throw sim::SimError("runPingPong: invalid pingSrc/pingDst pair");
  }
  Cluster cluster(clusterCfg);
  TransferResult result;
  SharedSetup shared;
  const int total = cfg.warmup + cfg.iterations;

  auto initiator = [&](NodeEnv& env) {
    Side s;
    setupSide(s, env, cfg);
    shared.rdmaTarget[0] = s.bufs[0];
    shared.rdmaHandle[0] = s.handles[0];

    require(vipl::VipConnectRequest(*s.nic, s.vi,
                                    {cfg.pingDst, kDiscriminator},
                                    kConnTimeout),
            "connect");
    sim::SimTime t0 = 0;
    sim::Duration cpu0 = 0;
    sim::QuantileTracker perIteration(cfg.iterations);
    sim::SimTime iterStart = 0;
    // Persistent descriptors, rebuilt per iteration (buffers may rotate).
    for (int it = 0; it < total; ++it) {
      if (it == cfg.warmup) {
        t0 = env.now();
        cpu0 = env.cpuBusy();
      }
      iterStart = env.now();
      const int b = pickBuffer(s, cfg, it);
      VipDescriptor recvD = makeRecvDesc(s, cfg, b);
      require(vipl::VipPostRecv(*s.nic, s.vi, &recvD), "post recv");
      VipDescriptor sendD = makeSendDesc(s, cfg, b, shared, 1);
      require(vipl::VipPostSend(*s.nic, s.vi, &sendD), "post send");
      if (cfg.measureSendCompletion) {
        const sim::SimTime posted = env.now();
        reapSend(s, cfg);
        if (it >= cfg.warmup) {
          result.sendCompletionUsec += sim::toUsec(env.now() - posted);
        }
        reapRecv(s, cfg);
      } else {
        reapRecv(s, cfg);
        reapSend(s, cfg);
      }
      if (it >= cfg.warmup) {
        perIteration.add(sim::toUsec(env.now() - iterStart) / 2.0);
      }
    }
    result.sendCompletionUsec /= cfg.iterations;
    result.latencyP50Usec = perIteration.median();
    result.latencyP99Usec = perIteration.quantile(0.99);
    result.latencyMaxUsec = perIteration.quantile(1.0);
    const sim::SimTime t1 = env.now();
    const sim::Duration cpu1 = env.cpuBusy();
    const double elapsed = sim::toUsec(t1 - t0);
    result.latencyUsec = elapsed / (2.0 * cfg.iterations);
    result.senderCpuPct =
        100.0 * static_cast<double>(cpu1 - cpu0) / static_cast<double>(t1 - t0);
  };

  auto responder = [&](NodeEnv& env) {
    Side s;
    setupSide(s, env, cfg);
    shared.rdmaTarget[1] = s.bufs[0];
    shared.rdmaHandle[1] = s.handles[0];

    // Prepost the first receive before accepting, so the initiator's first
    // message always finds a descriptor.
    VipDescriptor first = makeRecvDesc(s, cfg, pickBuffer(s, cfg, 0));
    s.poolCursor = 0;  // pickBuffer above was a dry run for iteration 0
    require(vipl::VipPostRecv(*s.nic, s.vi, &first), "prepost recv");

    PendingConn conn;
    require(vipl::VipConnectWait(*s.nic, {cfg.pingDst, kDiscriminator},
                                 kConnTimeout, conn),
            "connect wait");
    require(vipl::VipConnectAccept(*s.nic, conn, s.vi), "accept");

    sim::SimTime t0 = 0;
    sim::Duration cpu0 = 0;
    // Posted at iteration `it` but only reaped at the top of `it + 1`, so
    // this descriptor must outlive the loop body.
    VipDescriptor recvD;
    for (int it = 0; it < total; ++it) {
      reapRecv(s, cfg);
      if (it == cfg.warmup) {
        t0 = env.now();
        cpu0 = env.cpuBusy();
      }
      const int b = pickBuffer(s, cfg, it + 1);
      recvD = makeRecvDesc(s, cfg, b);
      if (it + 1 < total) {
        require(vipl::VipPostRecv(*s.nic, s.vi, &recvD), "repost recv");
      }
      VipDescriptor sendD =
          makeSendDesc(s, cfg, pickBuffer(s, cfg, it), shared, 0);
      require(vipl::VipPostSend(*s.nic, s.vi, &sendD), "post reply");
      reapSend(s, cfg);
    }
    const sim::SimTime t1 = env.now();
    const sim::Duration cpu1 = env.cpuBusy();
    result.receiverCpuPct =
        100.0 * static_cast<double>(env.cpuBusy() - cpu0) /
        static_cast<double>(t1 - t0);
    (void)cpu1;
  };

  // Program i runs on node i; unused nodes get no program. The default
  // pair (0, 1) reduces to the classic {initiator, responder} run.
  std::vector<std::function<void(NodeEnv&)>> programs(
      std::max(cfg.pingSrc, cfg.pingDst) + 1);
  programs[cfg.pingSrc] = initiator;
  programs[cfg.pingDst] = responder;
  cluster.run(std::move(programs));
  return result;
}

TransferResult runBandwidth(const ClusterConfig& clusterCfg,
                            const TransferConfig& cfg) {
  if (cfg.useRdmaWrite && !clusterCfg.profile.supportsRdmaWrite) {
    TransferResult r;
    r.supported = false;
    return r;
  }
  Cluster cluster(clusterCfg);
  TransferResult result;
  SharedSetup shared;
  const int burst = cfg.burst;

  auto sender = [&](NodeEnv& env) {
    Side s;
    setupSide(s, env, cfg);
    shared.rdmaTarget[0] = s.bufs[0];
    shared.rdmaHandle[0] = s.handles[0];
    Provider& nic = *s.nic;

    // Control buffer for the receiver's GO / final ACK messages.
    mem::VirtAddr ctrl = nic.memory().alloc(8, mem::kPageSize);
    mem::MemHandle ctrlH = 0;
    vipl::VipMemAttributes ma;
    ma.ptag = s.ptag;
    require(vipl::VipRegisterMem(nic, ctrl, 8, ma, ctrlH), "register ctrl");
    VipDescriptor goD = VipDescriptor::recv(ctrl, ctrlH, 4);
    VipDescriptor ackD = VipDescriptor::recv(ctrl + 4, ctrlH, 4);
    require(vipl::VipPostRecv(nic, s.vi, &goD), "post go recv");
    require(vipl::VipPostRecv(nic, s.vi, &ackD), "post ack recv");

    require(vipl::VipConnectRequest(nic, s.vi, {1, kDiscriminator},
                                    kConnTimeout),
            "connect");
    reapRecv(s, cfg);  // GO

    const sim::SimTime t0 = env.now();
    const sim::Duration cpu0 = env.cpuBusy();
    std::vector<std::unique_ptr<VipDescriptor>> descs;
    descs.reserve(burst);
    const int depth = cfg.pipelineDepth > 0 ? cfg.pipelineDepth : burst;
    int posted = 0;
    int reaped = 0;
    while (reaped < burst) {
      while (posted < burst && posted - reaped < depth) {
        const int b = pickBuffer(s, cfg, posted);
        descs.push_back(std::make_unique<VipDescriptor>(
            makeSendDesc(s, cfg, b, shared, 1)));
        require(vipl::VipPostSend(nic, s.vi, descs.back().get()),
                "post burst send");
        ++posted;
      }
      reapSend(s, cfg);
      ++reaped;
    }
    reapRecv(s, cfg);  // final ACK
    const sim::SimTime t1 = env.now();
    const double seconds = sim::toSec(t1 - t0);
    result.bandwidthMBps = static_cast<double>(cfg.msgBytes) * burst /
                           (seconds * 1e6);
    result.senderCpuPct = 100.0 *
                          static_cast<double>(env.cpuBusy() - cpu0) /
                          static_cast<double>(t1 - t0);
  };

  auto receiver = [&](NodeEnv& env) {
    Side s;
    setupSide(s, env, cfg);
    shared.rdmaTarget[1] = s.bufs[0];
    shared.rdmaHandle[1] = s.handles[0];
    Provider& nic = *s.nic;

    mem::VirtAddr ctrl = nic.memory().alloc(8, mem::kPageSize);
    mem::MemHandle ctrlH = 0;
    vipl::VipMemAttributes ma;
    ma.ptag = s.ptag;
    require(vipl::VipRegisterMem(nic, ctrl, 8, ma, ctrlH), "register ctrl");

    // Prepost the entire burst before releasing the sender.
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    recvs.reserve(burst);
    for (int i = 0; i < burst; ++i) {
      const int b = pickBuffer(s, cfg, i);
      recvs.push_back(
          std::make_unique<VipDescriptor>(makeRecvDesc(s, cfg, b)));
      require(vipl::VipPostRecv(nic, s.vi, recvs.back().get()),
              "prepost burst recv");
    }

    PendingConn conn;
    require(vipl::VipConnectWait(nic, {1, kDiscriminator}, kConnTimeout, conn),
            "connect wait");
    require(vipl::VipConnectAccept(nic, conn, s.vi), "accept");

    VipDescriptor goD = VipDescriptor::send(ctrl, ctrlH, 4);
    require(vipl::VipPostSend(nic, s.vi, &goD), "send GO");
    reapSend(s, cfg);
    const sim::SimTime t0 = env.now();
    const sim::Duration cpu0 = env.cpuBusy();
    for (int i = 0; i < burst; ++i) reapRecv(s, cfg);
    VipDescriptor ackD = VipDescriptor::send(ctrl + 4, ctrlH, 4);
    require(vipl::VipPostSend(nic, s.vi, &ackD), "send ACK");
    reapSend(s, cfg);
    const sim::SimTime t1 = env.now();
    result.receiverCpuPct = 100.0 *
                            static_cast<double>(env.cpuBusy() - cpu0) /
                            static_cast<double>(t1 - t0);
  };

  cluster.run({sender, receiver});
  return result;
}

}  // namespace vibe::suite
