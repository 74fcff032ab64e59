// End-to-end tests of the VIPL provider over the simulated fabric: data
// integrity, spec semantics (states, errors, protection), CQs, immediate
// data, RDMA, notify handlers, and connection management — across all
// three NIC implementation models.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using vipl::Cq;
using vipl::PendingConn;
using vipl::Provider;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;
using vipl::ViState;

constexpr sim::Duration kTimeout = sim::kSecond;
constexpr std::uint64_t kDisc = 5;

ClusterConfig configFor(const std::string& name) {
  ClusterConfig c;
  c.profile = nic::profileByName(name);
  c.nodes = 2;
  return c;
}

/// Registered buffer helper.
struct Buf {
  mem::VirtAddr va = 0;
  mem::MemHandle handle = 0;
};

Buf makeBuf(Provider& nic, mem::PtagId ptag, std::uint64_t len,
            bool rdma = false) {
  Buf b;
  b.va = nic.memory().alloc(len, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag;
  ma.enableRdmaWrite = rdma;
  ma.enableRdmaRead = rdma;
  EXPECT_EQ(vipl::VipRegisterMem(nic, b.va, len, ma, b.handle),
            VipResult::VIP_SUCCESS);
  return b;
}

void fillPattern(Provider& nic, mem::VirtAddr va, std::size_t len,
                 std::uint8_t seed) {
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(seed + i * 13));
  }
  nic.memory().write(va, data);
}

bool checkPattern(Provider& nic, mem::VirtAddr va, std::size_t len,
                  std::uint8_t seed) {
  std::vector<std::byte> data(len);
  nic.memory().read(va, data);
  for (std::size_t i = 0; i < len; ++i) {
    if (data[i] != std::byte(static_cast<std::uint8_t>(seed + i * 13))) {
      return false;
    }
  }
  return true;
}

/// Connects vi on node 0 to vi on node 1 (helpers used inside programs).
void clientConnect(Provider& nic, Vi* vi) {
  ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
            VipResult::VIP_SUCCESS);
}

void serverAccept(Provider& nic, Vi* vi) {
  PendingConn conn;
  ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
            VipResult::VIP_SUCCESS);
  ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
}

Vi* makeVi(Provider& nic, mem::PtagId ptag,
           nic::Reliability rel = nic::Reliability::ReliableDelivery,
           Cq* sendCq = nullptr, Cq* recvCq = nullptr) {
  vipl::VipViAttributes va;
  va.ptag = ptag;
  va.reliabilityLevel = rel;
  va.enableRdmaWrite = true;
  Vi* vi = nullptr;
  EXPECT_EQ(vipl::VipCreateVi(nic, va, sendCq, recvCq, vi),
            VipResult::VIP_SUCCESS);
  return vi;
}

// ---------------------------------------------------------------------------
// Parameterized across the three implementation models.
// ---------------------------------------------------------------------------

class ViplAllProfiles : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Profiles, ViplAllProfiles,
                         ::testing::Values("mvia", "bvia", "clan"),
                         [](const auto& paramInfo) { return paramInfo.param; });

TEST_P(ViplAllProfiles, SendRecvPreservesPayload) {
  Cluster cluster(configFor(GetParam()));
  const std::size_t kBytes = 3000;
  bool verified = false;

  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kBytes);
    fillPattern(nic, buf.va, kBytes, 42);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, kBytes);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(done, &d);
    EXPECT_TRUE(d.cs.status.ok());
    EXPECT_EQ(d.cs.length, kBytes);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, kBytes);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor d = VipDescriptor::recv(buf.va, buf.handle, kBytes);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(done, &d);
    EXPECT_EQ(d.cs.length, kBytes);
    EXPECT_TRUE(checkPattern(nic, buf.va, kBytes, 42));
    verified = true;
  };
  cluster.run({client, server});
  EXPECT_TRUE(verified);
}

class ViplSizeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, ViplSizeSweep,
    ::testing::Combine(::testing::Values("mvia", "bvia", "clan"),
                       ::testing::Values(0, 1, 4, 1499, 1500, 1501, 4096,
                                         8193, 30000, 65000)),
    [](const auto& paramInfo) {
      return std::get<0>(paramInfo.param) + "_" +
             std::to_string(std::get<1>(paramInfo.param)) + "B";
    });

TEST_P(ViplSizeSweep, FragmentationReassemblyIntegrity) {
  const auto [profile, size] = GetParam();
  Cluster cluster(configFor(profile));
  bool verified = false;

  auto client = [&, size = size](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, std::max<std::size_t>(size, 4));
    fillPattern(nic, buf.va, size, 7);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor d = VipDescriptor::send(buf.va, buf.handle,
                                          static_cast<std::uint32_t>(size));
    if (size == 0) d.ds.clear();
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
  };
  auto server = [&, size = size](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, std::max<std::size_t>(size, 4));
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor d = VipDescriptor::recv(buf.va, buf.handle,
                                          static_cast<std::uint32_t>(size));
    if (size == 0) d.ds.clear();
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(d.cs.length, size);
    EXPECT_TRUE(checkPattern(nic, buf.va, size, 7));
    verified = true;
  };
  cluster.run({client, server});
  EXPECT_TRUE(verified);
}

// ---------------------------------------------------------------------------
// Feature tests (run on one representative profile each unless noted).
// ---------------------------------------------------------------------------

TEST(ViplTest, ImmediateDataTravelsInControlSegment) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor d = VipDescriptor::sendImmediate(0xDEADBEEF);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 16);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor d = VipDescriptor::recv(buf.va, buf.handle, 16);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_TRUE(d.hasImmediate());
    EXPECT_EQ(d.cs.immediateData, 0xDEADBEEFu);
    EXPECT_EQ(d.cs.length, 0u);
  };
  cluster.run({client, server});
}

TEST(ViplTest, MultiSegmentGatherScatter) {
  Cluster cluster(configFor("bvia"));
  const std::size_t kBytes = 6000;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf a = makeBuf(nic, ptag, 2500);
    Buf b = makeBuf(nic, ptag, 3500);
    fillPattern(nic, a.va, 2500, 1);
    fillPattern(nic, b.va, 3500, static_cast<std::uint8_t>(1 + 2500 * 13));
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor d;
    d.ds = {{a.va, a.handle, 2500}, {b.va, b.handle, 3500}};
    d.cs.segCount = 2;
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf x = makeBuf(nic, ptag, 1000);
    Buf y = makeBuf(nic, ptag, 5000);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor d;
    d.ds = {{x.va, x.handle, 1000}, {y.va, y.handle, 5000}};
    d.cs.segCount = 2;
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(d.cs.length, kBytes);
    // The pattern continues across the scatter boundary.
    EXPECT_TRUE(checkPattern(nic, x.va, 1000, 1));
    EXPECT_TRUE(checkPattern(nic, y.va, 5000,
                             static_cast<std::uint8_t>(1 + 1000 * 13)));
  };
  cluster.run({client, server});
}

TEST(ViplTest, BlockingWaitDeliversAndTimesOut) {
  Cluster cluster(configFor("mvia"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    // Nothing should arrive yet: recvWait must time out.
    VipDescriptor* done = nullptr;
    EXPECT_EQ(nic.recvWait(vi, sim::usec(50), done), VipResult::VIP_TIMEOUT);
    VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 16);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
    ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(done, &r);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 16);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
    ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});
}

TEST(ViplTest, CompletionQueueMergesBothVis) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    for (int i = 0; i < 3; ++i) {
      VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 8);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Cq* cq = nullptr;
    ASSERT_EQ(vipl::VipCreateCQ(nic, 16, cq), VipResult::VIP_SUCCESS);
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery, nullptr,
                    cq);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < 3; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va + 8 * i, buf.handle, 8)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs.back().get()),
                VipResult::VIP_SUCCESS);
    }
    serverAccept(nic, vi);
    for (int i = 0; i < 3; ++i) {
      Vi* doneVi = nullptr;
      bool isRecv = false;
      ASSERT_EQ(nic.pollCq(cq, doneVi, isRecv), VipResult::VIP_SUCCESS);
      EXPECT_EQ(doneVi, vi);
      EXPECT_TRUE(isRecv);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvDone(doneVi, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done, recvs[i].get());
    }
    ASSERT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_INVALID_STATE);
  };
  cluster.run({client, server});
}

TEST(ViplTest, RecvNotifyHandlerConsumesCompletion) {
  Cluster cluster(configFor("clan"));
  bool handlerRan = false;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 8);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    auto signal = std::make_shared<sim::Signal>(env.engine);
    ASSERT_EQ(nic.recvNotify(vi,
                             [&, signal](VipDescriptor* desc) {
                               handlerRan = true;
                               EXPECT_EQ(desc, &r);
                               signal->notifyAll();
                             }),
              VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    env.self.await(*signal);
    // The completion was consumed by the handler, not the done queue.
    VipDescriptor* done = nullptr;
    EXPECT_EQ(nic.recvDone(vi, done), VipResult::VIP_NOT_DONE);
  };
  cluster.run({client, server});
  EXPECT_TRUE(handlerRan);
}

TEST(ViplTest, RdmaWriteWithImmediatePlacesDataRemotely) {
  Cluster cluster(configFor("clan"));
  const std::size_t kBytes = 5000;
  mem::VirtAddr target = 0;
  mem::MemHandle targetH = 0;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf src = makeBuf(nic, ptag, kBytes);
    fillPattern(nic, src.va, kBytes, 99);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor d = VipDescriptor::rdmaWrite(src.va, src.handle, kBytes,
                                               target, targetH);
    d.cs.control |= vipl::VIP_CONTROL_IMMEDIATE;
    d.cs.immediateData = 77;
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf dst = makeBuf(nic, ptag, kBytes, /*rdma=*/true);
    target = dst.va;
    targetH = dst.handle;
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor r;  // zero-segment descriptor to absorb the immediate
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_TRUE(r.hasImmediate());
    EXPECT_EQ(r.cs.immediateData, 77u);
    EXPECT_TRUE(checkPattern(nic, dst.va, kBytes, 99));
  };
  cluster.run({client, server});
}

TEST(ViplTest, RdmaReadFetchesRemoteMemory) {
  // RDMA read is optional in VIA; none of the paper's three systems
  // implement it. Exercise it with a custom profile.
  ClusterConfig cfg = configFor("clan");
  cfg.profile.supportsRdmaRead = true;
  Cluster cluster(cfg);
  const std::size_t kBytes = 9000;
  mem::VirtAddr source = 0;
  mem::MemHandle sourceH = 0;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf dst = makeBuf(nic, ptag, kBytes);
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    va.enableRdmaRead = true;
    Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    clientConnect(nic, vi);
    VipDescriptor d = VipDescriptor::rdmaRead(dst.va, dst.handle, kBytes,
                                              source, sourceH);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_TRUE(checkPattern(nic, dst.va, kBytes, 33));
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf src = makeBuf(nic, ptag, kBytes, /*rdma=*/true);
    fillPattern(nic, src.va, kBytes, 33);
    source = src.va;
    sourceH = src.handle;
    Vi* vi = makeVi(nic, ptag);
    serverAccept(nic, vi);
    // Stay alive long enough to serve the read.
    env.self.advance(sim::msec(5), sim::CpuUse::Idle);
  };
  cluster.run({client, server});
}

TEST(ViplTest, PostErrorsAreReported) {
  Cluster cluster(configFor("bvia"));
  auto program = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);

    // Send on an unconnected VI.
    VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 8);
    EXPECT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_INVALID_STATE);

    // Bad handle / range / foreign ptag.
    VipDescriptor bad = VipDescriptor::send(buf.va, 9999, 8);
    EXPECT_EQ(vipl::VipPostRecv(nic, vi, &bad),
              VipResult::VIP_PROTECTION_ERROR);
    VipDescriptor tooLong = VipDescriptor::send(buf.va, buf.handle, 65);
    EXPECT_EQ(vipl::VipPostRecv(nic, vi, &tooLong),
              VipResult::VIP_PROTECTION_ERROR);

    // RDMA write is unsupported on the BVIA model.
    VipDescriptor w =
        VipDescriptor::rdmaWrite(buf.va, buf.handle, 8, buf.va, buf.handle);
    EXPECT_EQ(vipl::VipPostRecv(nic, vi, &w), VipResult::VIP_SUCCESS);

    // RDMA read on a VI without the attribute.
    vipl::VipNicAttributes attrs;
    EXPECT_EQ(vipl::VipQueryNic(nic, attrs), VipResult::VIP_SUCCESS);
    EXPECT_FALSE(attrs.rdmaWriteSupport);
    EXPECT_FALSE(attrs.rdmaReadSupport);
  };
  cluster.run({program, nullptr});
}

TEST(ViplTest, PostBeyondMaxTransferSizeRejected) {
  // clan negotiates a 64 KiB MaxTransferSize; a larger message must be
  // rejected at post time, while bvia (32 MiB) accepts it.
  for (const char* name : {"clan", "bvia"}) {
    Cluster cluster(configFor(name));
    const bool expectAccept = std::string(name) == "bvia";
    auto client = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Buf buf = makeBuf(nic, ptag, 200000);
      Vi* vi = makeVi(nic, ptag);
      clientConnect(nic, vi);
      VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, 200000);
      const VipResult r = vipl::VipPostSend(nic, vi, &d);
      if (expectAccept) {
        ASSERT_EQ(r, VipResult::VIP_SUCCESS);
        VipDescriptor* done = nullptr;
        ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
      } else {
        EXPECT_EQ(r, VipResult::VIP_INVALID_MTU);
      }
    };
    auto server = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Buf buf = makeBuf(nic, ptag, 200000);
      Vi* vi = makeVi(nic, ptag);
      VipDescriptor d = VipDescriptor::recv(buf.va, buf.handle, 200000);
      const VipResult r = vipl::VipPostRecv(nic, vi, &d);
      serverAccept(nic, vi);
      if (expectAccept && r == VipResult::VIP_SUCCESS) {
        VipDescriptor* done = nullptr;
        ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
        EXPECT_EQ(d.cs.length, 200000u);
      }
    };
    cluster.run({client, server});
  }
}

TEST(ViplTest, OversizeMessageCompletesRecvWithLengthError) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 256);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 256);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
    VipDescriptor* done = nullptr;
    // Reliable delivery: the remote length error breaks the connection,
    // so the send completes with an error status.
    EXPECT_EQ(nic.pollSend(vi, done), VipResult::VIP_DESCRIPTOR_ERROR);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    EXPECT_EQ(nic.pollRecv(vi, done), VipResult::VIP_DESCRIPTOR_ERROR);
    EXPECT_EQ(r.cs.status.error, nic::WorkStatus::LengthError);
  };
  cluster.run({client, server});
}

TEST(ViplTest, DisconnectFlushesOutstandingDescriptors) {
  Cluster cluster(configFor("clan"));
  bool remoteSawError = false;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    env.self.advance(sim::usec(200));
    ASSERT_EQ(vipl::VipDisconnect(nic, vi), VipResult::VIP_SUCCESS);
    EXPECT_EQ(vi->state(), ViState::Idle);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    nic.setErrorCallback([&](Vi*, nic::WorkStatus why) {
      remoteSawError = true;
      EXPECT_EQ(why, nic::WorkStatus::ConnectionLost);
    });
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    // The flush completes the posted recv with an error status.
    EXPECT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_DESCRIPTOR_ERROR);
    EXPECT_EQ(r.cs.status.error, nic::WorkStatus::Aborted);
    EXPECT_EQ(vi->state(), ViState::Disconnected);
  };
  cluster.run({client, server});
  EXPECT_TRUE(remoteSawError);
}

TEST(ViplTest, ConnectionRejectAndNoMatch) {
  Cluster cluster(configFor("mvia"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);
    // Nobody listens on discriminator 1234.
    EXPECT_EQ(vipl::VipConnectRequest(nic, vi, {1, 1234}, kTimeout),
              VipResult::VIP_NO_MATCH);
    EXPECT_EQ(vi->state(), ViState::Idle);
    // Reliability mismatch: server VI is ReliableDelivery, ours Unreliable.
    Vi* ud = makeVi(nic, ptag, nic::Reliability::Unreliable);
    EXPECT_EQ(vipl::VipConnectRequest(nic, ud, {1, kDisc}, kTimeout),
              VipResult::VIP_INVALID_RELIABILITY_LEVEL);
    // Third attempt is explicitly rejected by the server application.
    EXPECT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
              VipResult::VIP_REJECT);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);  // ReliableDelivery
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(vipl::VipConnectAccept(nic, conn, vi),
              VipResult::VIP_INVALID_RELIABILITY_LEVEL);
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(vipl::VipConnectReject(nic, conn), VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});
}

TEST(ViplTest, ConnectWaitTimesOut) {
  Cluster cluster(configFor("clan"));
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    PendingConn conn;
    const sim::SimTime t0 = env.now();
    EXPECT_EQ(vipl::VipConnectWait(nic, {0, kDisc}, sim::usec(500), conn),
              VipResult::VIP_TIMEOUT);
    EXPECT_GE(env.now() - t0, sim::usec(500));
  };
  cluster.run({server, nullptr});
}

// A connect request that lands while a connectWait is parked must be
// claimed by that waiter before its timeout expires, at every reliability
// level the provider can negotiate.
TEST(ViplTest, ConnectRequestArrivingMidWaitIsClaimed) {
  for (const auto rel : {nic::Reliability::ReliableDelivery,
                         nic::Reliability::ReliableReception}) {
    SCOPED_TRACE(rel == nic::Reliability::ReliableDelivery ? "RD" : "RR");
    Cluster cluster(configFor("mvia"));
    auto client = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Buf buf = makeBuf(nic, ptag, 64);
      Vi* vi = makeVi(nic, ptag, rel);
      // Let the server park in connectWait first, then race the request
      // into the middle of its window.
      env.self.advance(sim::msec(1), sim::CpuUse::Idle);
      ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
                VipResult::VIP_SUCCESS);
      fillPattern(nic, buf.va, 32, 0x21);
      VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 32);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      EXPECT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    };
    auto server = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Buf buf = makeBuf(nic, ptag, 64);
      Vi* vi = makeVi(nic, ptag, rel);
      VipDescriptor r = VipDescriptor::recv(buf.va, buf.handle, 64);
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, &r), VipResult::VIP_SUCCESS);
      PendingConn conn;
      const sim::SimTime t0 = env.now();
      ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, sim::msec(10), conn),
                VipResult::VIP_SUCCESS);
      EXPECT_LT(env.now() - t0, sim::msec(10));
      ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      EXPECT_TRUE(checkPattern(nic, buf.va, 32, 0x21));
    };
    cluster.run({client, server});
  }
}

// The other side of the race: the request arrives just after connectWait
// timed out. It must not be dropped — the provider parks it under the
// connect-request grace window, and the next connectWait claims it.
TEST(ViplTest, ConnectRequestAfterWaitTimeoutIsClaimedByNextWait) {
  for (const auto rel : {nic::Reliability::ReliableDelivery,
                         nic::Reliability::ReliableReception}) {
    SCOPED_TRACE(rel == nic::Reliability::ReliableDelivery ? "RD" : "RR");
    Cluster cluster(configFor("bvia"));
    auto client = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Vi* vi = makeVi(nic, ptag, rel);
      // Aim the request into the gap between the server's two waits (it
      // leaves ~connectLocalCost after this point, around t=460us).
      env.self.advance(sim::usec(200), sim::CpuUse::Idle);
      ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
                VipResult::VIP_SUCCESS);
      EXPECT_EQ(vi->state(), ViState::Connected);
    };
    auto server = [&](NodeEnv& env) {
      Provider& nic = env.nic;
      auto ptag = vipl::VipCreatePtag(nic);
      Vi* vi = makeVi(nic, ptag, rel);
      PendingConn conn;
      EXPECT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, sim::usec(100), conn),
                VipResult::VIP_TIMEOUT);
      // The request lands around t=460us with nobody waiting. Come back
      // well within the grace window and claim it from the queue.
      env.self.advance(sim::msec(1), sim::CpuUse::Idle);
      const sim::SimTime t0 = env.now();
      ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc}, kTimeout, conn),
                VipResult::VIP_SUCCESS);
      // Claimed from the queue, not re-sent: no round trip, so no delay.
      EXPECT_LT(env.now() - t0, sim::usec(100));
      ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
      EXPECT_EQ(vi->state(), ViState::Connected);
    };
    cluster.run({client, server});
  }
}

// Regression: the connection-error callback is delivered from a zero-delay
// event, so a handler may tear the VI down (resetVi, destroyVi) without
// re-entering the control path that noticed the failure. Before the
// deferral this corrupted provider state.
TEST(ViplTest, ErrorCallbackMayResetAndDestroyTheFailedVi) {
  Cluster cluster(configFor("clan"));
  int callbacks = 0;
  bool reconnected = false;
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* a = makeVi(nic, ptag);
    Vi* b = makeVi(nic, ptag);
    ASSERT_EQ(vipl::VipConnectRequest(nic, a, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, b, {1, kDisc + 1}, kTimeout),
              VipResult::VIP_SUCCESS);
    env.self.advance(sim::usec(200));
    ASSERT_EQ(vipl::VipDisconnect(nic, a), VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipDisconnect(nic, b), VipResult::VIP_SUCCESS);
    // Give the server time to observe both failures, then prove the VI it
    // reset inside the callback is connectable again.
    env.self.advance(sim::msec(1), sim::CpuUse::Idle);
    ASSERT_EQ(vipl::VipConnectRequest(nic, a, {1, kDisc}, kTimeout),
              VipResult::VIP_SUCCESS);
    reconnected = true;
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* va = makeVi(nic, ptag);
    Vi* vb = makeVi(nic, ptag);
    nic.setErrorCallback([&](Vi* vi, nic::WorkStatus why) {
      EXPECT_EQ(why, nic::WorkStatus::ConnectionLost);
      EXPECT_EQ(vi->state(), ViState::Disconnected);
      if (vi == va) {
        EXPECT_EQ(vipl::VipResetVi(nic, vi), VipResult::VIP_SUCCESS);
        EXPECT_EQ(vi->state(), ViState::Idle);
      } else {
        EXPECT_EQ(vi, vb);
        EXPECT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_SUCCESS);
      }
      ++callbacks;
    });
    serverAccept(nic, va);
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, kDisc + 1}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vb), VipResult::VIP_SUCCESS);
    // Park until both disconnects have been noticed and the deferred
    // callbacks delivered (each VipDisconnect charges a teardown on the
    // client first), then accept the client's second connect on the
    // freshly reset VI.
    env.self.advance(sim::msec(2), sim::CpuUse::Idle);
    EXPECT_EQ(callbacks, 2);
    serverAccept(nic, va);
    EXPECT_EQ(va->state(), ViState::Connected);
  };
  cluster.run({client, server});
  EXPECT_EQ(callbacks, 2);
  EXPECT_TRUE(reconnected);
}

TEST(ViplTest, CqOverflowIsReported) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    for (int i = 0; i < 4; ++i) {
      VipDescriptor s = VipDescriptor::send(buf.va, buf.handle, 4);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &s), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Cq* cq = nullptr;
    ASSERT_EQ(vipl::VipCreateCQ(nic, 2, cq), VipResult::VIP_SUCCESS);
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery, nullptr,
                    cq);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < 4; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va, buf.handle, 16)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs.back().get()),
                VipResult::VIP_SUCCESS);
    }
    serverAccept(nic, vi);
    // Let all four completions arrive without reaping: 2 fit, 2 overflow.
    env.self.advance(sim::msec(2), sim::CpuUse::Idle);
    Vi* doneVi = nullptr;
    bool isRecv = false;
    EXPECT_EQ(nic.cqDone(cq, doneVi, isRecv), VipResult::VIP_ERROR_RESOURCE);
    EXPECT_EQ(nic.cqDone(cq, doneVi, isRecv), VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});
}

TEST(ViplTest, QueryAndSetViAttributes) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag, nic::Reliability::Unreliable);

    vipl::ViState state;
    vipl::VipViAttributes attrs;
    bool sendEmpty = false;
    bool recvEmpty = false;
    ASSERT_EQ(vipl::VipQueryVi(nic, vi, state, attrs, sendEmpty, recvEmpty),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(state, ViState::Idle);
    EXPECT_EQ(attrs.reliabilityLevel, nic::Reliability::Unreliable);
    EXPECT_TRUE(sendEmpty);
    EXPECT_TRUE(recvEmpty);

    // Retune before connecting: allowed while Idle.
    attrs.reliabilityLevel = nic::Reliability::ReliableDelivery;
    attrs.maxTransferSize = 1u << 30;  // clamped to the NIC limit
    ASSERT_EQ(vipl::VipSetViAttributes(nic, vi, attrs),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipQueryVi(nic, vi, state, attrs, sendEmpty, recvEmpty),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(attrs.reliabilityLevel, nic::Reliability::ReliableDelivery);
    EXPECT_EQ(attrs.maxTransferSize, nic.profile().maxTransferSize);

    clientConnect(nic, vi);
    EXPECT_EQ(vipl::VipSetViAttributes(nic, vi, attrs),
              VipResult::VIP_INVALID_STATE);
    ASSERT_EQ(vipl::VipQueryVi(nic, vi, state, attrs, sendEmpty, recvEmpty),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(state, ViState::Connected);
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);
    serverAccept(nic, vi);
  };
  cluster.run({client, server});
}

TEST(ViplTest, NameServiceResolvesClusterHosts) {
  Cluster cluster(configFor("clan"));
  auto program = [&](NodeEnv& env) {
    fabric::NodeId node = 99;
    EXPECT_EQ(vipl::VipNSGetHostByName(env.nic, "node1", node),
              VipResult::VIP_SUCCESS);
    EXPECT_EQ(node, 1u);
    EXPECT_EQ(vipl::VipNSGetHostByName(env.nic, "nonesuch", node),
              VipResult::VIP_ERROR_NAMESERVICE);
  };
  cluster.run({program, nullptr});
}

TEST(ViplTest, ReconnectAfterDisconnectWorks) {
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Vi* vi = makeVi(nic, ptag);
    for (int round = 0; round < 3; ++round) {
      ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, kDisc}, kTimeout),
                VipResult::VIP_SUCCESS);
      ASSERT_EQ(vipl::VipDisconnect(nic, vi), VipResult::VIP_SUCCESS);
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    for (int round = 0; round < 3; ++round) {
      Vi* vi = makeVi(nic, ptag);
      serverAccept(nic, vi);
      while (vi->state() == ViState::Connected) {
        env.self.advance(sim::usec(20), sim::CpuUse::Idle);
      }
      ASSERT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_SUCCESS);
    }
  };
  cluster.run({client, server});
}

TEST(ViplTest, QueuedCompletionsReapInFifoOrder) {
  Cluster cluster(configFor("bvia"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 256);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    std::vector<std::unique_ptr<VipDescriptor>> sends;
    for (int i = 0; i < 5; ++i) {
      sends.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::send(buf.va, buf.handle, 32)));
      ASSERT_EQ(vipl::VipPostSend(nic, vi, sends.back().get()),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < 5; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done, sends[i].get());
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 256);
    Vi* vi = makeVi(nic, ptag);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < 5; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va + 32 * i, buf.handle, 32)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs.back().get()),
                VipResult::VIP_SUCCESS);
    }
    serverAccept(nic, vi);
    for (int i = 0; i < 5; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
      EXPECT_EQ(done, recvs[i].get());
    }
  };
  cluster.run({client, server});
}

TEST(ViplTest, CompletionOfDroppedDescriptorLeavesItsSuccessorPending) {
  // flushViPending drops descriptor A while its work request is still
  // posted on the NIC, and B is posted after it. The first message lands
  // in A's buffer; its completion must not complete B, whatever the
  // provider reuses for B's bookkeeping. The second message completes B.
  Cluster cluster(configFor("clan"));
  auto client = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    fillPattern(nic, buf.va, 64, 7);
    Vi* vi = makeVi(nic, ptag);
    clientConnect(nic, vi);
    for (std::uint32_t len : {8u, 16u}) {
      VipDescriptor d = VipDescriptor::send(buf.va, buf.handle, len);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.pollSend(vi, done), VipResult::VIP_SUCCESS);
    }
  };
  auto server = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, 64);
    Vi* vi = makeVi(nic, ptag);
    VipDescriptor a = VipDescriptor::recv(buf.va, buf.handle, 32);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &a), VipResult::VIP_SUCCESS);
    nic.flushViPending(vi);
    VipDescriptor b = VipDescriptor::recv(buf.va + 32, buf.handle, 32);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &b), VipResult::VIP_SUCCESS);
    serverAccept(nic, vi);
    VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), VipResult::VIP_SUCCESS);
    EXPECT_EQ(done, &b);
    EXPECT_EQ(b.cs.length, 16u);
    EXPECT_TRUE(checkPattern(nic, buf.va + 32, 16, 7));
    EXPECT_FALSE(a.cs.status.done);
    EXPECT_TRUE(checkPattern(nic, buf.va, 8, 7));
  };
  cluster.run({client, server});
}

}  // namespace
}  // namespace vibe
