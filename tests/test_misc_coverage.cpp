// Coverage for the less-traveled public paths: NIC attribute queries per
// profile, CQ resize semantics, ptag lifecycle through the provider,
// listener timeouts, profile lookup, and small engine/process corners.
#include <gtest/gtest.h>

#include <stdexcept>

#include "nic/profiles.hpp"
#include "test_seed.hpp"
#include "upper/sockets/stream.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using vipl::Cq;
using vipl::Provider;
using vipl::Vi;
using vipl::VipResult;

ClusterConfig configFor(const std::string& name, std::uint32_t nodes = 2) {
  ClusterConfig c;
  c.profile = nic::profileByName(name);
  c.nodes = nodes;
  // Shift the pinned default seed by the run's base so VIBE_TEST_SEED
  // soaks these paths too, while default runs stay bit-identical.
  c.seed += vibe::testing::testRunSeed();
  return c;
}

TEST(ProfileTest, LookupKnowsAllShippedProfilesAndRejectsOthers) {
  for (const char* name : {"mvia", "bvia", "clan", "firmvia", "iba"}) {
    EXPECT_NO_THROW((void)nic::profileByName(name)) << name;
  }
  EXPECT_THROW((void)nic::profileByName("quadrics"), std::invalid_argument);
  EXPECT_THROW((void)nic::profileByName(""), std::invalid_argument);
}

TEST(ProfileTest, QueryNicReflectsProfileCapabilities) {
  struct Expectation {
    const char* name;
    bool rdmaWrite;
    bool rdmaRead;
    std::uint32_t mtu;
  };
  const Expectation table[] = {
      {"mvia", true, false, 1500},
      {"bvia", false, false, 2048},
      {"clan", true, false, 2048},
      {"iba", true, true, 2048},
  };
  for (const auto& e : table) {
    Cluster cluster(configFor(e.name, 1));
    auto program = [&](NodeEnv& env) {
      vipl::VipNicAttributes attrs;
      ASSERT_EQ(vipl::VipQueryNic(env.nic, attrs), VipResult::VIP_SUCCESS);
      EXPECT_EQ(attrs.rdmaWriteSupport, e.rdmaWrite) << e.name;
      EXPECT_EQ(attrs.rdmaReadSupport, e.rdmaRead) << e.name;
      EXPECT_EQ(attrs.mtu, e.mtu) << e.name;
      EXPECT_EQ(attrs.maxSegmentsPerDesc, 252) << e.name;
      EXPECT_FALSE(attrs.name.empty());
    };
    cluster.run({program});
  }
}

TEST(ProviderTest, CqResizeSemantics) {
  Cluster cluster(configFor("clan", 1));
  auto program = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    Cq* cq = nullptr;
    ASSERT_EQ(nic.createCq(4, cq), VipResult::VIP_SUCCESS);
    EXPECT_EQ(nic.resizeCq(cq, 16), VipResult::VIP_SUCCESS);
    EXPECT_EQ(cq->capacity(), 16u);
    EXPECT_EQ(nic.resizeCq(cq, 0), VipResult::VIP_INVALID_PARAMETER);
    EXPECT_EQ(nic.resizeCq(nullptr, 8), VipResult::VIP_INVALID_PARAMETER);
    EXPECT_EQ(nic.destroyCq(cq), VipResult::VIP_SUCCESS);
  };
  cluster.run({program});
}

TEST(ProviderTest, PtagLifecycleThroughTheProvider) {
  Cluster cluster(configFor("clan", 1));
  auto program = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr va = nic.memory().alloc(4096, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, va, 4096, {ptag, false, false}, h),
              VipResult::VIP_SUCCESS);
    // Busy ptag cannot be destroyed.
    EXPECT_EQ(vipl::VipDestroyPtag(nic, ptag), VipResult::VIP_ERROR_RESOURCE);
    ASSERT_EQ(vipl::VipDeregisterMem(nic, h), VipResult::VIP_SUCCESS);
    EXPECT_EQ(vipl::VipDestroyPtag(nic, ptag), VipResult::VIP_SUCCESS);
    EXPECT_EQ(vipl::VipDestroyPtag(nic, ptag), VipResult::VIP_INVALID_PTAG);
    // Registration against a dead ptag fails.
    EXPECT_EQ(vipl::VipRegisterMem(nic, va, 4096, {ptag, false, false}, h),
              VipResult::VIP_INVALID_PTAG);
    // Double deregistration is rejected, not UB.
    EXPECT_EQ(vipl::VipDeregisterMem(nic, h), VipResult::VIP_PROTECTION_ERROR);
  };
  cluster.run({program});
}

TEST(ProviderTest, CreateViValidatesUpfront) {
  Cluster cluster(configFor("bvia", 1));
  auto program = [&](NodeEnv& env) {
    Provider& nic = env.nic;
    Vi* vi = nullptr;
    vipl::VipViAttributes attrs;  // ptag 0 = invalid
    EXPECT_EQ(vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi),
              VipResult::VIP_INVALID_PTAG);
    attrs.ptag = vipl::VipCreatePtag(nic);
    attrs.enableRdmaRead = true;  // bvia has no RDMA read
    EXPECT_EQ(vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi),
              VipResult::VIP_INVALID_RDMAREAD);
    attrs.enableRdmaRead = false;
    EXPECT_EQ(vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi),
              VipResult::VIP_SUCCESS);
    // Destroying a VI twice fails cleanly.
    EXPECT_EQ(vipl::VipDestroyVi(nic, vi), VipResult::VIP_SUCCESS);
  };
  cluster.run({program});
}

TEST(SocketsTest, ListenerAcceptTimesOut) {
  Cluster cluster(configFor("clan", 1));
  auto program = [&](NodeEnv& env) {
    upper::sockets::StreamListener listener(env, 4242);
    EXPECT_THROW((void)listener.accept(sim::msec(1)), std::runtime_error);
  };
  cluster.run({program});
}

TEST(SocketsTest, ConnectToSilentHostTimesOut) {
  Cluster cluster(configFor("clan", 2));
  auto program = [&](NodeEnv& env) {
    // Node 1 exists but never listens: the request waits out the server's
    // grace period and is rejected.
    EXPECT_THROW(
        (void)upper::sockets::StreamSocket::connect(env, 1, 4343),
        std::runtime_error);
  };
  cluster.run({program, nullptr});
}

TEST(EngineCornerTest, RunUntilInterleavesWithProcesses) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  int progress = 0;
  sim::Process p(eng, "stepper", [&] {
    for (int i = 0; i < 5; ++i) {
      eng.currentProcess()->advance(sim::usec(10));
      ++progress;
    }
  });
  EXPECT_FALSE(pdes.runUntil(sim::usec(25)));
  EXPECT_EQ(progress, 2);
  EXPECT_TRUE(pdes.runUntil(sim::usec(1000)));
  EXPECT_EQ(progress, 5);
  EXPECT_TRUE(p.finished());
}

TEST(EngineCornerTest, ChargeCpuAddsBusyWithoutTimePassing) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  sim::SimTime at = -1;
  sim::Process p(eng, "isr", [&] {
    eng.currentProcess()->chargeCpu(sim::usec(7));
    at = eng.now();
  });
  pdes.run();
  EXPECT_EQ(at, 0);
  EXPECT_EQ(p.cpuBusy(), sim::usec(7));
}

TEST(ClusterTest, LossRateZeroMeansNoDrops) {
  ClusterConfig cfg = configFor("clan");
  Cluster cluster(cfg);
  auto a = [&](NodeEnv& env) { env.self.advance(sim::usec(10)); };
  cluster.run({a, nullptr});
  EXPECT_EQ(cluster.topology().hostUplink(0).framesDropped(), 0u);
}

}  // namespace
}  // namespace vibe
