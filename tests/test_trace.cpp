// Tests for the tracing subsystem: ring-buffer semantics, category
// filtering, and integration with the NIC datapath.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "simcore/trace.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using sim::TraceCategory;
using sim::Tracer;

TEST(TracerTest, DisabledCategoriesRecordNothing) {
  Tracer t;
  t.record(1, TraceCategory::Wire, 0, "dropped");
  EXPECT_EQ(t.totalRecorded(), 0u);
  t.enable(TraceCategory::Wire);
  t.record(2, TraceCategory::Wire, 0, "kept");
  t.record(3, TraceCategory::Rx, 0, "still dropped");
  EXPECT_EQ(t.totalRecorded(), 1u);
  EXPECT_EQ(t.snapshot().size(), 1u);
  EXPECT_EQ(t.snapshot()[0].message, "kept");
}

TEST(TracerTest, RingKeepsNewestInOrder) {
  Tracer t(4);
  t.enableAll();
  for (int i = 0; i < 10; ++i) {
    t.record(i, TraceCategory::User, 0, std::to_string(i));
  }
  EXPECT_EQ(t.totalRecorded(), 10u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().message, "6");
  EXPECT_EQ(snap.back().message, "9");
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].time, snap[i].time);
  }
}

TEST(TracerTest, DumpContainsCategoryAndComponent) {
  Tracer t;
  t.enable(TraceCategory::Reliability);
  t.record(sim::usec(5), TraceCategory::Reliability, 3, "RTO fired");
  const std::string dump = t.dump();
  EXPECT_NE(dump.find("reliability"), std::string::npos);
  EXPECT_NE(dump.find("n3"), std::string::npos);
  EXPECT_NE(dump.find("RTO fired"), std::string::npos);
}

TEST(TracerTest, ClearResets) {
  Tracer t;
  t.enableAll();
  t.record(1, TraceCategory::User, 0, "x");
  t.clear();
  EXPECT_EQ(t.totalRecorded(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(TracerTest, ToStringCoversEveryCategory) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(TraceCategory::kCount);
       ++i) {
    const char* name = sim::toString(static_cast<TraceCategory>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "category " << i << " missing from toString";
    // Names must be unique (dump output and exporters key on them).
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_STRNE(name, sim::toString(static_cast<TraceCategory>(j)));
    }
  }
  EXPECT_STREQ(sim::toString(TraceCategory::kCount), "?");
}

TEST(TracerTest, SnapshotIsOldestFirstAcrossWrapBoundaries) {
  // Exercise the ring at several capacities and fill ratios: partially
  // full, exactly full, and wrapped one or more times. snapshot() must
  // always return retained records oldest-first with contiguous times.
  for (const std::size_t cap : {1u, 2u, 3u, 8u}) {
    for (const int total : {1, 2, 3, 7, 8, 9, 17}) {
      Tracer t(cap);
      t.enableAll();
      for (int i = 0; i < total; ++i) {
        t.record(i, TraceCategory::User, 0, std::to_string(i));
      }
      const auto snap = t.snapshot();
      const std::size_t expect =
          std::min<std::size_t>(cap, static_cast<std::size_t>(total));
      ASSERT_EQ(snap.size(), expect) << "cap=" << cap << " total=" << total;
      for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].time,
                  static_cast<sim::SimTime>(total - static_cast<int>(expect) +
                                            static_cast<int>(i)))
            << "cap=" << cap << " total=" << total << " slot=" << i;
      }
    }
  }
}

TEST(TracerTest, SinkAttachAndDetachMidRun) {
  Tracer t(2);  // tiny ring: the sink must still see the full stream
  t.enableAll();
  std::vector<std::string> seen;
  t.record(1, TraceCategory::User, 0, "before-attach");
  t.setSink([&seen](const sim::TraceRecord& r) { seen.push_back(r.message); });
  for (int i = 0; i < 5; ++i) {
    t.record(2 + i, TraceCategory::User, 0, "s" + std::to_string(i));
  }
  t.setSink(nullptr);
  t.record(10, TraceCategory::User, 0, "after-detach");
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), "s0");
  EXPECT_EQ(seen.back(), "s4");
  // Detaching does not stop recording proper.
  EXPECT_EQ(t.totalRecorded(), 7u);
}

TEST(TracerTest, DigestIsCapacityIndependent) {
  // The digest hashes the accepted stream, not the ring contents: a
  // 2-slot tracer and a 1024-slot tracer fed identical records agree.
  Tracer small(2);
  Tracer large(1024);
  small.enableAll();
  large.enableAll();
  for (int i = 0; i < 100; ++i) {
    small.record(i, TraceCategory::Rx, i % 4, "rec" + std::to_string(i));
    large.record(i, TraceCategory::Rx, i % 4, "rec" + std::to_string(i));
  }
  EXPECT_EQ(small.digest(), large.digest());
  EXPECT_EQ(small.totalRecorded(), large.totalRecorded());
  // Any divergence in the stream must change the digest.
  Tracer differs(2);
  differs.enableAll();
  for (int i = 0; i < 100; ++i) {
    differs.record(i, TraceCategory::Rx, i % 4,
                   i == 50 ? "mutated" : "rec" + std::to_string(i));
  }
  EXPECT_NE(small.digest(), differs.digest());
}

TEST(TracerTest, ZeroCapacityKeepsNoRecords) {
  // Capacity 0 retains nothing, yet every accepted record still reaches
  // the digest, the total and the sink.
  Tracer none(0);
  Tracer kept;
  none.enableAll();
  kept.enableAll();
  std::vector<std::string> seen;
  none.setSink(
      [&seen](const sim::TraceRecord& r) { seen.push_back(r.message); });
  for (int i = 0; i < 5; ++i) {
    none.record(i, TraceCategory::User, 1, "r" + std::to_string(i));
    kept.record(i, TraceCategory::User, 1, "r" + std::to_string(i));
  }
  EXPECT_EQ(none.totalRecorded(), 5u);
  EXPECT_EQ(none.digest(), kept.digest());
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.back(), "r4");
  EXPECT_TRUE(none.snapshot().empty());
  EXPECT_TRUE(none.dump().empty());
}

// sim::trace takes only a message builder: an eager string does not compile.
template <typename Message>
constexpr bool kTraceAccepts = requires(Tracer* t, Message m) {
  sim::trace(t, sim::SimTime{0}, TraceCategory::User, 0u, m);
};
static_assert(!kTraceAccepts<std::string>);
static_assert(!kTraceAccepts<const char*>);
static_assert(kTraceAccepts<std::string (*)()>);

TEST(TracerTest, MessageIsBuiltOnlyWhenRecorded) {
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return std::string("built");
  };
  sim::trace(nullptr, 1, TraceCategory::Rx, 4, build);
  EXPECT_EQ(builds, 0) << "built for a null tracer";

  Tracer t;
  sim::trace(&t, 2, TraceCategory::Rx, 4, build);
  EXPECT_EQ(builds, 0) << "built for a disabled category";
  EXPECT_EQ(t.totalRecorded(), 0u);

  t.enable(TraceCategory::Rx);
  sim::trace(&t, 3, TraceCategory::Rx, 4, build);
  EXPECT_EQ(builds, 1);
  Tracer direct;
  direct.enable(TraceCategory::Rx);
  direct.record(3, TraceCategory::Rx, 4, "built");
  EXPECT_EQ(t.digest(), direct.digest());
  EXPECT_EQ(t.totalRecorded(), 1u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].time, 3);
  EXPECT_EQ(snap[0].category, TraceCategory::Rx);
  EXPECT_EQ(snap[0].component, 4u);
  EXPECT_EQ(snap[0].message, "built");
}

TEST(TracerIntegration, NicDatapathEmitsExpectedCategories) {
  suite::ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  suite::Cluster cluster(cfg);
  Tracer tracer;
  tracer.enableAll();
  cluster.node(0).device().setTracer(&tracer);
  cluster.node(1).device().setTracer(&tracer);

  auto client = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    auto buf = nic.memory().alloc(8192, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 8192, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = nullptr;
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, 9}, sim::kSecond),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor d = vipl::VipDescriptor::send(buf, h, 5000);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollSend(vi, done), vipl::VipResult::VIP_SUCCESS);
  };
  auto server = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    auto buf = nic.memory().alloc(8192, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 8192, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = nullptr;
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor d = vipl::VipDescriptor::recv(buf, h, 8192);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
    vipl::PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 9}, sim::kSecond, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.pollRecv(vi, done), vipl::VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});

  bool sawDoorbell = false;
  bool sawWire = false;
  bool sawRx = false;
  bool sawCompletion = false;
  for (const auto& rec : tracer.snapshot()) {
    sawDoorbell |= rec.category == TraceCategory::Doorbell;
    sawWire |= rec.category == TraceCategory::Wire;
    sawRx |= rec.category == TraceCategory::Rx;
    sawCompletion |= rec.category == TraceCategory::Completion;
  }
  EXPECT_TRUE(sawDoorbell);
  EXPECT_TRUE(sawWire);   // a 5000 B message on a 2 KB MTU: 3 fragments
  EXPECT_TRUE(sawRx);
  EXPECT_TRUE(sawCompletion);
  // 3 data fragments from node 0 -> at least 3 Wire records.
  int wireCount = 0;
  for (const auto& rec : tracer.snapshot()) {
    if (rec.category == TraceCategory::Wire && rec.component == 0) {
      ++wireCount;
    }
  }
  EXPECT_GE(wireCount, 3);
}

TEST(TracerIntegration, RetransmissionsAreTraced) {
  suite::ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  cfg.lossRate = 0.5;  // brutal loss to force RTOs
  cfg.seed = 11;
  suite::Cluster cluster(cfg);
  Tracer tracer;
  tracer.enable(TraceCategory::Reliability);
  cluster.node(0).device().setTracer(&tracer);

  auto client = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    auto buf = nic.memory().alloc(4096, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 4096, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = nullptr;
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, 9}, sim::kSecond * 30),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor d = vipl::VipDescriptor::send(buf, h, 4096);
    ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.sendWait(vi, sim::kSecond * 30, done),
              vipl::VipResult::VIP_SUCCESS);
  };
  auto server = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    auto buf = nic.memory().alloc(4096, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, 4096, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = nullptr;
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableDelivery;
    ASSERT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor d = vipl::VipDescriptor::recv(buf, h, 4096);
    ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
    vipl::PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 9}, sim::kSecond * 30, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.recvWait(vi, sim::kSecond * 30, done),
              vipl::VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});
  EXPECT_GT(tracer.totalRecorded(), 0u) << "50% loss but no RTO traces";
}

// --- NIC trace text pin ------------------------------------------------------

constexpr std::size_t kCategories =
    static_cast<std::size_t>(TraceCategory::kCount);
using CategoryCounts = std::array<std::uint64_t, kCategories>;

/// Byte `offset` of the client's send buffer. The `offset >> 8` term keeps
/// the pattern from repeating every 256 bytes, so a fragment read from an
/// offset that is off by a multiple of the MTU shows.
std::byte patternAt(std::uint64_t offset) {
  return static_cast<std::byte>((offset * 131 + (offset >> 8) * 29 + 17) &
                                0xff);
}

/// Data segments of one message, as (offset, length) in the send buffer.
using Segments = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

/// The messages the pin run sends: one-fragment, multi-fragment and a
/// two-segment descriptor whose segment edges fall inside fragments.
std::vector<Segments> pinMessages() {
  const Segments small{{0, 64}};
  const Segments large{{300, 5000}};
  const Segments split{{100, 3000}, {8192 + 7, 2500}};
  return {small, large, split, small, large, split, small, large};
}

vipl::Vi* pinVi(vipl::Provider& nic, mem::PtagId ptag, nic::Reliability rel) {
  vipl::VipViAttributes va;
  va.ptag = ptag;
  va.reliabilityLevel = rel;
  vipl::Vi* vi = nullptr;
  EXPECT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
            vipl::VipResult::VIP_SUCCESS);
  return vi;
}

/// A short lossy run built to reach the NIC trace points: eight
/// ReliableReception messages under 10% loss with a corruption window on
/// the sender's uplink, a disconnect and VI destroy, a send the receiver
/// has no descriptor for (connection break), and a send into a partition
/// that outlasts the retry budget. The receiver checks every payload byte.
void runNicTracePin(const nic::NicProfile& profile, Tracer& tracer) {
  suite::ClusterConfig cfg;
  cfg.profile = profile;
  cfg.seed = 5;
  cfg.lossRate = 0.1;
  cfg.tracer = &tracer;
  suite::Cluster cluster(cfg);
  cluster.topology().hostUplink(0).scheduleCorruptWindow(0, sim::msec(20),
                                                         0.25);
  const std::vector<Segments> messages = pinMessages();
  constexpr std::uint64_t kSendBuf = 16384;
  constexpr std::uint32_t kRecvSlot = 8192;
  const sim::Duration kWait = sim::kSecond * 2;

  auto client = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const auto ptag = vipl::VipCreatePtag(nic);
    const auto buf = nic.memory().alloc(kSendBuf, mem::kPageSize);
    std::vector<std::byte> fill(kSendBuf);
    for (std::uint64_t i = 0; i < kSendBuf; ++i) fill[i] = patternAt(i);
    nic.memory().write(buf, fill);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, kSendBuf, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);

    vipl::Vi* vi = pinVi(nic, ptag, nic::Reliability::ReliableReception);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, 9}, kWait),
              vipl::VipResult::VIP_SUCCESS);
    for (const Segments& m : messages) {
      vipl::VipDescriptor d;
      for (const auto& [off, len] : m) d.ds.push_back({buf + off, h, len});
      d.cs.segCount = static_cast<std::uint16_t>(d.ds.size());
      d.cs.length = static_cast<std::uint32_t>(d.totalBytes());
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
      vipl::VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kWait, done), vipl::VipResult::VIP_SUCCESS);
      EXPECT_TRUE(done->cs.status.ok());
    }
    ASSERT_EQ(vipl::VipDisconnect(nic, vi), vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipDestroyVi(nic, vi), vipl::VipResult::VIP_SUCCESS);

    // No receive descriptor on the far side: the connection breaks.
    vipl::Vi* orphan = pinVi(nic, ptag, nic::Reliability::ReliableDelivery);
    ASSERT_EQ(vipl::VipConnectRequest(nic, orphan, {1, 10}, kWait),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor lost = vipl::VipDescriptor::send(buf, h, 64);
    ASSERT_EQ(vipl::VipPostSend(nic, orphan, &lost),
              vipl::VipResult::VIP_SUCCESS);
    vipl::VipDescriptor* done = nullptr;
    ASSERT_EQ(nic.sendWait(orphan, kWait, done),
              vipl::VipResult::VIP_DESCRIPTOR_ERROR);

    // A partition longer than the retry budget.
    vipl::Vi* cut = pinVi(nic, ptag, nic::Reliability::ReliableDelivery);
    ASSERT_EQ(vipl::VipConnectRequest(nic, cut, {1, 11}, kWait),
              vipl::VipResult::VIP_SUCCESS);
    cluster.topology().hostUplink(0).scheduleLossWindow(
        env.now(), env.now() + sim::kSecond * 10, 1.0);
    vipl::VipDescriptor dropped = vipl::VipDescriptor::send(buf, h, 64);
    ASSERT_EQ(vipl::VipPostSend(nic, cut, &dropped),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(nic.sendWait(cut, kWait, done),
              vipl::VipResult::VIP_DESCRIPTOR_ERROR);
    EXPECT_EQ(done->cs.status.error, nic::WorkStatus::ConnectionLost);
  };
  auto server = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const auto ptag = vipl::VipCreatePtag(nic);
    const std::uint64_t bytes = kRecvSlot * messages.size();
    const auto buf = nic.memory().alloc(bytes, mem::kPageSize);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, bytes, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = pinVi(nic, ptag, nic::Reliability::ReliableReception);
    std::vector<vipl::VipDescriptor> recvs;
    recvs.reserve(messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      recvs.push_back(
          vipl::VipDescriptor::recv(buf + i * kRecvSlot, h, kRecvSlot));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, &recvs.back()),
                vipl::VipResult::VIP_SUCCESS);
    }
    vipl::PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 9}, kWait, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
              vipl::VipResult::VIP_SUCCESS);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      vipl::VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kWait, done), vipl::VipResult::VIP_SUCCESS);
      ASSERT_TRUE(done->cs.status.ok()) << "message " << i;
      std::vector<std::byte> want;
      for (const auto& [off, len] : messages[i]) {
        for (std::uint64_t b = 0; b < len; ++b) {
          want.push_back(patternAt(off + b));
        }
      }
      ASSERT_EQ(done->cs.length, want.size()) << "message " << i;
      std::vector<std::byte> got(want.size());
      nic.memory().read(buf + i * kRecvSlot, got);
      EXPECT_TRUE(got == want) << "payload of message " << i;
    }

    vipl::Vi* orphan = pinVi(nic, ptag, nic::Reliability::ReliableDelivery);
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 10}, kWait, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, orphan),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* cut = pinVi(nic, ptag, nic::Reliability::ReliableDelivery);
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 11}, kWait, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, cut),
              vipl::VipResult::VIP_SUCCESS);
  };
  cluster.run({client, server});
}

struct NicTracePin {
  const char* profile;
  std::uint64_t digest;
  CategoryCounts counts;  // indexed by TraceCategory
};

TEST(TracerIntegration, NicTraceStreamIsUnchanged) {
  // Pins the NIC trace text (every category enabled) under cLAN, Berkeley
  // VIA (TLB misses on the first touch of each page) and M-VIA (host-
  // inline send, which emits no Wire records). The digest covers each
  // record's time, category, node and message bytes, so any change to a
  // trace point's text or virtual timing shows here.
  // Counts in category order: engine, process, doorbell, dma, wire, rx,
  // completion, reliability, connection, translation, session, user.
  const NicTracePin pins[] = {
      {"clan",
       0xf3cb7f062ad5fc81ull,
       {0, 0, 10, 0, 20, 39, 18, 45, 12, 0, 0, 0}},
      {"bvia",
       0x263c0a7bb06fd323ull,
       {0, 0, 10, 0, 20, 39, 18, 46, 12, 19, 0, 0}},
      {"mvia",
       0x5b506448988bd511ull,
       {0, 0, 10, 0, 0, 55, 18, 52, 12, 0, 0, 0}},
  };
  // Text every run must contain, one entry per NIC trace point. The Wire
  // point ("frag i/n") runs under cLAN and BVIA and the TLB-miss point
  // under BVIA only; their category counts pin them.
  const std::vector<std::string> sites = {
      "send completion vi=", "recv completion vi=", "destroy vi=",
      "configure vi=", "teardown vi=", "break vi=", "post send vi=",
      "corrupt frame dropped", "frag seq=", "deliver vi=", "ack progress",
      "retry budget exhausted", "probe retransmit", " frags"};
  for (const NicTracePin& pin : pins) {
    SCOPED_TRACE(pin.profile);
    const nic::NicProfile profile = nic::profileByName(pin.profile);
    Tracer tracer;
    tracer.enableAll();
    CategoryCounts counts{};
    std::vector<std::string> messages;
    tracer.setSink([&](const sim::TraceRecord& r) {
      ++counts[static_cast<std::size_t>(r.category)];
      messages.push_back(r.message);
    });
    runNicTracePin(profile, tracer);
    EXPECT_EQ(tracer.digest(), pin.digest) << std::hex << tracer.digest();
    for (std::size_t c = 0; c < kCategories; ++c) {
      EXPECT_EQ(counts[c], pin.counts[c])
          << sim::toString(static_cast<TraceCategory>(c));
    }
    for (const std::string& site : sites) {
      EXPECT_TRUE(std::any_of(messages.begin(), messages.end(),
                              [&](const std::string& m) {
                                return m.find(site) != std::string::npos;
                              }))
          << "no record for trace point '" << site << "'";
    }
  }
}

// --- NIC trace pin for the RDMA packets ----------------------------------

/// Fragments sent and retransmitted by the initiator (node 0) and the
/// responder (node 1).
struct RdmaPinStats {
  std::array<std::uint64_t, 2> fragsTx{};
  std::array<std::uint64_t, 2> retransmits{};
};

/// Four rounds on a lossy ReliableReception connection: each a 5000 B RDMA
/// write with immediate data from node 0 into node 1, then a 9000 B RDMA
/// read of node 1's memory by node 0. 10% loss, plus a corruption window
/// on node 0's downlink, which carries the read responses and the acks.
/// Node 1 checks every written byte and node 0 every read byte.
RdmaPinStats runNicRdmaTracePin(nic::NicProfile profile, Tracer& tracer) {
  profile.supportsRdmaWrite = true;
  profile.supportsRdmaRead = true;
  suite::ClusterConfig cfg;
  cfg.profile = profile;
  cfg.seed = 5;
  cfg.lossRate = 0.1;
  cfg.tracer = &tracer;
  suite::Cluster cluster(cfg);
  cluster.topology().hostDownlink(0).scheduleCorruptWindow(0, sim::msec(20),
                                                           0.25);
  constexpr int kRounds = 4;
  constexpr std::uint32_t kWriteBytes = 5000;
  constexpr std::uint32_t kReadBytes = 9000;
  constexpr std::uint64_t kSlot = 16384;  // per-round region, both sides
  const sim::Duration kWait = sim::kSecond * 2;
  // The responder's regions, published before it accepts the connection.
  mem::VirtAddr writeTarget = 0;
  mem::VirtAddr readSource = 0;
  mem::MemHandle remoteHandle = 0;
  auto readByte = [](std::uint64_t i) { return patternAt(i * 7 + 3); };
  auto viAttrs = [](mem::PtagId ptag) {
    vipl::VipViAttributes va;
    va.ptag = ptag;
    va.reliabilityLevel = nic::Reliability::ReliableReception;
    va.enableRdmaWrite = true;
    va.enableRdmaRead = true;
    return va;
  };

  auto initiator = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const auto ptag = vipl::VipCreatePtag(nic);
    const std::uint64_t bytes = kSlot * (kRounds + 1);
    const auto buf = nic.memory().alloc(bytes, mem::kPageSize);
    std::vector<std::byte> fill(kSlot);
    for (std::uint64_t i = 0; i < kSlot; ++i) fill[i] = patternAt(i);
    nic.memory().write(buf, fill);
    mem::MemHandle h = 0;
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, bytes, {ptag, false, false}, h),
              vipl::VipResult::VIP_SUCCESS);
    vipl::Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, viAttrs(ptag), nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {1, 9}, kWait),
              vipl::VipResult::VIP_SUCCESS);
    for (int r = 0; r < kRounds; ++r) {
      vipl::VipDescriptor w = vipl::VipDescriptor::rdmaWrite(
          buf + r * 100, h, kWriteBytes, writeTarget + r * kSlot,
          remoteHandle);
      w.cs.control |= vipl::VIP_CONTROL_IMMEDIATE;
      w.cs.immediateData = 0x100 + r;
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &w), vipl::VipResult::VIP_SUCCESS);
      vipl::VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kWait, done), vipl::VipResult::VIP_SUCCESS)
          << "write " << r;

      const mem::VirtAddr local = buf + (r + 1) * kSlot;
      vipl::VipDescriptor rd = vipl::VipDescriptor::rdmaRead(
          local, h, kReadBytes, readSource + r * 11, remoteHandle);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &rd),
                vipl::VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.sendWait(vi, kWait, done), vipl::VipResult::VIP_SUCCESS)
          << "read " << r;
      std::vector<std::byte> got(kReadBytes);
      nic.memory().read(local, got);
      for (std::uint64_t i = 0; i < kReadBytes; ++i) {
        ASSERT_EQ(got[i], readByte(r * 11 + i))
            << "read " << r << " byte " << i;
      }
    }
  };
  auto responder = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const auto ptag = vipl::VipCreatePtag(nic);
    const std::uint64_t bytes = kSlot * (kRounds + 1);
    const auto buf = nic.memory().alloc(bytes, mem::kPageSize);
    std::vector<std::byte> fill(kSlot);
    for (std::uint64_t i = 0; i < kSlot; ++i) fill[i] = readByte(i);
    nic.memory().write(buf, fill);
    ASSERT_EQ(vipl::VipRegisterMem(nic, buf, bytes, {ptag, true, true},
                                   remoteHandle),
              vipl::VipResult::VIP_SUCCESS);
    readSource = buf;
    writeTarget = buf + kSlot;
    vipl::Vi* vi = nullptr;
    ASSERT_EQ(vipl::VipCreateVi(nic, viAttrs(ptag), nullptr, nullptr, vi),
              vipl::VipResult::VIP_SUCCESS);
    // Immediate-only receives: each write's immediate consumes one.
    std::vector<vipl::VipDescriptor> recvs(kRounds);
    for (vipl::VipDescriptor& d : recvs) {
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, &d), vipl::VipResult::VIP_SUCCESS);
    }
    vipl::PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {1, 9}, kWait, conn),
              vipl::VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi),
              vipl::VipResult::VIP_SUCCESS);
    for (int r = 0; r < kRounds; ++r) {
      vipl::VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kWait, done), vipl::VipResult::VIP_SUCCESS);
      EXPECT_EQ(done->cs.immediateData, static_cast<std::uint32_t>(0x100 + r));
      std::vector<std::byte> got(kWriteBytes);
      nic.memory().read(writeTarget + r * kSlot, got);
      for (std::uint64_t i = 0; i < kWriteBytes; ++i) {
        ASSERT_EQ(got[i], patternAt(r * 100 + i))
            << "write " << r << " byte " << i;
      }
    }
  };
  cluster.run({initiator, responder});
  RdmaPinStats s;
  for (std::uint32_t n = 0; n < 2; ++n) {
    s.fragsTx[n] = cluster.node(n).device().stats().fragsTx;
    s.retransmits[n] = cluster.node(n).device().stats().retransmits;
  }
  return s;
}

struct NicRdmaTracePin {
  const char* profile;
  std::uint64_t digest;
  CategoryCounts counts;  // indexed by TraceCategory
  RdmaPinStats stats;
};

TEST(TracerIntegration, NicRdmaTraceStreamIsUnchanged) {
  // Pins the NIC trace text of the RDMA packets: RDMA-write fragments,
  // read requests and read-response fragments, with their acks, RTO
  // resends and probes under loss and corruption. cLAN and BVIA build
  // them on the NIC (BVIA with TLB misses); M-VIA builds the write
  // fragments in the host kernel (no Wire records). Every profile is
  // given RDMA write and read for this run.
  const NicRdmaTracePin pins[] = {
      {"clan",
       0x8336d6d74f0c1eb2ull,
       {0, 0, 8, 0, 12, 89, 12, 41, 2, 0, 0, 0},
       {{16, 20}, {11, 52}}},
      {"bvia",
       0xab54f57612326ce4ull,
       {0, 0, 8, 0, 12, 77, 12, 36, 2, 25, 0, 0},
       {{16, 20}, {12, 37}}},
      {"mvia",
       0x4d1b15bbaeb075d1ull,
       {0, 0, 8, 0, 0, 96, 12, 46, 2, 0, 0, 0},
       {{20, 24}, {20, 41}}},
  };
  for (const NicRdmaTracePin& pin : pins) {
    SCOPED_TRACE(pin.profile);
    Tracer tracer;
    tracer.enableAll();
    CategoryCounts counts{};
    tracer.setSink([&](const sim::TraceRecord& r) {
      ++counts[static_cast<std::size_t>(r.category)];
    });
    const RdmaPinStats s =
        runNicRdmaTracePin(nic::profileByName(pin.profile), tracer);
    EXPECT_EQ(tracer.digest(), pin.digest) << std::hex << tracer.digest();
    for (std::size_t c = 0; c < kCategories; ++c) {
      EXPECT_EQ(counts[c], pin.counts[c])
          << sim::toString(static_cast<TraceCategory>(c));
    }
    for (std::size_t n = 0; n < 2; ++n) {
      EXPECT_EQ(s.fragsTx[n], pin.stats.fragsTx[n]) << "fragsTx node " << n;
      EXPECT_EQ(s.retransmits[n], pin.stats.retransmits[n])
          << "retransmits node " << n;
    }
  }
}

}  // namespace
}  // namespace vibe
