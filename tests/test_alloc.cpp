// Allocation budget of the detached data path: heap allocations per
// steady-state ping-pong round trip (cLAN at 64 B and 64 KB, M-VIA at
// 60,000 B) and per raw-mode rpc echo call (cLAN, 256 B) with no tracer,
// profiler or sampler attached. This is its own binary because it
// replaces the global operator new/delete to count every allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "nic/profiles.hpp"
#include "simcore/trace.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/datatransfer.hpp"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void* countedAlloc(std::size_t n, std::size_t align) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these in the standard library.
// The deletes stay out of line: inlined, GCC's -Wmismatched-new-delete
// sees operator new's result reach free() and warns.
void* operator new(std::size_t n) { return countedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlloc(n, static_cast<std::size_t>(a));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace vibe {
namespace {

// Steady-state allocations per 64 B round trip may not exceed this. The
// 64 B cLAN round trip makes 17.88 in every build type: one box per
// packet (2 fragments, 2 acks), one payload block per fragment, and the
// application's descriptor segment vectors, the NIC's work-request
// segment vectors, two Reassembly blocks and deque node churn. It made
// 37.88 while every packet event carried the whole packet in a heap
// closure, the retransmit buffer copied each payload and the provider
// kept posted descriptors in a hash map.
constexpr double kRoundTripBudget = 18.0;

// Per 64 KB round trip (two 32-fragment messages, 2 KB cLAN frames): at
// most 3 allocations per fragment. It made 504.82 when every hop of every
// fragment allocated a closure and every payload was copied twice.
constexpr double kLargeRoundTripBudget = 192.0;

// Per 60,000 B M-VIA round trip (two 40-fragment messages, 1500 B
// Ethernet frames; 65,535 B is M-VIA's largest message): at most 2
// allocations per fragment. It made 217.32 while the kernel's trap-time
// snapshot was a zeroed vector that every fragment copied again into a
// block of its own.
constexpr double kMviaLargeRoundTripBudget = 160.0;

// Per raw-mode 256 B rpc echo call on cLAN: the request and reply frames,
// the server's copy of the request, the handler's reply, the client's copy
// of the reply and its returned payload, plus the data path's own
// allocations for both messages. It makes 23.88; a reply or request
// builder that copied its frame once more would make 24.88.
constexpr double kRpcCallBudget = 24.0;

/// Allocations made by one whole ping-pong run (setup, warm-up, teardown).
std::uint64_t allocationsFor(int iterations, sim::Tracer* tracer,
                             std::uint64_t msgBytes = 64,
                             const nic::NicProfile& profile =
                                 nic::clanProfile()) {
  suite::ClusterConfig cc;
  cc.profile = profile;
  cc.tracer = tracer;
  suite::TransferConfig cfg;
  cfg.msgBytes = msgBytes;
  cfg.iterations = iterations;
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  const suite::TransferResult r = suite::runPingPong(cc, cfg);
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_GT(r.latencyUsec, 0.0);
  return after - before;
}

/// The extra allocations of 200 more round trips: setup, warm-up and
/// teardown cancel out.
std::uint64_t steadyStateAllocations(sim::Tracer* tracer,
                                     std::uint64_t msgBytes = 64,
                                     const nic::NicProfile& profile =
                                         nic::clanProfile()) {
  return allocationsFor(300, tracer, msgBytes, profile) -
         allocationsFor(100, tracer, msgBytes, profile);
}

/// Allocations made by one whole rpc run (setup, `calls` echo calls of
/// 256 B, shutdown and teardown) on 2 cLAN nodes, raw-VI mode.
std::uint64_t rpcAllocationsFor(int calls) {
  suite::ClusterConfig cc;
  cc.profile = nic::clanProfile();
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  {
    suite::Cluster cluster(cc);
    auto server = [](suite::NodeEnv& env) {
      upper::rpc::RpcServer srv(env);
      srv.registerMethod(1, [](std::span<const std::byte> args) {
        return std::vector<std::byte>(args.begin(), args.end());
      });
      srv.acceptClients(1);
      srv.serve();
    };
    auto client = [calls](suite::NodeEnv& env) {
      upper::rpc::RpcClient cli(env, 0);
      const std::vector<std::byte> args(256, std::byte{0x5A});
      for (int i = 0; i < calls; ++i) {
        EXPECT_EQ(cli.call(1, args).size(), args.size());
      }
      cli.shutdown();
    };
    cluster.run({server, client});
  }
  return gAllocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationBudget, DetachedPingPongRoundTrip) {
  const double perTrip =
      static_cast<double>(steadyStateAllocations(nullptr)) / 200.0;
  RecordProperty("allocations_per_round_trip", std::to_string(perTrip));
  EXPECT_LE(perTrip, kRoundTripBudget);
}

TEST(AllocationBudget, DetachedLargeMessageRoundTrip) {
  const double perTrip =
      static_cast<double>(steadyStateAllocations(nullptr, 64 * 1024)) / 200.0;
  RecordProperty("allocations_per_round_trip", std::to_string(perTrip));
  EXPECT_LE(perTrip, kLargeRoundTripBudget);
}

TEST(AllocationBudget, DetachedMviaLargeMessageRoundTrip) {
  const double perTrip = static_cast<double>(steadyStateAllocations(
                             nullptr, 60000, nic::mviaProfile())) /
                         200.0;
  RecordProperty("allocations_per_round_trip", std::to_string(perTrip));
  EXPECT_LE(perTrip, kMviaLargeRoundTripBudget);
}

TEST(AllocationBudget, DetachedRpcEchoCall) {
  const double perCall =
      static_cast<double>(rpcAllocationsFor(300) - rpcAllocationsFor(100)) /
      200.0;
  RecordProperty("allocations_per_call", std::to_string(perCall));
  EXPECT_LE(perCall, kRpcCallBudget);
}

TEST(AllocationBudget, DisabledTracerAddsNoAllocation) {
  sim::Tracer tracer;  // attached, every category disabled
  EXPECT_EQ(steadyStateAllocations(&tracer), steadyStateAllocations(nullptr));
}

}  // namespace
}  // namespace vibe
