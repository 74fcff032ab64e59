// Allocation budget of the detached data path: heap allocations per
// steady-state cLAN ping-pong round trip (64 B and 64 KB messages) with no
// tracer, profiler or sampler attached. This is its own binary because it
// replaces the global operator new/delete to count every allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "nic/profiles.hpp"
#include "simcore/trace.hpp"
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

/// Allocations made by one whole ping-pong run (setup, warm-up, teardown).
std::uint64_t allocationsFor(int iterations, sim::Tracer* tracer,
                             std::uint64_t msgBytes = 64) {
  suite::ClusterConfig cc;
  cc.profile = nic::clanProfile();
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
                                     std::uint64_t msgBytes = 64) {
  return allocationsFor(300, tracer, msgBytes) -
         allocationsFor(100, tracer, msgBytes);
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

TEST(AllocationBudget, DisabledTracerAddsNoAllocation) {
  sim::Tracer tracer;  // attached, every category disabled
  EXPECT_EQ(steadyStateAllocations(&tracer), steadyStateAllocations(nullptr));
}

}  // namespace
}  // namespace vibe
