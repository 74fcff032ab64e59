// Allocation budget of the detached data path: heap allocations per
// steady-state 64 B cLAN ping-pong round trip with no tracer, profiler or
// sampler attached. This is its own binary because it replaces the global
// operator new/delete to count every allocation.
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

// Steady-state allocations per round trip may not exceed this. The 64 B
// cLAN round trip makes 37.88 in every build type; it made 57.88 while
// every trace point built its message before looking for a tracer and the
// NIC copied each outgoing message whole before fragmenting it.
constexpr double kRoundTripBudget = 45.0;

/// Allocations made by one whole ping-pong run (setup, warm-up, teardown).
std::uint64_t allocationsFor(int iterations, sim::Tracer* tracer) {
  suite::ClusterConfig cc;
  cc.profile = nic::clanProfile();
  cc.tracer = tracer;
  suite::TransferConfig cfg;
  cfg.msgBytes = 64;
  cfg.iterations = iterations;
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  const suite::TransferResult r = suite::runPingPong(cc, cfg);
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_GT(r.latencyUsec, 0.0);
  return after - before;
}

/// The extra allocations of 200 more round trips: setup, warm-up and
/// teardown cancel out.
std::uint64_t steadyStateAllocations(sim::Tracer* tracer) {
  return allocationsFor(300, tracer) - allocationsFor(100, tracer);
}

TEST(AllocationBudget, DetachedPingPongRoundTrip) {
  const double perTrip =
      static_cast<double>(steadyStateAllocations(nullptr)) / 200.0;
  RecordProperty("allocations_per_round_trip", std::to_string(perTrip));
  EXPECT_LE(perTrip, kRoundTripBudget);
}

TEST(AllocationBudget, DisabledTracerAddsNoAllocation) {
  sim::Tracer tracer;  // attached, every category disabled
  EXPECT_EQ(steadyStateAllocations(&tracer), steadyStateAllocations(nullptr));
}

}  // namespace
}  // namespace vibe
