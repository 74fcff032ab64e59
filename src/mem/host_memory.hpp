// Simulated per-node user address space.
//
// Benchmark programs need buffers with stable virtual addresses that the
// NIC models can "DMA" from and to. HostMemory is a sparse paged arena:
// addresses are allocated bump-style, and backing pages materialize only
// when bytes are actually touched — a 32 MB registration sweep costs no
// real memory, while data-transfer tests move real bytes end to end.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

namespace vibe::mem {

/// A simulated user-space virtual address.
using VirtAddr = std::uint64_t;

inline constexpr std::uint32_t kPageShift = 12;  // 4 KiB pages (x86, Linux 2.2)
inline constexpr std::uint64_t kPageSize = 1ULL << kPageShift;

/// Page index containing `va`.
constexpr std::uint64_t pageOf(VirtAddr va) { return va >> kPageShift; }

/// Number of pages spanned by [va, va+len). Zero-length spans zero pages.
constexpr std::uint32_t pagesSpanned(VirtAddr va, std::uint64_t len) {
  if (len == 0) return 0;
  return static_cast<std::uint32_t>(pageOf(va + len - 1) - pageOf(va) + 1);
}

class HostMemory {
 public:
  HostMemory() = default;
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  /// Allocates `len` bytes aligned to `align` (power of two). Addresses
  /// start away from zero so 0 can mean "null".
  VirtAddr alloc(std::uint64_t len, std::uint64_t align = 64);

  /// Copies bytes into the simulated address space.
  void write(VirtAddr va, std::span<const std::byte> data);

  /// Copies bytes out of the simulated address space; untouched bytes
  /// read as zero.
  void read(VirtAddr va, std::span<std::byte> out) const;

  /// Fills a range with one byte value.
  void fill(VirtAddr va, std::byte value, std::uint64_t len);

  /// Number of materialized backing pages (diagnostics).
  std::size_t residentPages() const { return pages_.size(); }

 private:
  static constexpr VirtAddr kBase = 0x10000;
  using Page = std::array<std::byte, kPageSize>;

  Page& touch(std::uint64_t pageIdx);

  VirtAddr next_ = kBase;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

}  // namespace vibe::mem
