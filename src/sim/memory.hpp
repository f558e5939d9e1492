// Simulated device address space.
//
// Kernels do their real arithmetic on host matrices, but every *global
// memory* touch they would make on the GPU is also emitted as an `Access`
// against a virtual device address. `AddressSpace` hands out disjoint,
// line-aligned buffers so the cache model sees a realistic layout
// (feature matrices, edge arrays and CSR indices in separate regions).
#pragma once

#include <cassert>
#include <cstdint>
#include <string_view>

namespace gnnbridge::sim {

/// A contiguous allocation in the simulated global memory.
struct Buffer {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;

  /// Virtual address of byte `offset` within the buffer.
  std::uint64_t addr(std::uint64_t offset) const {
    assert(offset < bytes);
    return base + offset;
  }
  /// Address of element `i` of an array of `elem_bytes`-sized elements.
  std::uint64_t elem_addr(std::uint64_t i, std::uint32_t elem_bytes) const {
    return addr(i * elem_bytes);
  }
};

/// Bump allocator for simulated device memory. Buffers are aligned to 256 B
/// (the CUDA allocator guarantee) and never freed — lifetimes in our
/// experiments are kernel-sequence-scoped anyway.
class AddressSpace {
 public:
  /// Allocates `bytes` of device memory. `name` labels the buffer at the
  /// call site only; the space keeps nothing but the bump pointer.
  Buffer alloc([[maybe_unused]] std::string_view name, std::uint64_t bytes) {
    constexpr std::uint64_t kAlign = 256;
    next_ = (next_ + kAlign - 1) / kAlign * kAlign;
    Buffer b{next_, bytes == 0 ? 1 : bytes};
    next_ += b.bytes;
    total_ += b.bytes;
    return b;
  }

  /// Total bytes allocated so far — the simulated memory footprint.
  /// Used to reproduce the paper's OOM entries (Figure 7): a run whose
  /// footprint exceeds the device's 32 GB is reported as out-of-memory.
  std::uint64_t total_allocated() const { return total_; }

 private:
  std::uint64_t next_ = 1 << 20;  // leave page zero unused
  std::uint64_t total_ = 0;
};

}  // namespace gnnbridge::sim
