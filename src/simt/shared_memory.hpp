// Per-block shared-memory arena.
//
// A bump allocator over a fixed-size byte buffer whose capacity is the
// device's shared-memory-per-block limit. This is what enforces the
// paper's constraints in the simulator: a single coordinate range tops out
// at 6144 cities in 48 kB, and the two-range tiled kernel at 3072 cities
// per range (paper §IV-A/B).
//
// Arenas are reused across launches (one per pool worker thread, see
// thread_arena()), so their backing storage is grow-mostly — but bounded:
// retargeting to a much smaller device limit releases the excess (with a
// 2x hysteresis so alternating between a 48 kB GeForce and a 64 kB Radeon
// never thrashes), and every live arena's storage is accounted in a
// process-wide total so server workloads can assert the fleet of worker
// arenas stays bounded (tests/test_alloc_reuse.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace tspopt::simt {

class SharedMemory {
 public:
  explicit SharedMemory(std::uint32_t capacity_bytes)
      : storage_(capacity_bytes), limit_(capacity_bytes) {
    live_bytes().fetch_add(storage_.size(), std::memory_order_relaxed);
  }

  SharedMemory(const SharedMemory&) = delete;
  SharedMemory& operator=(const SharedMemory&) = delete;

  ~SharedMemory() {
    live_bytes().fetch_sub(storage_.size(), std::memory_order_relaxed);
  }

  // The calling thread's launch arena: one per thread, shared by every
  // kernel and device, created on first use and reused across launches
  // (see Device::launch).
  static SharedMemory& thread_arena() {
    thread_local SharedMemory arena(0);
    return arena;
  }

  std::uint32_t capacity() const { return limit_; }
  std::uint32_t used() const { return used_; }
  std::size_t storage_bytes() const { return storage_.size(); }

  // Allocate `count` elements of T, aligned to alignof(T). Throws
  // CheckError when the block's shared memory is exhausted — the same
  // failure a CUDA kernel launch would report.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    auto align = static_cast<std::uint32_t>(alignof(T));
    std::uint32_t offset = (used_ + align - 1) / align * align;
    auto bytes = static_cast<std::uint64_t>(count) * sizeof(T);
    TSPOPT_CHECK_MSG(
        offset + bytes <= limit_,
        "shared memory exhausted: need " << bytes << " B at offset " << offset
                                         << ", capacity " << limit_);
    used_ = offset + static_cast<std::uint32_t>(bytes);
    // storage_ is char-backed and we only ever hand out trivial types.
    return {reinterpret_cast<T*>(storage_.data() + offset), count};
  }

  // Release everything (between kernel phases of different launches).
  void reset() { used_ = 0; }

  // Retarget the arena to a device's limit, for arenas reused across
  // launches (possibly on devices with different shared-memory limits).
  // The enforcement limit always becomes `capacity_bytes` exactly. The
  // backing storage grows on demand and shrinks back to the new limit when
  // it exceeds twice the request — so steady-state launches on one device
  // allocate nothing, mixed-device reuse never thrashes, and a worker
  // arena's footprint is bounded at 2x the largest recent device limit
  // rather than at the all-time high-water mark. Resizing an in-use arena
  // would invalidate outstanding alloc() spans, so this is only legal on a
  // reset arena.
  void set_capacity(std::uint32_t capacity_bytes) {
    TSPOPT_CHECK(used_ == 0);
    if (capacity_bytes > storage_.size() ||
        storage_.size() > 2 * static_cast<std::size_t>(capacity_bytes)) {
      live_bytes().fetch_sub(storage_.size(), std::memory_order_relaxed);
      storage_.resize(capacity_bytes);
      storage_.shrink_to_fit();
      live_bytes().fetch_add(storage_.size(), std::memory_order_relaxed);
    }
    limit_ = capacity_bytes;
  }

  // Process-wide sum of backing storage across live arenas, in bytes. The
  // serve stress tests assert this stays bounded by (pool workers) x
  // (largest device limit) no matter how many short-lived threads run
  // launches.
  static std::uint64_t live_storage_bytes() {
    return live_bytes().load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<std::uint64_t>& live_bytes() {
    static std::atomic<std::uint64_t> bytes{0};
    return bytes;
  }

  std::vector<char> storage_;
  std::uint32_t limit_ = 0;  // enforced capacity; <= storage_.size()
  std::uint32_t used_ = 0;
};

}  // namespace tspopt::simt
