// Device-resident buffers with explicit, metered host<->device copies.
//
// Mirrors cudaMalloc/cudaMemcpy: host code cannot hand a kernel host
// pointers; it must copy into a Buffer first, and every crossing of the
// boundary is counted so the performance model can price the PCIe traffic
// (Table II's "Host to device copy" and "Device to host copy" columns).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "simt/device.hpp"

namespace tspopt::simt {

template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device buffers hold trivially copyable data");

 public:
  Buffer(Device& device, std::size_t count)
      : device_(&device), data_(count) {}

  std::size_t size() const { return data_.size(); }

  // Grow-only (re)allocation, the cudaMalloc-once idiom: engines that run
  // a pass per ILS iteration keep their buffers across search() calls, so
  // steady-state passes never reallocate device memory.
  void ensure_size(std::size_t count) {
    if (count > data_.size()) data_.resize(count);
  }

  // Copies `src` into elements [offset, offset + src.size()) — one
  // metered transfer, like cudaMemcpy to a device pointer plus offset.
  void copy_from_host(std::span<const T> src, std::size_t offset = 0) {
    TSPOPT_CHECK_MSG(offset <= data_.size() &&
                         src.size() <= data_.size() - offset,
                     "H2D copy larger than buffer");
    obs::Span span = obs::Tracer::global().span("simt.h2d", "simt");
    if (span) {
      span.arg("device", device_->label());
      span.arg("bytes", static_cast<std::uint64_t>(src.size_bytes()));
    }
    std::memcpy(data_.data() + offset, src.data(), src.size_bytes());
    auto& c = device_->counters();
    c.h2d_transfers.fetch_add(1, std::memory_order_relaxed);
    c.h2d_bytes.fetch_add(src.size_bytes(), std::memory_order_relaxed);
  }

  void copy_to_host(std::span<T> dst) const {
    TSPOPT_CHECK_MSG(dst.size() <= data_.size(),
                     "D2H copy larger than buffer");
    obs::Span span = obs::Tracer::global().span("simt.d2h", "simt");
    if (span) {
      span.arg("device", device_->label());
      span.arg("bytes", static_cast<std::uint64_t>(dst.size_bytes()));
    }
    std::memcpy(dst.data(), data_.data(), dst.size_bytes());
    auto& c = device_->counters();
    c.d2h_transfers.fetch_add(1, std::memory_order_relaxed);
    c.d2h_bytes.fetch_add(dst.size_bytes(), std::memory_order_relaxed);
    if (device_->take_readback_corruption()) {
      // An armed corruption fault mangles the leading bytes of the
      // readback: the first word's sign bit is set and the following two
      // words are zeroed — a deterministic stand-in for a botched
      // reduction writeback. The host cannot tell this apart from real
      // data; only semantic validation (solver `validate` mode) can.
      auto* bytes = reinterpret_cast<unsigned char*>(dst.data());
      std::size_t n = std::min<std::size_t>(dst.size_bytes(), 16);
      for (std::size_t k = 0; k < n; ++k) bytes[k] = (k == 3) ? 0x80 : 0x00;
      c.corrupted_results.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Device-side views, for kernels only (by convention — the simulator
  // shares one address space, the paper's GPUs do not).
  std::span<const T> device_view() const { return data_; }
  std::span<T> device_view_mutable() { return data_; }

 private:
  Device* device_;
  std::vector<T> data_;
};

}  // namespace tspopt::simt
