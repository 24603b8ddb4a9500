// Precomputed O(n^2) distance look-up table.
//
// The paper's Table I contrasts this LUT approach (fast per-query, O(n^2)
// space) with recomputing distances from O(n) coordinates — and argues GPUs
// must do the latter. We build the LUT anyway: it is the memory-accounting
// subject of Table I and a useful CPU-side acceleration for small n.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "tsp/instance.hpp"

namespace tspopt {

class DistanceMatrix {
 public:
  // Largest n the LUT is built for: 20000^2 int32 entries are 1.6 GB.
  static constexpr std::int32_t kMaxCities = 20000;

  explicit DistanceMatrix(const Instance& instance);

  std::int32_t n() const { return n_; }

  std::int32_t dist(std::int32_t a, std::int32_t b) const {
    TSPOPT_DCHECK(a >= 0 && a < n_ && b >= 0 && b < n_);
    return lut_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(b)];
  }

  // Bytes held by the LUT — the "Memory needed for LUT" column of Table I.
  std::size_t memory_bytes() const { return lut_.size() * sizeof(std::int32_t); }

  // Bytes needed to store the raw coordinates instead — Table I's other
  // column: n * sizeof(float2).
  static std::size_t coordinate_bytes(std::int64_t n) {
    return static_cast<std::size_t>(n) * 2 * sizeof(float);
  }
  static std::size_t lut_bytes(std::int64_t n) {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
           sizeof(std::int32_t);
  }

 private:
  std::int32_t n_;
  std::vector<std::int32_t> lut_;
};

}  // namespace tspopt
