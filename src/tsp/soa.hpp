// Structure-of-arrays coordinate view.
//
// The CPU analogue of the paper's coalesced float2 layout: the
// route-ordered Point array splits into two contiguous float arrays so W
// consecutive positions load as two vector registers. Each array carries
// n + 1 entries — the extra entry duplicates position 0, the same +1
// successor staging the tiled engine gives each range, so kernels read
// xs[p + 1] for any position p without a wraparound branch.
//
// Next to the coordinates sit the successor-edge lengths
// succ_len()[p] = |p -> p + 1|, one per position, in the row kernels'
// dist_euc2d arithmetic. They are the removed-edge terms of every 2-opt
// delta (simd::RowArgs, simd::CandRowArgs).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "tsp/metric.hpp"
#include "tsp/point.hpp"

namespace tspopt {

class SoaCoords {
 public:
  // Size without populating: callers fill xs()/ys() (e.g. route-ordering
  // straight from the instance), close() seals the wrap and measure()
  // stages the lengths. Reuses capacity: steady-state re-staging (every
  // 2-opt pass) does not allocate.
  void resize(std::int32_t n) {
    TSPOPT_CHECK(n >= 0);
    n_ = n;
    xs_.resize(static_cast<std::size_t>(n) + 1);
    ys_.resize(static_cast<std::size_t>(n) + 1);
    succ_len_.resize(static_cast<std::size_t>(n));
  }

  // Seal the +1 successor entry: position n wraps to position 0.
  void close() {
    TSPOPT_CHECK(n_ >= 1);
    xs_[static_cast<std::size_t>(n_)] = xs_[0];
    ys_[static_cast<std::size_t>(n_)] = ys_[0];
  }

  // succ_len()[p] from the staged coordinates of p and p + 1 (after
  // close() when p == n - 1).
  void measure(std::int32_t p) {
    const auto at = static_cast<std::size_t>(p);
    succ_len_[at] = dist_euc2d(Point{xs_[at], ys_[at]},
                               Point{xs_[at + 1], ys_[at + 1]});
  }

  // Every position's successor length: the one staging loop of a pass.
  void measure_all() {
    for (std::int32_t p = 0; p < n_; ++p) measure(p);
  }

  std::int32_t n() const { return n_; }
  const float* xs() const { return xs_.data(); }
  const float* ys() const { return ys_.data(); }
  const std::int32_t* succ_len() const { return succ_len_.data(); }
  float* xs() { return xs_.data(); }
  float* ys() { return ys_.data(); }
  std::int32_t* succ_len() { return succ_len_.data(); }

 private:
  std::int32_t n_ = 0;
  std::vector<float> xs_;  // n + 1 entries, [n] == [0]
  std::vector<float> ys_;
  std::vector<std::int32_t> succ_len_;  // n entries
};

}  // namespace tspopt
