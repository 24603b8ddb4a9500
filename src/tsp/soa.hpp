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
//
// The route-ordered staging also splits positions into tiles of kTile
// consecutive positions, [t * kTile, (t + 1) * kTile) clipped to n. After a
// descent a tile is a compact patch of the plane, so its bounds (the
// bounding box of its coordinates and its longest successor edge) bound
// every pair (i, j) with i in the tile: the triangle row kernel's tile
// reach filter (simd::RowArgs::tiles) rests on them. stage_tiles() builds
// them from the staged coordinates and lengths, once per pass; callers
// that never run the triangle row kernel (PrunedSweep) never stage them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "tsp/metric.hpp"
#include "tsp/point.hpp"

namespace tspopt {

// The bounds of TileGroup::kLanes consecutive tiles, one lane per tile,
// so a vector kernel tests eight tiles with five loads: tile t is lane
// t % kLanes of group t / kLanes. Over the positions p of a tile, the box
// [x_lo, x_hi] x [y_lo, y_hi] holds every staged (xs[p], ys[p]), and
// max_succ_len is the largest succ_len()[p]. Lanes past the last tile are
// zero and describe no positions.
struct alignas(32) TileGroup {
  static constexpr std::int32_t kLanes = 8;
  float x_lo[kLanes] = {};
  float x_hi[kLanes] = {};
  float y_lo[kLanes] = {};
  float y_hi[kLanes] = {};
  std::int32_t max_succ_len[kLanes] = {};
};

class SoaCoords {
 public:
  static constexpr std::int32_t kTileShift = 6;
  static constexpr std::int32_t kTile = 1 << kTileShift;

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

  // Every tile's bounds, from the staged coordinates and lengths (after
  // measure_all()). The tile of position p is p >> kTileShift.
  void stage_tiles() {
    const std::size_t tiles =
        static_cast<std::size_t>((n_ + kTile - 1) >> kTileShift);
    tiles_.assign((tiles + TileGroup::kLanes - 1) / TileGroup::kLanes,
                  TileGroup{});
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t begin = t << kTileShift;
      const std::size_t end =
          std::min(begin + kTile, static_cast<std::size_t>(n_));
      float x_lo = xs_[begin];
      float x_hi = x_lo;
      float y_lo = ys_[begin];
      float y_hi = y_lo;
      std::int32_t max_succ_len = succ_len_[begin];
      for (std::size_t p = begin + 1; p < end; ++p) {
        x_lo = std::min(x_lo, xs_[p]);
        x_hi = std::max(x_hi, xs_[p]);
        y_lo = std::min(y_lo, ys_[p]);
        y_hi = std::max(y_hi, ys_[p]);
        max_succ_len = std::max(max_succ_len, succ_len_[p]);
      }
      TileGroup& group = tiles_[t / TileGroup::kLanes];
      const std::size_t lane = t % TileGroup::kLanes;
      group.x_lo[lane] = x_lo;
      group.x_hi[lane] = x_hi;
      group.y_lo[lane] = y_lo;
      group.y_hi[lane] = y_hi;
      group.max_succ_len[lane] = max_succ_len;
    }
  }

  std::int32_t n() const { return n_; }
  const float* xs() const { return xs_.data(); }
  const float* ys() const { return ys_.data(); }
  const std::int32_t* succ_len() const { return succ_len_.data(); }
  const TileGroup* tiles() const { return tiles_.data(); }
  float* xs() { return xs_.data(); }
  float* ys() { return ys_.data(); }
  std::int32_t* succ_len() { return succ_len_.data(); }

 private:
  std::int32_t n_ = 0;
  std::vector<float> xs_;  // n + 1 entries, [n] == [0]
  std::vector<float> ys_;
  std::vector<std::int32_t> succ_len_;  // n entries
  std::vector<TileGroup> tiles_;  // ceil(n / kTile) lanes, by stage_tiles()
};

}  // namespace tspopt
