// Uniform bucket grid over a set of cities, searched ring by ring.
//
// The k-NN list build (tsp/neighbor_lists) and multiple fragment's
// fragment stitch (solver/constructive) both find the nearest cities of a
// set by visiting cells outward from a query cell. This is the one grid
// they share: square cells sized for ~1-2 cities each over the set's
// bounding box, stored flat (CSR), each bucket holding its cities in the
// ascending order the set was given.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "tsp/instance.hpp"

namespace tspopt {

class SpatialGrid {
 public:
  // Buckets `cities` (ascending, non-empty, finite coordinates).
  SpatialGrid(const Instance& instance, std::span<const std::int32_t> cities) {
    TSPOPT_CHECK(!cities.empty());
    Point lo = instance.point(cities.front());
    Point hi = lo;
    for (std::int32_t c : cities) {
      const Point& p = instance.point(c);
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    TSPOPT_CHECK_MSG(std::isfinite(lo.x) && std::isfinite(lo.y) &&
                         std::isfinite(hi.x) && std::isfinite(hi.y),
                     "a spatial grid requires finite coordinates");
    lo_ = lo;
    // Degenerate extents (all-identical points, collinear sets) clamp to a
    // 1x1 span: the grid is then small and a ring search degenerates to a
    // near-exhaustive scan, which is still correct and still terminates.
    const float w = std::max(hi.x - lo.x, 1.0f);
    const float h = std::max(hi.y - lo.y, 1.0f);
    const auto per_side =
        static_cast<float>(std::sqrt(static_cast<double>(cities.size())));
    cell_ = std::max(w, h) / std::max(1.0f, per_side);
    if (!(cell_ > 0.0f) || !std::isfinite(cell_)) cell_ = 1.0f;
    cells_x_ = std::max(1, static_cast<std::int32_t>(w / cell_) + 1);
    cells_y_ = std::max(1, static_cast<std::int32_t>(h / cell_) + 1);
    // Counting sort by cell; the in-order fill keeps each bucket ascending.
    auto cell_of = [&](std::int32_t c) {
      const Point& p = instance.point(c);
      return static_cast<std::size_t>(cell_y(p.y) * cells_x_ + cell_x(p.x));
    };
    start_.assign(static_cast<std::size_t>(cells_x_ * cells_y_) + 1, 0);
    for (std::int32_t c : cities) ++start_[cell_of(c) + 1];
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    std::vector<std::int32_t> fill(start_.begin(), start_.end() - 1);
    ids_.resize(cities.size());
    for (std::int32_t c : cities) {
      ids_[static_cast<std::size_t>(fill[cell_of(c)]++)] = c;
    }
  }

  // The side of a cell, in coordinate units.
  float cell() const { return cell_; }

  // The cell column / row of a coordinate inside the bounding box.
  std::int32_t cell_x(float x) const {
    return std::clamp(static_cast<std::int32_t>((x - lo_.x) / cell_), 0,
                      cells_x_ - 1);
  }
  std::int32_t cell_y(float y) const {
    return std::clamp(static_cast<std::int32_t>((y - lo_.y) / cell_), 0,
                      cells_y_ - 1);
  }

  // No ring search needs more rings than this to cover the grid.
  std::int32_t max_ring() const { return cells_x_ + cells_y_; }

  // Calls visit(city) for every city bucketed in the cells at Chebyshev
  // distance `ring` from cell (cx, cy), clamped to the grid; ring 0 is the
  // cell itself. After rings 0..ring around a point's cell, every city not
  // yet visited lies more than ring * cell() from that point along x or y.
  // Returns true when rings 0..ring have visited every city.
  template <typename Visit>
  bool visit_ring(std::int32_t cx, std::int32_t cy, std::int32_t ring,
                  Visit&& visit) const {
    const std::int32_t x0 = std::max(cx - ring, 0);
    const std::int32_t x1 = std::min(cx + ring, cells_x_ - 1);
    const std::int32_t y0 = std::max(cy - ring, 0);
    const std::int32_t y1 = std::min(cy + ring, cells_y_ - 1);
    // Cells gx0..gx1 of row gy hold one contiguous run of ids_.
    auto visit_cells = [&](std::int32_t gy, std::int32_t gx0,
                           std::int32_t gx1) {
      for (std::int32_t i = start_[static_cast<std::size_t>(gy * cells_x_ + gx0)];
           i < start_[static_cast<std::size_t>(gy * cells_x_ + gx1 + 1)]; ++i) {
        visit(ids_[static_cast<std::size_t>(i)]);
      }
    };
    for (std::int32_t gy = y0; gy <= y1; ++gy) {
      if (gy == cy - ring || gy == cy + ring) {
        visit_cells(gy, x0, x1);
        continue;
      }
      if (cx - ring >= 0) visit_cells(gy, cx - ring, cx - ring);
      if (cx + ring < cells_x_) visit_cells(gy, cx + ring, cx + ring);
    }
    return x0 == 0 && y0 == 0 && x1 == cells_x_ - 1 && y1 == cells_y_ - 1;
  }

 private:
  Point lo_;
  float cell_ = 1.0f;
  std::int32_t cells_x_ = 1;
  std::int32_t cells_y_ = 1;
  std::vector<std::int32_t> start_;  // cells + 1 offsets into ids_
  std::vector<std::int32_t> ids_;    // the cities, bucket after bucket
};

}  // namespace tspopt
