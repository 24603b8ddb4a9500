// Uniform bucket grid over a set of cities, searched ring by ring.
//
// The k-NN list build (tsp/neighbor_lists) and multiple fragment's
// fragment stitch (solver/constructive) both find the nearest cities of a
// set by visiting cells outward from a query cell. This is the one grid
// they share: square cells sized for ~1-2 cities each over the set's
// bounding box, stored flat (CSR) in row-major cell order, each bucket
// holding its cities in the ascending order the set was given. Every
// bucket slot keeps its city's coordinates beside its id, so a search
// reads the cells it visits as contiguous runs of floats rather than one
// scattered Instance::point per city. The list build also walks the cells
// along a Hilbert curve (visit_hilbert) to order its rows and give every
// city a spatial label.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
    // Cell assignment rounds (x - lo) and its quotient by cell() in float,
    // and a metric's float arithmetic rounds a separation again: each
    // rounding is within 2^-24 of a value below 2 * magnitude + cell(),
    // which 2^-20 * (magnitude + cell()) covers with room to spare.
    const float magnitude = std::max({std::abs(lo.x), std::abs(lo.y),
                                      std::abs(hi.x), std::abs(hi.y)});
    margin_ = std::ldexp(static_cast<double>(magnitude) + cell_, -20);
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
    xs_.resize(cities.size());
    ys_.resize(cities.size());
    for (std::int32_t c : cities) {
      const auto slot = static_cast<std::size_t>(fill[cell_of(c)]++);
      ids_[slot] = c;
      xs_[slot] = instance.point(c).x;
      ys_[slot] = instance.point(c).y;
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

  // The bucketed cities, bucket after bucket: slot i holds city ids()[i]
  // at (xs()[i], ys()[i]). The visitors below name runs of slots.
  std::span<const std::int32_t> ids() const { return ids_; }
  std::span<const float> xs() const { return xs_; }
  std::span<const float> ys() const { return ys_; }

  // Calls visit(begin, end) with each cell's run of slots, cell by cell
  // in the order a Hilbert curve visits the cells. Cities close in this
  // order are close in the plane. The curve fills the smallest
  // power-of-two square over the grid, and its quadrants that miss the
  // grid are skipped whole, so the walk costs O(cells): the grid is at
  // most ~sqrt(n) + 1 cells on a side.
  template <typename Visit>
  void visit_hilbert(Visit&& visit) const {
    std::int32_t side = 1;
    while (side < std::max(cells_x_, cells_y_)) side *= 2;
    hilbert_walk(0, 0, 1, 0, 0, 1, side, visit);
  }

  // No ring search needs more rings than this to cover the grid.
  std::int32_t max_ring() const { return cells_x_ + cells_y_; }

  // Calls visit(begin, end) with the runs of slots bucketed in the cells
  // at Chebyshev distance `ring` from cell (cx, cy), clamped to the grid;
  // ring 0 is the cell itself. Each run is the cells of one grid row that
  // the ring crosses. Returns true when rings 0..ring have visited every
  // city.
  template <typename Visit>
  bool visit_ring(std::int32_t cx, std::int32_t cy, std::int32_t ring,
                  Visit&& visit) const {
    const std::int32_t x0 = std::max(cx - ring, 0);
    const std::int32_t x1 = std::min(cx + ring, cells_x_ - 1);
    const std::int32_t y0 = std::max(cy - ring, 0);
    const std::int32_t y1 = std::min(cy + ring, cells_y_ - 1);
    // Cells gx0..gx1 of row gy hold one contiguous run of slots.
    auto visit_cells = [&](std::int32_t gy, std::int32_t gx0,
                           std::int32_t gx1) {
      const std::int32_t begin =
          start_[static_cast<std::size_t>(gy * cells_x_ + gx0)];
      const std::int32_t end =
          start_[static_cast<std::size_t>(gy * cells_x_ + gx1 + 1)];
      if (begin < end) visit(begin, end);
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

  // After rings 0..ring around cell (cx, cy), a lower bound on how far
  // every city not yet visited lies from (x, y) along x or y: the
  // distance from (x, y) to the nearest side of the visited square that
  // has cells beyond it, less the rounding margin (so a city that float
  // cell assignment put just outside a side it exactly lies inside still
  // counts). Infinite when the square covers the grid. (x, y) is a
  // point bucketed in cell (cx, cy).
  double unvisited_gap(float x, float y, std::int32_t cx, std::int32_t cy,
                       std::int32_t ring) const {
    double gap = std::numeric_limits<double>::infinity();
    const auto side = [&](std::int32_t cells) {
      return static_cast<double>(cells) * static_cast<double>(cell_);
    };
    if (cx - ring > 0) gap = std::min(gap, x - (lo_.x + side(cx - ring)));
    if (cx + ring < cells_x_ - 1) {
      gap = std::min(gap, lo_.x + side(cx + ring + 1) - x);
    }
    if (cy - ring > 0) gap = std::min(gap, y - (lo_.y + side(cy - ring)));
    if (cy + ring < cells_y_ - 1) {
      gap = std::min(gap, lo_.y + side(cy + ring + 1) - y);
    }
    return gap - margin_;
  }

 private:
  // Visits the cells of the side x side square whose curve starts at
  // cell (x, y), leaves it along the unit vector a = (ax, ay) and ends at
  // (x, y) + (side - 1) * a; b = (bx, by) is its other axis. Each quadrant
  // is the same curve, transposed (first), as is (second, third), or
  // transposed and flipped (fourth), so that consecutive quadrants meet
  // at adjacent cells.
  template <typename Visit>
  void hilbert_walk(std::int32_t x, std::int32_t y, std::int32_t ax,
                    std::int32_t ay, std::int32_t bx, std::int32_t by,
                    std::int32_t side, Visit& visit) const {
    const std::int32_t reach = side - 1;
    if (std::min(x, x + reach * (ax + bx)) >= cells_x_ ||
        std::min(y, y + reach * (ay + by)) >= cells_y_) {
      return;  // the square misses the grid
    }
    if (side == 1) {
      const auto cell = static_cast<std::size_t>(y * cells_x_ + x);
      if (start_[cell] < start_[cell + 1]) {
        visit(start_[cell], start_[cell + 1]);
      }
      return;
    }
    const std::int32_t h = side / 2;
    hilbert_walk(x, y, bx, by, ax, ay, h, visit);
    hilbert_walk(x + h * bx, y + h * by, ax, ay, bx, by, h, visit);
    hilbert_walk(x + h * (ax + bx), y + h * (ay + by), ax, ay, bx, by, h,
                 visit);
    hilbert_walk(x + reach * ax + (h - 1) * bx,
                 y + reach * ay + (h - 1) * by, -bx, -by, -ax, -ay, h, visit);
  }

  Point lo_;
  float cell_ = 1.0f;
  double margin_ = 0.0;  // see unvisited_gap
  std::int32_t cells_x_ = 1;
  std::int32_t cells_y_ = 1;
  std::vector<std::int32_t> start_;  // cells + 1 offsets into the slots
  std::vector<std::int32_t> ids_;    // slot -> city, bucket after bucket
  std::vector<float> xs_;            // slot -> the city's x
  std::vector<float> ys_;            // slot -> the city's y
};

}  // namespace tspopt
