// Host-side coordinate pre-ordering (the paper's Optimization 2, Fig. 6).
//
// Before each pass the host permutes the coordinate array into the route's
// order: ordered[p] = coords[route[p]]. Costs O(n) on the host and removes
// the route[] indirection from every one of the O(n^2) device-side reads.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "tsp/instance.hpp"
#include "tsp/soa.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

inline void order_coordinates(const Instance& instance, const Tour& tour,
                              std::vector<Point>& out) {
  TSPOPT_CHECK(instance.n() == tour.n());
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "coordinate engines require a coordinate-based instance");
  out.resize(static_cast<std::size_t>(tour.n()));
  std::span<const Point> pts = instance.points();
  std::span<const std::int32_t> route = tour.order();
  for (std::size_t p = 0; p < route.size(); ++p) {
    out[p] = pts[static_cast<std::size_t>(route[p])];
  }
}

inline std::vector<Point> order_coordinates(const Instance& instance,
                                            const Tour& tour) {
  std::vector<Point> out;
  order_coordinates(instance, tour, out);
  return out;
}

// Same permutation, straight into the SoA split the vector kernels read
// (one pass, no intermediate Point array), then the successor lengths and
// the tiles the row kernels' reach filters compare against. Reuses `out`'s
// capacity.
inline void order_coordinates_soa(const Instance& instance, const Tour& tour,
                                  SoaCoords& out) {
  TSPOPT_CHECK(instance.n() == tour.n());
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "coordinate engines require a coordinate-based instance");
  out.resize(tour.n());
  std::span<const Point> pts = instance.points();
  std::span<const std::int32_t> route = tour.order();
  float* xs = out.xs();
  float* ys = out.ys();
  for (std::size_t p = 0; p < route.size(); ++p) {
    const Point& pt = pts[static_cast<std::size_t>(route[p])];
    xs[p] = pt.x;
    ys[p] = pt.y;
  }
  out.close();
  out.measure_all();
  out.stage_tiles();
}

}  // namespace tspopt
