#include "tsp/neighbor_lists.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tsp/metric.hpp"
#include "tsp/spatial_grid.hpp"

namespace tspopt {

namespace {

// A lower bound, in metric m's units, on the distance between two points
// more than `apart` coordinate units apart along x or y. GEO has none
// (longitude wraps, and east-west distances shrink toward the poles), nor
// has EXPLICIT, whose matrix ignores the display coordinates.
double dist_lower_bound(Metric m, double apart) {
  switch (m) {
    case Metric::kEuc2D:  // the nearest integer to a length > apart
    case Metric::kMan2D:
    case Metric::kMax2D:
      return apart - 0.5;
    case Metric::kCeil2D:
      return apart;
    case Metric::kAtt:  // at least the length / sqrt(10)
      return apart / std::sqrt(10.0);
    case Metric::kGeo:
    case Metric::kExplicit:
      break;
  }
  return -std::numeric_limits<double>::infinity();
}

// Collects the k nearest neighbors of `city` by expanding grid rings.
// `candidates` is caller-owned scratch so parallel workers reuse capacity.
void build_row(const Instance& instance, const SpatialGrid& grid,
               std::int32_t city, std::int32_t k,
               std::vector<std::pair<std::int64_t, std::int32_t>>& candidates) {
  const Point& p = instance.point(city);
  const std::int32_t cx = grid.cell_x(p.x);
  const std::int32_t cy = grid.cell_y(p.y);
  candidates.clear();
  // Expand rings until k candidates are in hand and no unvisited city can
  // tie or beat the k-th: after ring r every unvisited city is more than
  // r * cell coordinate units away along x or y, which dist_lower_bound
  // turns into the metric's units. Ties at the k-th distance are then all
  // in hand for the (distance, id) order. The ring index is bounded: the
  // loop ends once a ring spans the clamped grid (the fuzz test drives the
  // degenerate shapes).
  for (std::int32_t ring = 0;; ++ring) {
    TSPOPT_CHECK_MSG(ring <= grid.max_ring(),
                     "NeighborLists ring expansion failed to terminate");
    const bool covers_whole_grid =
        grid.visit_ring(cx, cy, ring, [&](std::int32_t other) {
          if (other != city) {
            candidates.emplace_back(instance.dist(city, other), other);
          }
        });
    if (covers_whole_grid) break;
    if (static_cast<std::int32_t>(candidates.size()) >= k) {
      std::nth_element(candidates.begin(), candidates.begin() + (k - 1),
                       candidates.end());
      const auto kth = static_cast<double>(
          candidates[static_cast<std::size_t>(k - 1)].first);
      if (dist_lower_bound(instance.metric(),
                           static_cast<double>(ring) * grid.cell()) > kth) {
        break;
      }
    }
  }
  TSPOPT_CHECK(static_cast<std::int32_t>(candidates.size()) >= k);
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end());
}

}  // namespace

NeighborLists::NeighborLists(const Instance& instance, std::int32_t k)
    : n_(instance.n()),
      k_(std::clamp(k, 1, std::max(1, instance.n() - 1))) {
  TSPOPT_CHECK(k >= 1);
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "NeighborLists requires coordinates");
  // Pool workers inherit this span's name via ThreadPool::submit's
  // snapshot, so profiler samples in build_row attribute here too.
  obs::Span span = obs::Tracer::global().span("tsp.neighbor_lists", "tsp");
  std::vector<std::int32_t> cities(static_cast<std::size_t>(n_));
  std::iota(cities.begin(), cities.end(), 0);
  const SpatialGrid grid(instance, cities);
  flat_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_));
  cand_dist_.resize(static_cast<std::size_t>(n_) *
                    static_cast<std::size_t>(k_));

  // Rows are independent and the ring-expansion cost varies with local
  // density, so workers pull dynamic city chunks; each keeps its own
  // candidate scratch. Per-row output is deterministic regardless of the
  // worker that computed it (bucket contents and visit order are fixed by
  // the serial grid build).
  ThreadPool& pool = ThreadPool::shared();
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> scratch(
      pool.size());
  parallel_for_dynamic(
      pool, 0, n_, 512,
      [&](std::int64_t lo, std::int64_t hi, std::size_t worker) {
        auto& candidates = scratch[worker];
        for (std::int64_t city = lo; city < hi; ++city) {
          build_row(instance, grid, static_cast<std::int32_t>(city), k_,
                    candidates);
          const Point& a = instance.point(static_cast<std::int32_t>(city));
          std::size_t base = static_cast<std::size_t>(city) *
                             static_cast<std::size_t>(k_);
          for (std::int32_t j = 0; j < k_; ++j) {
            std::int32_t id = candidates[static_cast<std::size_t>(j)].second;
            flat_[base + static_cast<std::size_t>(j)] = id;
            // Recomputed with dist_euc2d (not instance.dist) so the export
            // matches the coordinate engines' arithmetic bit-for-bit.
            cand_dist_[base + static_cast<std::size_t>(j)] =
                dist_euc2d(a, instance.point(id));
          }
        }
      });
}

}  // namespace tspopt
