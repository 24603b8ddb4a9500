#include "tsp/neighbor_lists.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
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
// at least `apart` coordinate units apart along x or y. GEO has none
// (longitude wraps, and east-west distances shrink toward the poles), nor
// has EXPLICIT, whose matrix ignores the display coordinates.
double dist_lower_bound(Metric m, double apart) {
  switch (m) {
    case Metric::kEuc2D:  // the nearest integer to a length >= apart
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

// A row entry, ordered by (distance, id): the order rows are listed in.
using Entry = std::pair<std::int32_t, std::int32_t>;

// Fills `row` with the k = row.size() nearest neighbors of `city`, in
// (distance, id) order, by expanding grid rings. The row holds only the k
// best entries seen so far, ascending; once it is full, a candidate is
// measured only if dist_lower_bound cannot rule it out, and a better one
// evicts the k-th.
void build_row(const Instance& instance, const SpatialGrid& grid,
               std::int32_t city, std::span<Entry> row) {
  const Metric metric = instance.metric();
  const Point& p = instance.point(city);
  const std::int32_t cx = grid.cell_x(p.x);
  const std::int32_t cy = grid.cell_y(p.y);
  const std::size_t k = row.size();
  std::size_t size = 0;
  auto offer = [&](std::int32_t other) {
    if (other == city) return;
    if (size == k) {
      // The separation as both float and double arithmetic see it, so the
      // bound holds whichever one the metric computes in.
      const Point& q = instance.point(other);
      const double apart = std::min<double>(
          std::max(std::abs(p.x - q.x), std::abs(p.y - q.y)),
          std::max(std::abs(static_cast<double>(p.x) - q.x),
                   std::abs(static_cast<double>(p.y) - q.y)));
      if (dist_lower_bound(metric, apart) > row[k - 1].first) return;
    }
    const Entry entry{instance.dist(city, other), other};
    std::size_t i = size;
    if (size < k) {
      ++size;
    } else if (entry < row[k - 1]) {
      --i;  // evict the k-th
    } else {
      return;
    }
    for (; i > 0 && entry < row[i - 1]; --i) row[i] = row[i - 1];
    row[i] = entry;
  };
  // Expand rings until the row is full and no unvisited city can tie or
  // beat its k-th entry: after ring r every unvisited city is more than
  // r * cell coordinate units away along x or y, which dist_lower_bound
  // turns into the metric's units. Ties at the k-th distance are then all
  // in hand for the (distance, id) order. The ring index is bounded: the
  // loop ends once a ring spans the clamped grid (the fuzz test drives the
  // degenerate shapes).
  for (std::int32_t ring = 0;; ++ring) {
    TSPOPT_CHECK_MSG(ring <= grid.max_ring(),
                     "NeighborLists ring expansion failed to terminate");
    if (grid.visit_ring(cx, cy, ring, offer)) break;
    if (size == k &&
        dist_lower_bound(metric, static_cast<double>(ring) * grid.cell()) >
            row[k - 1].first) {
      break;
    }
  }
  TSPOPT_CHECK(size == k);
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
  // The grid copies the ascending city ids it buckets, so labels_ holds
  // them until the Hilbert walk overwrites each city's entry.
  labels_.resize(static_cast<std::size_t>(n_));
  std::iota(labels_.begin(), labels_.end(), 0);
  const SpatialGrid grid(instance, labels_);
  std::int32_t next_label = 0;
  grid.visit_hilbert([&](std::int32_t city) {
    labels_[static_cast<std::size_t>(city)] = next_label++;
  });
  flat_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_));
  cand_dist_.resize(static_cast<std::size_t>(n_) *
                    static_cast<std::size_t>(k_));

  // Rows are independent and the ring-expansion cost varies with local
  // density, so workers pull dynamic city chunks. Each chunk allocates its
  // own row scratch, so no two workers write one cache line (adjacent
  // per-worker scratch slots false-share). Per-row output is
  // deterministic regardless of the worker that computed it (bucket
  // contents and visit order are fixed by the serial grid build).
  ThreadPool& pool = ThreadPool::shared();
  parallel_for_dynamic(
      pool, 0, n_, 512, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        std::vector<Entry> row(static_cast<std::size_t>(k_));
        for (std::int64_t city = lo; city < hi; ++city) {
          build_row(instance, grid, static_cast<std::int32_t>(city), row);
          const Point& a = instance.point(static_cast<std::int32_t>(city));
          std::size_t base = static_cast<std::size_t>(city) *
                             static_cast<std::size_t>(k_);
          for (std::int32_t j = 0; j < k_; ++j) {
            std::int32_t id = row[static_cast<std::size_t>(j)].second;
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
