#include "tsp/neighbor_lists.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

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

// A row entry as one key: the distance (biased so that signed order is
// unsigned order) above the id, so keys order as (distance, id) pairs do.
using Key = std::uint64_t;

Key make_key(std::int32_t d, std::int32_t id) {
  return static_cast<Key>(static_cast<std::uint32_t>(d) ^ 0x80000000u) << 32 |
         static_cast<std::uint32_t>(id);
}
std::int32_t key_dist(Key key) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32) ^
                                   0x80000000u);
}
std::int32_t key_id(Key key) { return static_cast<std::int32_t>(key); }

// Distances are measured a block of a run at a time, in a loop the
// compiler vectorizes, before the row filters them.
constexpr std::int32_t kBlock = 64;

// Fills `row` with the k = row.size() nearest neighbors of the city in
// grid slot `slot`, as keys in (distance, id) order, by expanding grid
// rings. `dist(p, a, qx, qy, b)` is the metric distance from city a at p
// to city b at (qx, qy). The row holds only the k best entries seen so
// far, ascending; a run's distances are measured together, and only
// those that beat the k-th entry are inserted.
template <typename Dist>
void build_row(const SpatialGrid& grid, Metric metric, const Dist& dist,
               std::int32_t slot, std::span<Key> row) {
  const std::span<const std::int32_t> ids = grid.ids();
  const std::span<const float> xs = grid.xs();
  const std::span<const float> ys = grid.ys();
  const auto at = [](std::int32_t i) { return static_cast<std::size_t>(i); };
  const std::int32_t city = ids[at(slot)];
  const Point p{xs[at(slot)], ys[at(slot)]};
  const std::int32_t cx = grid.cell_x(p.x);
  const std::int32_t cy = grid.cell_y(p.y);
  const std::size_t k = row.size();
  std::size_t size = 0;
  // Until the row is full every candidate but the city itself enters;
  // then kth, the row's k-th key, is the bar a candidate must beat.
  Key kth = std::numeric_limits<Key>::max();
  auto measure = [&](std::int32_t begin, std::int32_t end) {
    std::int32_t d[kBlock];
    for (std::int32_t b = begin; b < end; b += kBlock) {
      const std::int32_t m = std::min(kBlock, end - b);
      for (std::int32_t j = 0; j < m; ++j) {
        d[j] = dist(p, city, xs[at(b + j)], ys[at(b + j)], ids[at(b + j)]);
      }
      for (std::int32_t j = 0; j < m; ++j) {
        const std::int32_t other = ids[at(b + j)];
        const Key key = make_key(d[j], other);
        if (key >= kth || other == city) continue;
        std::size_t i = size < k ? size++ : k - 1;  // append or evict
        for (; i > 0 && key < row[i - 1]; --i) row[i] = row[i - 1];
        row[i] = key;
        if (size == k) kth = row[k - 1];
      }
    }
  };
  // Expand rings until the row is full and no unvisited city can tie or
  // beat its k-th entry: unvisited_gap bounds every unvisited city's
  // separation along x or y, which dist_lower_bound turns into the
  // metric's units. Ties at the k-th distance are then all in hand for
  // the (distance, id) order. The ring index is bounded: the loop ends
  // once a ring spans the clamped grid (the fuzz test drives the
  // degenerate shapes).
  for (std::int32_t ring = 0;; ++ring) {
    TSPOPT_CHECK_MSG(ring <= grid.max_ring(),
                     "NeighborLists ring expansion failed to terminate");
    if (grid.visit_ring(cx, cy, ring, measure)) break;
    if (size == k &&
        dist_lower_bound(metric, grid.unvisited_gap(p.x, p.y, cx, cy, ring)) >
            key_dist(kth)) {
      break;
    }
  }
  TSPOPT_CHECK(size == k);
}

// Calls build(dist) once with the instance metric's distance, in the
// signature build_row takes: the one dispatch on the metric per build.
template <typename Build>
void with_metric_dist(const Instance& instance, Build&& build) {
  auto coords = [&](auto metric_dist) {
    build([metric_dist](const Point& p, std::int32_t, float qx, float qy,
                        std::int32_t) {
      return metric_dist(p, Point{qx, qy});
    });
  };
  using P = const Point&;
  switch (instance.metric()) {
    case Metric::kEuc2D:
      return coords([](P a, P b) { return dist_euc2d(a, b); });
    case Metric::kCeil2D:
      return coords([](P a, P b) { return dist_ceil2d(a, b); });
    case Metric::kMan2D:
      return coords([](P a, P b) { return dist_man2d(a, b); });
    case Metric::kMax2D:
      return coords([](P a, P b) { return dist_max2d(a, b); });
    case Metric::kAtt:
      return coords([](P a, P b) { return dist_att(a, b); });
    case Metric::kGeo:
      return coords([](P a, P b) { return dist_geo(a, b); });
    case Metric::kExplicit:
      return build([&instance](const Point&, std::int32_t a, float, float,
                               std::int32_t b) { return instance.dist(a, b); });
  }
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
  // One Hilbert walk of the cells both labels the cities and orders the
  // rows: slots[label] is the grid slot of the city with that label.
  const auto at = [](std::int64_t i) { return static_cast<std::size_t>(i); };
  const std::span<const std::int32_t> ids = grid.ids();
  std::vector<std::int32_t> slots(at(n_));
  std::int32_t next_label = 0;
  grid.visit_hilbert([&](std::int32_t begin, std::int32_t end) {
    for (std::int32_t slot = begin; slot < end; ++slot) {
      slots[at(next_label)] = slot;
      labels_[at(ids[at(slot)])] = next_label++;
    }
  });
  flat_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_));
  cand_dist_.resize(static_cast<std::size_t>(n_) *
                    static_cast<std::size_t>(k_));

  // Rows are independent and the ring-expansion cost varies with local
  // density, so workers pull dynamic chunks of rows in label order: the
  // rows of a chunk are neighbors in the plane, so their rings share
  // cells and stay in cache. Each chunk allocates its own row scratch, so
  // no two workers write one cache line (adjacent per-worker scratch
  // slots false-share). Per-row output is deterministic regardless of
  // the worker that computed it (bucket contents and visit order are
  // fixed by the serial grid build).
  const Metric metric = instance.metric();
  with_metric_dist(instance, [&](const auto& dist) {
    parallel_for_dynamic(
        ThreadPool::shared(), 0, n_, 512,
        [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          std::vector<Key> row(static_cast<std::size_t>(k_));
          for (std::int64_t label = lo; label < hi; ++label) {
            const std::int32_t slot = slots[at(label)];
            build_row(grid, metric, dist, slot, row);
            const std::int32_t city = ids[at(slot)];
            const std::size_t base = at(city) * row.size();
            for (std::size_t j = 0; j < row.size(); ++j) {
              flat_[base + j] = key_id(row[j]);
              // An EUC_2D row's distance is already dist_euc2d, the
              // coordinate engines' arithmetic; other metrics measure
              // the candidate edge again with it.
              cand_dist_[base + j] =
                  metric == Metric::kEuc2D
                      ? key_dist(row[j])
                      : dist_euc2d(instance.point(city),
                                   instance.point(key_id(row[j])));
            }
          }
        });
  });
}

}  // namespace tspopt
