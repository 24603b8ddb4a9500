// k-nearest-neighbor lists over the city coordinates.
//
// This backs the neighborhood-pruning extension the paper lists as future
// work (§VII): restricting 2-opt candidates to each city's k nearest
// neighbors trades a little tour quality for a large reduction in checks.
// The multiple-fragment start reads the same lists' first 12 entries and,
// for EUC_2D, their stored lengths.
// Built with a uniform spatial grid (tsp/spatial_grid), so construction is
// O(n * k) expected for non-degenerate point sets rather than O(n^2) (GEO
// and EXPLICIT rows scan the grid). Each row is a bounded one: it keeps
// only its k best (distance, id) entries. It reads the grid's cells as
// contiguous runs of cell-ordered coordinates, measures a run's
// distances in one loop (the row builder is a template over the metric,
// chosen once per build), and inserts only the candidates that beat its
// k-th entry; it stops once the distance to the visited square's border
// proves no unvisited city can tie or beat that entry. Rows are
// independent, so the build parallelizes over the shared thread pool,
// one row scratch per chunk.
//
// The build also gives every city a spatial label: its rank in a Hilbert
// walk of the grid's cells (SpatialGrid::visit_hilbert). Input city ids
// can be in any order in the plane (a clustered generator's ids are
// random in space); labels are close where cities are close. The pruned
// engines key their per-city state by label (solver/pruned_sweep.hpp), so
// the cities along a stretch of a good tour, and each city's nearest
// neighbors, share cache lines. The same serial, O(n), deterministic walk
// orders the row build, so the rows a worker builds together are
// neighbors in the plane; city ids stay what every caller sees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tsp/instance.hpp"

namespace tspopt {

class NeighborLists {
 public:
  // Builds lists of the k nearest cities (by the instance metric distance;
  // requires coordinates) for every city. k is clamped to n-1.
  NeighborLists(const Instance& instance, std::int32_t k);

  std::int32_t k() const { return k_; }
  std::int32_t n() const { return n_; }

  // The k neighbors of `city`, sorted by (distance, id): exactly the
  // first k of any longer list over the same instance.
  std::span<const std::int32_t> neighbors(std::int32_t city) const {
    TSPOPT_DCHECK(city >= 0 && city < n_);
    return {flat_.data() + static_cast<std::size_t>(city) *
                               static_cast<std::size_t>(k_),
            static_cast<std::size_t>(k_)};
  }

  // The candidate-edge lengths matching neighbors(city): cand_dists(c)[j]
  // is the rounded euclidean length of the edge (c, neighbors(c)[j]),
  // computed with dist_euc2d — the same float arithmetic the 2-opt
  // kernels use — so pruned kernels add it into their delta without
  // re-touching the first edge's coordinates and stay bit-identical to
  // the full-sweep engines. For an EUC_2D instance it is also the
  // instance's own distance (the row's sort key).
  std::span<const std::int32_t> cand_dists(std::int32_t city) const {
    TSPOPT_DCHECK(city >= 0 && city < n_);
    return {cand_dist_.data() + static_cast<std::size_t>(city) *
                                    static_cast<std::size_t>(k_),
            static_cast<std::size_t>(k_)};
  }

  // Flat row-major n x k SoA export (Buffer-friendly): neighbor city ids
  // and the matching candidate-edge lengths. Row `city` occupies entries
  // [city * k, city * k + k).
  std::span<const std::int32_t> ids_flat() const { return flat_; }
  std::span<const std::int32_t> cand_dist_flat() const { return cand_dist_; }

  // labels()[city] is the city's spatial label, a permutation of [0, n).
  std::span<const std::int32_t> labels() const { return labels_; }

 private:
  std::int32_t n_;
  std::int32_t k_;
  std::vector<std::int32_t> flat_;       // n * k, row per city
  std::vector<std::int32_t> cand_dist_;  // n * k, dist_euc2d per candidate
  std::vector<std::int32_t> labels_;     // n: city -> label
};

}  // namespace tspopt
