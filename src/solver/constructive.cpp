#include "solver/constructive.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tsp/spatial_grid.hpp"

namespace tspopt {

Tour nearest_neighbor(const Instance& instance, std::int32_t start) {
  const std::int32_t n = instance.n();
  TSPOPT_CHECK(start >= 0 && start < n);
  obs::Span span =
      obs::Tracer::global().span("construct.nearest_neighbor", "solver");
  if (span) span.arg("n", n);
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::int32_t current = start;
  visited[static_cast<std::size_t>(current)] = true;
  order.push_back(current);
  for (std::int32_t step = 1; step < n; ++step) {
    std::int32_t best = -1;
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    for (std::int32_t c = 0; c < n; ++c) {
      if (visited[static_cast<std::size_t>(c)]) continue;
      std::int64_t d = instance.dist(current, c);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    visited[static_cast<std::size_t>(best)] = true;
    order.push_back(best);
    current = best;
  }
  return Tour(std::move(order));
}

// Multiple fragment reads at most this many nearest neighbors per city.
constexpr std::int32_t kFragmentCandidates = 12;

Tour multiple_fragment(const Instance& instance) {
  return multiple_fragment(instance,
                           NeighborLists(instance, kFragmentCandidates));
}

Tour multiple_fragment(const Instance& instance, const NeighborLists& lists) {
  const std::int32_t n = instance.n();
  TSPOPT_CHECK_MSG(lists.n() == n,
                   "neighbor lists for " << lists.n() << " cities, instance has "
                                         << n);
  obs::Span span =
      obs::Tracer::global().span("construct.multiple_fragment", "solver");
  if (span) span.arg("n", n);

  // Candidate edges (length, a, b): each city to its nearest neighbors,
  // deduplicated by keeping a < b, in (length, a, b) order. Generation
  // runs a ascending and each row lists equal lengths by ascending id, so
  // within one length the edges come in (a, b) order already: a stable
  // placement by length alone gives the lexicographic order. One pass
  // counts lengths, a second places each edge straight into the edge
  // array. The histogram has at most n buckets: a length range wider
  // than that buckets by high bits, and each bucket is then sorted.
  //
  // An EUC_2D list stores each candidate's length already (cand_dists is
  // dist_euc2d, which is the instance's metric), so the passes read it;
  // other metrics measure each entry once with instance.dist first.
  const auto k = static_cast<std::size_t>(
      std::min(kFragmentCandidates, lists.k()));
  const auto stride = static_cast<std::size_t>(lists.k());
  const std::span<const std::int32_t> ids = lists.ids_flat();
  std::span<const std::int32_t> lengths = lists.cand_dist_flat();
  std::vector<std::int32_t> measured;
  if (instance.metric() != Metric::kEuc2D) {
    measured.resize(ids.size());
    for (std::int32_t a = 0; a < n; ++a) {
      const std::size_t row = static_cast<std::size_t>(a) * stride;
      for (std::size_t j = row; j < row + k; ++j) {
        measured[j] = instance.dist(a, ids[j]);
      }
    }
    lengths = measured;
  }
  // Calls emit(length, a, b) for the first k entries of every row.
  auto for_each_entry = [&](auto&& emit) {
    for (std::int32_t a = 0; a < n; ++a) {
      const std::size_t row = static_cast<std::size_t>(a) * stride;
      for (std::size_t j = row; j < row + k; ++j) emit(lengths[j], a, ids[j]);
    }
  };
  // A row is ascending, so its first and k-th entries bound every length.
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (std::int32_t a = 0; a < n; ++a) {
    const std::size_t row = static_cast<std::size_t>(a) * stride;
    lo = std::min<std::int64_t>(lo, lengths[row]);
    hi = std::max<std::int64_t>(hi, lengths[row + k - 1]);
  }
  int shift = 0;
  while (((hi - lo) >> shift) >= n) ++shift;
  auto bucket = [&](std::int32_t len) {
    return static_cast<std::size_t>((len - lo) >> shift);
  };
  // An entry with a > b repeats row b's edge. Whether a < b is a coin
  // toss (ids are in any order), so the passes skip those entries without
  // a branch: the count adds a < b, and the placement writes them to a
  // spare last slot and does not advance its cursor.
  std::vector<std::size_t> offset(
      static_cast<std::size_t>((hi - lo) >> shift) + 2, 0);
  for_each_entry([&](std::int32_t len, std::int32_t a, std::int32_t b) {
    offset[bucket(len) + 1] += static_cast<std::size_t>(a < b);
  });
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  const std::size_t spare = offset.back();
  std::vector<std::array<std::int32_t, 3>> edges(spare + 1);
  for_each_entry([&](std::int32_t len, std::int32_t a, std::int32_t b) {
    std::size_t& next = offset[bucket(len)];
    const bool keep = a < b;
    edges[keep ? next : spare] = {len, a, b};
    next += static_cast<std::size_t>(keep);
  });
  edges.pop_back();
  if (shift > 0) {
    auto begin = edges.begin();
    for (std::size_t end : offset) {  // each fill cursor now ends its bucket
      const auto last = edges.begin() + static_cast<std::ptrdiff_t>(end);
      std::sort(begin, last);
      begin = last;
    }
  }

  std::vector<std::int32_t> degree(static_cast<std::size_t>(n), 0);
  std::vector<std::array<std::int32_t, 2>> adj(
      static_cast<std::size_t>(n), {-1, -1});
  // other_end[c] is the far end of the path fragment c ends (c itself
  // while isolated), kept current for fragment ends only. An edge between
  // two ends closes a premature cycle exactly when they end one fragment.
  std::vector<std::int32_t> other_end(static_cast<std::size_t>(n));
  std::iota(other_end.begin(), other_end.end(), 0);
  auto link = [&](std::int32_t a, std::int32_t b) {
    adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(
        degree[static_cast<std::size_t>(a)]++)] = b;
    adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(
        degree[static_cast<std::size_t>(b)]++)] = a;
    const std::int32_t ea = other_end[static_cast<std::size_t>(a)];
    const std::int32_t eb = other_end[static_cast<std::size_t>(b)];
    other_end[static_cast<std::size_t>(ea)] = eb;
    other_end[static_cast<std::size_t>(eb)] = ea;
  };

  std::int32_t links = 0;
  for (const auto& [d, a, b] : edges) {
    if (links == n - 1) break;
    if (degree[static_cast<std::size_t>(a)] >= 2 ||
        degree[static_cast<std::size_t>(b)] >= 2 ||
        other_end[static_cast<std::size_t>(a)] == b) {
      continue;
    }
    link(a, b);
    ++links;
  }

  // Stitch remaining fragments into one Hamiltonian path by greedy
  // nearest-endpoint chaining: one growing chain links its free end to a
  // near-nearest free end of another fragment, found by ring search over
  // a spatial grid of the fragment ends. Near-linear, where rescanning
  // every pair of ends per link took minutes at n=100k on clustered
  // inputs.
  if (links < n - 1) {
    std::vector<std::int32_t> endpoints;
    for (std::int32_t c = 0; c < n; ++c) {
      if (degree[static_cast<std::size_t>(c)] < 2) endpoints.push_back(c);
    }
    const SpatialGrid grid(instance, endpoints);
    std::vector<char> alive(static_cast<std::size_t>(n), 0);
    for (std::int32_t e : endpoints) alive[static_cast<std::size_t>(e)] = 1;

    std::int32_t tail = endpoints[0];
    alive[static_cast<std::size_t>(tail)] = 0;
    while (links < n - 1) {
      const Point& tp = instance.point(tail);
      const std::int32_t cx = grid.cell_x(tp.x);
      const std::int32_t cy = grid.cell_y(tp.y);
      std::int32_t best = -1;
      std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
      std::int32_t found_ring = -1;
      for (std::int32_t ring = 0; ring <= grid.max_ring(); ++ring) {
        const bool covers_whole_grid = grid.visit_ring(
            cx, cy, ring, [&](std::int32_t begin, std::int32_t end) {
              for (std::int32_t c : grid.ids().subspan(
                       static_cast<std::size_t>(begin),
                       static_cast<std::size_t>(end - begin))) {
                // The chain's own far end would close it into a cycle.
                if (alive[static_cast<std::size_t>(c)] == 0 ||
                    c == other_end[static_cast<std::size_t>(tail)]) {
                  continue;
                }
                std::int64_t d = instance.dist(tail, c);
                if (d < best_d || (d == best_d && c < best)) {
                  best_d = d;
                  best = c;
                }
              }
            });
        if (best != -1 && found_ring < 0) found_ring = ring;
        // One extra ring past the first hit: a heuristic stitch edge, so
        // near-nearest is enough — the descent repairs the rest.
        if ((found_ring >= 0 && ring > found_ring) || covers_whole_grid) {
          break;
        }
      }
      TSPOPT_CHECK_MSG(best >= 0, "fragment stitching found no joinable pair");
      // The consumed fragment's far end is the chain's new free end and
      // leaves the search pool (an isolated city is its own far end).
      const std::int32_t next_tail = other_end[static_cast<std::size_t>(best)];
      link(tail, best);
      ++links;
      alive[static_cast<std::size_t>(best)] = 0;
      alive[static_cast<std::size_t>(next_tail)] = 0;
      tail = next_tail;
    }
  }

  // Walk the path into a tour order. The two remaining degree-1 cities are
  // the path ends; the closing edge is implicit in the cyclic tour.
  std::int32_t start = 0;
  for (std::int32_t c = 0; c < n; ++c) {
    if (degree[static_cast<std::size_t>(c)] == 1) {
      start = c;
      break;
    }
  }
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::int32_t prev = -1;
  std::int32_t current = start;
  for (std::int32_t step = 0; step < n; ++step) {
    order.push_back(current);
    const auto& nbrs = adj[static_cast<std::size_t>(current)];
    std::int32_t next = (nbrs[0] != prev) ? nbrs[0] : nbrs[1];
    prev = current;
    current = next;
  }
  Tour tour(std::move(order));
  TSPOPT_CHECK_MSG(tour.is_valid(), "multiple fragment produced invalid tour");
  return tour;
}

}  // namespace tspopt
