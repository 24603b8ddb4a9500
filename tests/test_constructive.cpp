#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pin_instances.hpp"
#include "solver/constructive.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/spatial_grid.hpp"

namespace tspopt {
namespace {

// The multiple-fragment construction as it stood with one std::sort of
// every (length, a, b) candidate edge: the oracle for the library's
// placement by length. Linking, stitching and the walk are unchanged.
Tour sorted_edge_multiple_fragment(const Instance& instance,
                                   const NeighborLists& lists) {
  const std::int32_t n = instance.n();
  const auto k = static_cast<std::size_t>(std::min(12, lists.k()));
  std::vector<std::array<std::int32_t, 3>> edges;
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b : lists.neighbors(a).first(k)) {
      if (a < b) edges.push_back({instance.dist(a, b), a, b});
    }
  }
  std::sort(edges.begin(), edges.end());

  const auto at = [](std::int32_t c) { return static_cast<std::size_t>(c); };
  std::vector<std::int32_t> degree(at(n), 0);
  std::vector<std::array<std::int32_t, 2>> adj(at(n), {-1, -1});
  std::vector<std::int32_t> other_end(at(n));
  std::iota(other_end.begin(), other_end.end(), 0);
  auto link = [&](std::int32_t a, std::int32_t b) {
    adj[at(a)][at(degree[at(a)]++)] = b;
    adj[at(b)][at(degree[at(b)]++)] = a;
    const std::int32_t ea = other_end[at(a)];
    const std::int32_t eb = other_end[at(b)];
    other_end[at(ea)] = eb;
    other_end[at(eb)] = ea;
  };
  std::int32_t links = 0;
  for (const auto& [d, a, b] : edges) {
    if (links == n - 1) break;
    if (degree[at(a)] >= 2 || degree[at(b)] >= 2 || other_end[at(a)] == b) {
      continue;
    }
    link(a, b);
    ++links;
  }
  if (links < n - 1) {
    std::vector<std::int32_t> endpoints;
    for (std::int32_t c = 0; c < n; ++c) {
      if (degree[at(c)] < 2) endpoints.push_back(c);
    }
    const SpatialGrid grid(instance, endpoints);
    std::vector<char> alive(at(n), 0);
    for (std::int32_t e : endpoints) alive[at(e)] = 1;
    std::int32_t tail = endpoints[0];
    alive[at(tail)] = 0;
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
              for (std::int32_t i = begin; i < end; ++i) {
                const std::int32_t c = grid.ids()[at(i)];
                if (alive[at(c)] == 0 || c == other_end[at(tail)]) continue;
                std::int64_t d = instance.dist(tail, c);
                if (d < best_d || (d == best_d && c < best)) {
                  best_d = d;
                  best = c;
                }
              }
            });
        if (best != -1 && found_ring < 0) found_ring = ring;
        if ((found_ring >= 0 && ring > found_ring) || covers_whole_grid) {
          break;
        }
      }
      const std::int32_t next_tail = other_end[at(best)];
      link(tail, best);
      ++links;
      alive[at(best)] = 0;
      alive[at(next_tail)] = 0;
      tail = next_tail;
    }
  }
  std::int32_t start = 0;
  for (std::int32_t c = 0; c < n; ++c) {
    if (degree[at(c)] == 1) {
      start = c;
      break;
    }
  }
  std::vector<std::int32_t> order;
  std::int32_t prev = -1;
  std::int32_t current = start;
  for (std::int32_t step = 0; step < n; ++step) {
    order.push_back(current);
    const auto& nbrs = adj[at(current)];
    const std::int32_t next = nbrs[0] != prev ? nbrs[0] : nbrs[1];
    prev = current;
    current = next;
  }
  return Tour(std::move(order));
}

TEST(NearestNeighbor, ProducesValidTourStartingWhereAsked) {
  Instance inst = berlin52();
  for (std::int32_t start : {0, 13, 51}) {
    Tour t = nearest_neighbor(inst, start);
    EXPECT_TRUE(t.is_valid());
    EXPECT_EQ(t.city_at(0), start);
  }
  EXPECT_THROW(nearest_neighbor(inst, 52), CheckError);
  EXPECT_THROW(nearest_neighbor(inst, -1), CheckError);
}

TEST(NearestNeighbor, BeatsRandomOnAverage) {
  Instance inst = generate_uniform("u300", 300, 17);
  Tour nn = nearest_neighbor(inst);
  Pcg32 rng(18);
  std::int64_t random_total = 0;
  for (int i = 0; i < 5; ++i) {
    random_total += Tour::random(300, rng).length(inst);
  }
  EXPECT_LT(nn.length(inst), random_total / 5);
}

TEST(NearestNeighbor, GreedyStepInvariant) {
  // Each step goes to the closest unvisited city: verify for a few steps.
  Instance inst = generate_uniform("u50", 50, 4);
  Tour t = nearest_neighbor(inst, 0);
  std::vector<bool> visited(50, false);
  visited[0] = true;
  for (std::int32_t p = 0; p + 1 < 10; ++p) {
    std::int32_t cur = t.city_at(p);
    std::int32_t next = t.city_at(p + 1);
    for (std::int32_t c = 0; c < 50; ++c) {
      if (!visited[static_cast<std::size_t>(c)] && c != next) {
        EXPECT_GE(inst.dist(cur, c), inst.dist(cur, next));
      }
    }
    visited[static_cast<std::size_t>(next)] = true;
  }
}

TEST(MultipleFragment, ProducesValidTours) {
  for (std::int32_t n : {5, 10, 52, 250, 1000}) {
    Instance inst = generate_uniform("u", n, static_cast<std::uint64_t>(n) * 7);
    Tour t = multiple_fragment(inst);
    ASSERT_TRUE(t.is_valid()) << "n=" << n;
  }
}

TEST(MultipleFragment, SurvivesTinyCandidateLists) {
  // k=1 leaves many fragments; the stitching phase must still complete.
  Instance inst = generate_clustered("c200", 200, 10, 3);
  Tour t = multiple_fragment(inst, NeighborLists(inst, 1));
  EXPECT_TRUE(t.is_valid());
}

TEST(MultipleFragment, SurvivesCoincidentPoints) {
  std::vector<Point> pts(30, Point{1.0f, 1.0f});
  for (int i = 0; i < 10; ++i) {
    pts.push_back({static_cast<float>(10 * i), 50.0f});
  }
  Instance inst("dups", Metric::kEuc2D, std::move(pts));
  Tour t = multiple_fragment(inst);
  EXPECT_TRUE(t.is_valid());
}

TEST(MultipleFragment, BeatsNearestNeighborUsually) {
  // MF is the stronger constructive heuristic (it is the paper's choice
  // for the Table II initial tours). Compare on several instances.
  int wins = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Instance inst = generate_uniform("u400", 400, seed);
    if (multiple_fragment(inst).length(inst) <=
        nearest_neighbor(inst).length(inst)) {
      ++wins;
    }
  }
  EXPECT_GE(wins, 3);
}

TEST(MultipleFragment, NearOptimalOnBerlin52) {
  Instance inst = berlin52();
  Tour t = multiple_fragment(inst);
  // Greedy-edge tours are typically within ~15-25% of optimal.
  EXPECT_GE(t.length(inst), kBerlin52Optimum);
  EXPECT_LE(t.length(inst), kBerlin52Optimum * 135 / 100);
}

TEST(MultipleFragment, CircleIsSolvedExactly) {
  // On a circle every greedy edge follows the perimeter.
  Instance inst = generate_circle("circle", 40);
  Tour mf = multiple_fragment(inst);
  EXPECT_EQ(mf.length(inst), Tour::identity(40).length(inst));
}

TEST(MultipleFragment, IsDeterministic) {
  Instance inst = generate_uniform("u200", 200, 5);
  Tour a = multiple_fragment(inst);
  Tour b = multiple_fragment(inst);
  EXPECT_TRUE(a == b);
}

TEST(MultipleFragment, MatchesSortedEdgeReference) {
  // Placing edges by length must give the order one sort of (length, a,
  // b) triples gave, on the cases the placement treats specially.
  Pcg32 rng(41);
  // Lengths far wider than the direct histogram range of n buckets, so
  // buckets hold several lengths: coordinates near the 2.5e8 bound on a
  // coarse lattice (many ties) plus one outlier across the origin.
  std::vector<Point> wide;
  for (int i = 0; i < 400; ++i) {
    wide.push_back({2.0e8f + 16.0f * static_cast<float>(rng.next() % 3000),
                    2.4e8f - 16.0f * static_cast<float>(rng.next() % 3000)});
  }
  wide.push_back({-2.4e8f, -2.0e8f});
  // Every length 0.
  const std::vector<Point> coincident(60, Point{7.0f, 7.0f});
  std::vector<Instance> instances;
  instances.emplace_back("wide", Metric::kEuc2D, wide);
  instances.emplace_back("coincident", Metric::kEuc2D, coincident);
  instances.push_back(generate_clustered("clustered", 800, 8, 5));
  for (const Instance& inst : instances) {
    for (std::int32_t k : {1, 5, 11, 16}) {
      const NeighborLists lists(inst, k);
      EXPECT_TRUE(multiple_fragment(inst, lists) ==
                  sorted_edge_multiple_fragment(inst, lists))
          << inst.name() << " k=" << k;
    }
  }
}

TEST(MultipleFragment, OtherMetricsMatchSortedEdgeReference) {
  // EUC_2D reads the lists' stored lengths; every other metric measures
  // its candidate edges with instance.dist, which the reference also
  // uses. GEO reads (latitude, longitude); EXPLICIT's matrix ignores its
  // display coordinates.
  Pcg32 rng(43);
  std::vector<Point> plane;
  std::vector<Point> globe;
  for (int i = 0; i < 500; ++i) {
    plane.push_back(
        {rng.next_float(0.0f, 4000.0f), rng.next_float(0.0f, 4000.0f)});
    globe.push_back(
        {rng.next_float(-60.0f, 60.0f), rng.next_float(-170.0f, 170.0f)});
  }
  std::vector<Instance> instances;
  for (Metric m : {Metric::kCeil2D, Metric::kMan2D, Metric::kMax2D,
                   Metric::kAtt}) {
    instances.emplace_back("plane-" + to_string(m), m, plane);
  }
  instances.emplace_back("globe-GEO", Metric::kGeo, globe);
  const std::size_t n = 200;
  std::vector<std::int32_t> matrix(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      matrix[a * n + b] = a == b ? 0 : static_cast<std::int32_t>(
                                           (a * b + 7 * (a + b)) % 97);
    }
  }
  instances.emplace_back(
      "display-EXPLICIT", std::move(matrix), n,
      std::vector<Point>(plane.begin(),
                         plane.begin() + static_cast<std::ptrdiff_t>(n)));
  for (const Instance& inst : instances) {
    for (std::int32_t k : {5, 16}) {
      const NeighborLists lists(inst, k);
      EXPECT_TRUE(multiple_fragment(inst, lists) ==
                  sorted_edge_multiple_fragment(inst, lists))
          << inst.name() << " k=" << k;
    }
  }
}

TEST(MultipleFragment, GoldenTours) {
  // FNV-1a over each MF tour's city order. The start every 2-opt run
  // descends from must not move when the candidate-list plumbing changes.
  const std::map<std::string, std::uint64_t> golden = {
      {"berlin52", 0xeaacb05a4ac3e06full},
      {"kroE100", 0xaf28d9487f7352ffull},
      {"ch130", 0x79397e262143bf06ull},
      {"ch150", 0xb540adc439e8be80ull},
      {"kroA200", 0x621508d7382e54full},
      {"ts225", 0x1f486df5bc95ba55ull},
      {"pr226", 0x11a72fcca63222e2ull},
      {"pr439", 0xc43b9c53f6a25b38ull},
      {"rat783", 0x5175b34e8bb30aa6ull},
      {"vm1084", 0x9dffdb4a621845c5ull},
      {"pr2392", 0x9068ec7ee7f81efull},
      {"pcb3038", 0xab95cf9b55970456ull},
      {"fl3795", 0x307f3b87353dd3faull},
      {"fnl4461", 0x24ed0bbc9222281full},
      {"rl5915", 0x57a24285c96ef994ull},
      {"pla7397", 0x144d4fe715820947ull},
      {"usa13509", 0x6ef5c307ed47b0a1ull},
      {"d15112", 0xb074cc8044cfd52dull},
      {"d18512", 0x835e96ca001dfefbull},
      {"sw24978", 0xb1d67696a263d6e8ull},
      {"pla33810", 0x3459b6aadf515d82ull},
      {"uniform10k", 0x17a4e1af4d438517ull},
      {"clustered10k", 0x9246b536749c4145ull},
      {"grid10k", 0x46ba543406e6ece3ull},
      {"large50k", 0xdaf17db86841d0b9ull},
  };
  for (const Instance& inst : pin_instances()) {
    const Tour tour = multiple_fragment(inst);
    std::uint64_t h = 1469598103934665603ull;
    for (std::int32_t c : tour.order()) {
      h = (h ^ static_cast<std::uint32_t>(c)) * 1099511628211ull;
    }
    auto it = golden.find(inst.name());
    EXPECT_EQ(h, it == golden.end() ? 0 : it->second)
        << inst.name() << " 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace tspopt
