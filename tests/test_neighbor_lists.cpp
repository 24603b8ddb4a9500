#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "pin_instances.hpp"
#include "solver/constructive.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbor_lists.hpp"
#include "tsp/spatial_grid.hpp"

namespace tspopt {
namespace {

// Brute-force reference: the k nearest cities by (distance, index).
std::vector<std::int32_t> brute_knn(const Instance& inst, std::int32_t city,
                                    std::int32_t k) {
  std::vector<std::pair<std::int64_t, std::int32_t>> all;
  for (std::int32_t c = 0; c < inst.n(); ++c) {
    if (c != city) all.emplace_back(inst.dist(city, c), c);
  }
  std::sort(all.begin(), all.end());
  std::vector<std::int32_t> out;
  for (std::int32_t i = 0; i < k; ++i) out.push_back(all[static_cast<std::size_t>(i)].second);
  return out;
}

class NeighborListsParam
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t>> {
};

TEST_P(NeighborListsParam, DistancesMatchBruteForce) {
  auto [n, k] = GetParam();
  Instance inst = generate_uniform("u", n, static_cast<std::uint64_t>(n * 31 + k));
  NeighborLists nl(inst, k);
  ASSERT_EQ(nl.k(), std::min(k, n - 1));
  for (std::int32_t city = 0; city < n; city += std::max(1, n / 40)) {
    auto expect = brute_knn(inst, city, nl.k());
    auto got = nl.neighbors(city);
    ASSERT_EQ(static_cast<std::int32_t>(got.size()), nl.k());
    // Rows are ordered by (distance, id), so ids match rank for rank.
    for (std::int32_t idx = 0; idx < nl.k(); ++idx) {
      ASSERT_EQ(got[static_cast<std::size_t>(idx)],
                expect[static_cast<std::size_t>(idx)])
          << "city " << city << " rank " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborListsParam,
    ::testing::Values(std::make_tuple(10, 3), std::make_tuple(50, 5),
                      std::make_tuple(100, 10), std::make_tuple(500, 8),
                      std::make_tuple(500, 499), std::make_tuple(1000, 16),
                      std::make_tuple(37, 36)));

TEST(NeighborLists, SortedByIncreasingDistance) {
  Instance inst = generate_clustered("c", 300, 5, 9);
  NeighborLists nl(inst, 12);
  for (std::int32_t city = 0; city < 300; ++city) {
    auto nbrs = nl.neighbors(city);
    for (std::size_t idx = 1; idx < nbrs.size(); ++idx) {
      ASSERT_LE(inst.dist(city, nbrs[idx - 1]), inst.dist(city, nbrs[idx]));
    }
  }
}

TEST(NeighborLists, NoSelfNoDuplicates) {
  Instance inst = generate_grid("g", 256, 2);
  NeighborLists nl(inst, 8);
  for (std::int32_t city = 0; city < 256; ++city) {
    std::set<std::int32_t> seen;
    for (std::int32_t nb : nl.neighbors(city)) {
      ASSERT_NE(nb, city);
      ASSERT_TRUE(seen.insert(nb).second);
    }
  }
}

TEST(NeighborLists, KClampedToNMinus1) {
  Instance inst = generate_uniform("u", 10, 1);
  NeighborLists nl(inst, 50);
  EXPECT_EQ(nl.k(), 9);
}

TEST(NeighborLists, HandlesDegenerateCollinearPoints) {
  std::vector<Point> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({static_cast<float>(i), 0.0f});
  Instance inst("line", Metric::kEuc2D, std::move(pts));
  NeighborLists nl(inst, 4);
  auto nbrs = nl.neighbors(10);
  // Immediate lattice neighbors must appear first.
  EXPECT_EQ(inst.dist(10, nbrs[0]), 1);
  EXPECT_EQ(inst.dist(10, nbrs[1]), 1);
}

TEST(NeighborLists, HandlesCoincidentPoints) {
  std::vector<Point> pts(16, Point{5.0f, 5.0f});
  pts.push_back({100.0f, 100.0f});
  Instance inst("dup", Metric::kEuc2D, std::move(pts));
  NeighborLists nl(inst, 3);
  for (std::int32_t nb : nl.neighbors(0)) {
    EXPECT_EQ(inst.dist(0, nb), 0);
  }
}

TEST(NeighborLists, FuzzDegenerateLayoutsKeepFullInvariants) {
  // Property fuzz over layouts chosen to break spatial-grid construction:
  // mass-coincident points (zero-area bounding box), axis-aligned lines
  // (zero extent in one dimension), far-offset clusters (nearly all grid
  // cells empty), and mixtures. Whatever the layout, the lists must hold
  // the full contract: k entries, no self, no duplicates, sorted, and
  // rank-for-rank brute-force distances.
  Pcg32 rng(97);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<Point> pts;
    std::int32_t n = 8 + static_cast<std::int32_t>(rng.next() % 120);
    std::uint32_t shape = rng.next() % 4;
    float offset = static_cast<float>(rng.next() % 1000000);
    for (std::int32_t i = 0; i < n; ++i) {
      switch (shape) {
        case 0:  // all coincident
          pts.push_back({offset, offset});
          break;
        case 1:  // vertical line (zero x-extent)
          pts.push_back({offset, offset + static_cast<float>(i)});
          break;
        case 2:  // two distant point-clusters
          pts.push_back(i % 2 == 0 ? Point{0.0f, 0.0f}
                                   : Point{offset + 1.0f, 0.0f});
          break;
        default:  // mostly coincident with a few scattered outliers
          if (rng.next() % 4 == 0) {
            pts.push_back({static_cast<float>(rng.next() % 1000),
                           static_cast<float>(rng.next() % 1000)});
          } else {
            pts.push_back({offset, offset});
          }
          break;
      }
    }
    Instance inst("fuzz" + std::to_string(trial), Metric::kEuc2D,
                  std::move(pts));
    std::int32_t k = 1 + static_cast<std::int32_t>(rng.next() % 16);
    NeighborLists nl(inst, k);
    ASSERT_EQ(nl.k(), std::min(k, n - 1)) << "trial " << trial;
    for (std::int32_t city = 0; city < n; ++city) {
      auto nbrs = nl.neighbors(city);
      auto expect = brute_knn(inst, city, nl.k());
      ASSERT_EQ(static_cast<std::int32_t>(nbrs.size()), nl.k());
      std::set<std::int32_t> seen;
      for (std::size_t idx = 0; idx < nbrs.size(); ++idx) {
        ASSERT_NE(nbrs[idx], city) << "trial " << trial << " city " << city;
        ASSERT_TRUE(seen.insert(nbrs[idx]).second)
            << "trial " << trial << " city " << city;
        if (idx > 0) {
          ASSERT_LE(inst.dist(city, nbrs[idx - 1]),
                    inst.dist(city, nbrs[idx]));
        }
        ASSERT_EQ(inst.dist(city, nbrs[idx]),
                  inst.dist(city, expect[idx]))
            << "trial " << trial << " city " << city << " rank " << idx;
      }
    }
  }
}

TEST(NeighborLists, EveryMetricMatchesBruteForceRankForRank) {
  // The ring search may stop only once no unvisited city can tie or beat
  // the k-th distance in the metric's own units: every row equals the
  // brute-force list ordered by (distance, id). An exact
  // lattice makes ties common; ATT's distances are ~1/sqrt(10) of the
  // coordinate distances; GEO reads (latitude, longitude) and wraps;
  // EXPLICIT's matrix ignores its display coordinates.
  Pcg32 rng(11);
  std::vector<Point> scattered;
  std::vector<Point> lattice;
  std::vector<Point> globe;
  for (int i = 0; i < 1000; ++i) {
    scattered.push_back({rng.next_float(0.0f, 3000.0f),
                         rng.next_float(0.0f, 3000.0f)});
    lattice.push_back({static_cast<float>(7 * (i % 40)),
                       static_cast<float>(7 * (i / 40))});
    globe.push_back({rng.next_float(-80.0f, 80.0f),
                     rng.next_float(-180.0f, 180.0f)});
  }
  std::vector<Instance> instances;
  for (Metric m : {Metric::kEuc2D, Metric::kCeil2D, Metric::kMan2D,
                   Metric::kMax2D, Metric::kAtt}) {
    instances.emplace_back("scattered-" + to_string(m), m, scattered);
    instances.emplace_back("lattice-" + to_string(m), m, lattice);
  }
  instances.emplace_back("globe-GEO", Metric::kGeo, globe);
  const std::size_t n = 300;
  std::vector<std::int32_t> matrix(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      matrix[a * n + b] = a == b ? 0 : static_cast<std::int32_t>(
                                           (a * b + 7 * (a + b)) % 97);
    }
  }
  instances.emplace_back(
      "display-EXPLICIT", std::move(matrix), n,
      std::vector<Point>(scattered.begin(),
                         scattered.begin() + static_cast<std::ptrdiff_t>(n)));
  for (const Instance& inst : instances) {
    NeighborLists nl(inst, 16);
    std::int32_t rows_differing = 0;
    for (std::int32_t city = 0; city < inst.n(); ++city) {
      auto got = nl.neighbors(city);
      auto expect = brute_knn(inst, city, nl.k());
      if (!std::equal(got.begin(), got.end(), expect.begin())) {
        ++rows_differing;
      }
    }
    EXPECT_EQ(rows_differing, 0) << inst.name();
  }
}

// Cities on and one float ulp either side of the grid's cell boundaries,
// in a bounding box [lo, lo + extent]^2 of 400 cities (the grid's cells
// depend only on the box and the count). Where float cell assignment
// moved a city across a boundary it exactly lies beside, the layout adds
// a query city p at distance D from it, inside the neighbouring cell, and
// a city at the same distance D on p's far side with a larger id: p's
// nearest neighbour by (distance, id) is the moved city, but the far one
// is all that p's own cell holds. `moved` counts those cases.
std::vector<Point> boundary_layout(float lo, float extent, bool transpose,
                                   std::int32_t& moved) {
  constexpr std::int32_t kCities = 400;
  const float hi = lo + extent;
  std::vector<Point> pts(kCities, Point{lo, lo});
  pts[1] = {hi, hi};
  const Instance box("box", Metric::kEuc2D, pts);
  std::vector<std::int32_t> all(kCities);
  std::iota(all.begin(), all.end(), 0);
  const SpatialGrid grid(box, all);
  const double cell = grid.cell();
  auto border = [&](std::int32_t g) {
    return static_cast<double>(lo) + g * cell;
  };
  auto mid = [&](std::int32_t row) {
    return static_cast<float>(border(row) + 0.5 * cell);
  };
  auto near = [](double b) {  // the floats within two ulps of b
    const float f = static_cast<float>(b);
    const float below = std::nextafter(f, -INFINITY);
    const float above = std::nextafter(f, INFINITY);
    return std::array<float, 5>{std::nextafter(below, -INFINITY), below, f,
                                above, std::nextafter(above, INFINITY)};
  };
  std::size_t next = 2;
  auto add = [&](float x, float y) {
    if (next < pts.size()) pts[next++] = transpose ? Point{y, x} : Point{x, y};
  };
  const std::int32_t cells = grid.cell_x(hi) + 1;
  // Lattice points of cell corners, each one ulp either side, in the top
  // rows.
  for (std::int32_t gx = 2; gx + 2 < cells; gx += 5) {
    for (std::int32_t gy = 15; gy + 1 < cells; gy += 2) {
      for (float x : near(border(gx))) {
        for (float y : {static_cast<float>(border(gy)),
                        std::nextafter(static_cast<float>(border(gy)),
                                       INFINITY)}) {
          add(x, y);
        }
      }
    }
  }
  // The moved cities' cases, in rows 2, 4, ..., 8.
  moved = 0;
  for (std::int32_t g = 1; g < cells && border(g) < hi; ++g) {
    const double b = border(g);
    for (float q : near(b)) {
      // s = +1: q lies left of the boundary but was put right of it.
      const int s = q < b && grid.cell_x(q) >= g   ? 1
                    : q >= b && grid.cell_x(q) < g ? -1
                                                   : 0;
      for (std::int32_t row = 1; s != 0 && row <= 4; ++row) {
        const double d = 16.0 * row;
        const double p = q - s * d;
        const double far = q - 2 * s * d;
        if (next + 3 > pts.size() ||
            static_cast<double>(static_cast<float>(p)) != p ||
            static_cast<double>(static_cast<float>(far)) != far ||
            grid.cell_x(static_cast<float>(p)) != g - (s + 1) / 2 ||
            grid.cell_x(static_cast<float>(far)) != g - (s + 1) / 2) {
          continue;
        }
        add(q, mid(row * 2));
        add(static_cast<float>(p), mid(row * 2));
        add(static_cast<float>(far), mid(row * 2));
        ++moved;
      }
    }
  }
  return pts;
}

TEST(NeighborLists, RingStopHoldsAtCellBoundaries) {
  // The ring search stops at the distance from the point to the nearest
  // side of the visited square that has unvisited cities beyond it, less
  // a rounding margin: a city float cell assignment put just across a
  // side may exactly lie a few ulps inside it. Near the 2.5e8 coordinate
  // bound an ulp is 16 units, and a stop without the margin returns the
  // far tie of boundary_layout instead of the moved city. Every row must
  // equal the brute-force list, for every metric with a bound, with the
  // boundaries across x and (transposed) across y.
  struct Box {
    float lo;
    float extent;
  };
  for (const Box box : {Box{-2.5e8f, 4.99e8f}, Box{-123456.0f, 300007.0f}}) {
    for (bool transpose : {false, true}) {
      std::int32_t moved = 0;
      const std::vector<Point> pts =
          boundary_layout(box.lo, box.extent, transpose, moved);
      if (box.lo < -1e8f) {
        ASSERT_GT(moved, 10) << "the layout lost its moved cities";
      }
      for (Metric m : {Metric::kEuc2D, Metric::kCeil2D, Metric::kMan2D,
                       Metric::kMax2D, Metric::kAtt}) {
        const Instance inst("boundary-" + to_string(m), m, pts);
        for (std::int32_t k : {1, 3}) {
          NeighborLists nl(inst, k);
          std::int32_t rows_differing = 0;
          for (std::int32_t city = 0; city < inst.n(); ++city) {
            auto got = nl.neighbors(city);
            auto expect = brute_knn(inst, city, k);
            rows_differing +=
                !std::equal(got.begin(), got.end(), expect.begin());
          }
          EXPECT_EQ(rows_differing, 0)
              << inst.name() << " lo " << box.lo << " transpose "
              << transpose << " k=" << k;
        }
      }
    }
  }
}

TEST(NeighborLists, ClusteredWithOutliersMatchesBruteForceRankForRank) {
  // Each row keeps only its k best entries and skips candidates the
  // coordinate bound rules out. Six clusters of 150 cities on a 9 x 9
  // lattice put ~150 cities, many coincident or tied, in a few grid cells,
  // so full rows evict; each cluster spans cell borders, so ties arrive
  // out of id order. Far outliers stretch the grid, so their rows expand
  // over a dozen rings.
  Pcg32 rng(23);
  std::vector<Point> pts;
  for (int cluster = 0; cluster < 6; ++cluster) {
    const float cx = static_cast<float>(rng.next() % 40000);
    const float cy = static_cast<float>(rng.next() % 40000);
    for (int i = 0; i < 150; ++i) {
      pts.push_back({cx + 300.0f * static_cast<float>(rng.next() % 9),
                     cy + 300.0f * static_cast<float>(rng.next() % 9)});
    }
  }
  for (Point far : {Point{1.6e5f, 1.6e5f}, Point{-1.2e5f, 3.0e4f},
                    Point{4.0e4f, -1.4e5f}, Point{1.6e5f, 1.6e5f + 300.0f}}) {
    pts.push_back(far);
  }
  for (Metric m : {Metric::kEuc2D, Metric::kCeil2D, Metric::kAtt}) {
    const Instance inst("clustered-outliers-" + to_string(m), m, pts);
    for (std::int32_t k : {1, 16, 63}) {
      NeighborLists nl(inst, k);
      for (std::int32_t city = 0; city < inst.n(); ++city) {
        auto got = nl.neighbors(city);
        auto expect = brute_knn(inst, city, k);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
            << inst.name() << " k=" << k << " city " << city;
      }
    }
  }
}

TEST(NeighborLists, ShorterListIsPrefixOfLonger) {
  // A k-list is the first k entries of any longer list over the same
  // instance, which is what lets one build serve every shorter reader.
  for (const Instance& inst : pin_instances()) {
    for (auto [shorter, longer] : {std::pair{12, 16}, std::pair{1, 8}}) {
      NeighborLists s(inst, shorter);
      NeighborLists l(inst, longer);
      ASSERT_EQ(s.k(), shorter);
      for (std::int32_t city = 0; city < inst.n(); ++city) {
        auto head = l.neighbors(city).first(static_cast<std::size_t>(shorter));
        ASSERT_TRUE(std::equal(head.begin(), head.end(),
                               s.neighbors(city).begin()))
            << inst.name() << " k=" << shorter << " vs " << longer
            << " city " << city;
      }
    }
  }
}

// labels() is a permutation of [0, n).
void expect_label_permutation(const NeighborLists& nl, const std::string& what) {
  std::vector<std::int32_t> sorted(nl.labels().begin(), nl.labels().end());
  ASSERT_EQ(static_cast<std::int32_t>(sorted.size()), nl.n()) << what;
  std::sort(sorted.begin(), sorted.end());
  for (std::int32_t label = 0; label < nl.n(); ++label) {
    ASSERT_EQ(sorted[static_cast<std::size_t>(label)], label) << what;
  }
}

TEST(NeighborLists, LabelsArePermutationsOnDegenerateLayouts) {
  // The Hilbert walk must reach every grid cell whatever the grid's
  // shape: one cell (identical points), one row or column (collinear), a
  // handful of cities, and GEO's (latitude, longitude) plane.
  std::vector<Instance> instances;
  instances.emplace_back("identical", Metric::kEuc2D,
                         std::vector<Point>(300, Point{7.0f, -3.0f}));
  std::vector<Point> row;
  std::vector<Point> column;
  std::vector<Point> diagonal;
  for (int i = 0; i < 500; ++i) {
    const auto f = static_cast<float>(i);
    row.push_back({3.0f * f, 11.0f});
    column.push_back({-5.0f, 1000.0f - 2.0f * f});
    diagonal.push_back({f, f});
  }
  instances.emplace_back("row", Metric::kEuc2D, row);
  instances.emplace_back("column", Metric::kEuc2D, column);
  instances.emplace_back("diagonal", Metric::kEuc2D, diagonal);
  Pcg32 rng(29);
  for (std::int32_t n = 3; n <= 8; ++n) {  // an Instance needs n >= 3
    std::vector<Point> few;
    for (std::int32_t i = 0; i < n; ++i) {
      few.push_back({rng.next_float(0.0f, 100.0f), rng.next_float(0.0f, 100.0f)});
    }
    instances.emplace_back("few" + std::to_string(n), Metric::kEuc2D, few);
  }
  std::vector<Point> globe;
  for (int i = 0; i < 700; ++i) {
    globe.push_back({rng.next_float(-80.0f, 80.0f),
                     rng.next_float(-180.0f, 180.0f)});
  }
  instances.emplace_back("globe-GEO", Metric::kGeo, globe);
  for (const Instance& inst : instances) {
    NeighborLists nl(inst, 8);
    expect_label_permutation(nl, inst.name());
  }
}

TEST(NeighborLists, LabelsAreDeterministic) {
  // The walk is serial over the serially built grid: two builds of one
  // instance label every city alike, however the pool split the rows.
  Instance inst = generate_clustered("c20k", 20000, 50, 3);
  NeighborLists a(inst, 8);
  NeighborLists b(inst, 8);
  expect_label_permutation(a, inst.name());
  EXPECT_TRUE(std::equal(a.labels().begin(), a.labels().end(),
                         b.labels().begin()));
}

TEST(NeighborLists, LabelsFollowSpaceAlongATour) {
  // A clustered generator's ids are random in space, so ids of tour
  // neighbours are far apart; labels follow a Hilbert walk of the plane,
  // so along a good tour they mostly differ by a few. On this instance's
  // multiple-fragment tour the mean |delta| between route neighbours is
  // 54.2 labels against 3 326.5 ids.
  Instance inst = generate_clustered("c10k", 10000, 25, 5);
  NeighborLists nl(inst, 16);
  Tour tour = multiple_fragment(inst, nl);
  std::span<const std::int32_t> order = tour.order();
  std::span<const std::int32_t> labels = nl.labels();
  double label_steps = 0.0;
  double id_steps = 0.0;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::int32_t a = order[p];
    const std::int32_t b = order[(p + 1) % order.size()];
    label_steps += std::abs(labels[static_cast<std::size_t>(a)] -
                            labels[static_cast<std::size_t>(b)]);
    id_steps += std::abs(a - b);
  }
  const double n = static_cast<double>(order.size());
  RecordProperty("mean_label_step", std::to_string(label_steps / n));
  RecordProperty("mean_id_step", std::to_string(id_steps / n));
  EXPECT_LT(label_steps * 20.0, id_steps)
      << "mean |delta label| " << label_steps / n << ", mean |delta id| "
      << id_steps / n;
}

// FNV-1a over the bytes of a list's ids, candidate lengths and labels.
std::uint64_t list_hash(const NeighborLists& nl) {
  std::uint64_t h = kFnv1aOffset;
  for (std::span<const std::int32_t> part :
       {nl.ids_flat(), nl.cand_dist_flat(), nl.labels()}) {
    h = fnv1a(std::string_view(reinterpret_cast<const char*>(part.data()),
                               part.size_bytes()),
              h);
  }
  return h;
}

TEST(NeighborLists, GoldenRows) {
  // Every row, candidate length and label of the k = 16 lists over the
  // pin instances, and of large50k's k = 12 lists (the multiple-fragment
  // start's own build). The row builder may change how it finds a row,
  // never what the row holds.
  const std::map<std::string, std::uint64_t> golden = {
      {"berlin52", 0x9e33161570abc608ull},
      {"kroE100", 0x8ea5192b5817becdull},
      {"ch130", 0xda164e1292dc8826ull},
      {"ch150", 0x6466c4c557c10f50ull},
      {"kroA200", 0x88407abc919b1e9bull},
      {"ts225", 0xe6b3ce202f30d16aull},
      {"pr226", 0x225e235dd0f0a518ull},
      {"pr439", 0x6564a482341b38full},
      {"rat783", 0x66818db77d01bac2ull},
      {"vm1084", 0x5c2fb289a3adb82full},
      {"pr2392", 0xf85e915f7e6d3159ull},
      {"pcb3038", 0x3c9c239873703941ull},
      {"fl3795", 0x2b9d3025b30c1d68ull},
      {"fnl4461", 0x5de9ee9aa999a015ull},
      {"rl5915", 0xf95ac1263aa9dd66ull},
      {"pla7397", 0xed179d78955eb239ull},
      {"usa13509", 0x2dd1975b39d8d18cull},
      {"d15112", 0x760be498c4f27021ull},
      {"d18512", 0x153c4aa36e739178ull},
      {"sw24978", 0xd6fcf97632a3c50full},
      {"pla33810", 0x574618b10573ab3eull},
      {"uniform10k", 0x1a6bf295371271bdull},
      {"clustered10k", 0xa34b14930e234402ull},
      {"grid10k", 0x3a868dd1b99077a6ull},
      {"large50k", 0x54c83b56209756e1ull},
      {"large50k/k12", 0x53c6923315d0b127ull},
  };
  auto expect = [&](const std::string& name, const NeighborLists& nl) {
    const std::uint64_t h = list_hash(nl);
    auto it = golden.find(name);
    EXPECT_EQ(h, it == golden.end() ? 0 : it->second)
        << name << " 0x" << std::hex << h;
  };
  for (const Instance& inst : pin_instances()) {
    expect(inst.name(), NeighborLists(inst, 16));
    if (inst.name() == "large50k") {
      expect("large50k/k12", NeighborLists(inst, 12));
    }
  }
}

TEST(NeighborLists, RequiresCoordinates) {
  std::vector<std::int32_t> m(9, 1);
  Instance inst("x", m, 3);
  EXPECT_THROW(NeighborLists nl(inst, 2), CheckError);
}

}  // namespace
}  // namespace tspopt
