// Property tests for the SIMD row kernels and runtime dispatch
// (solver/simd.hpp): every level the CPU supports must return *bit
// identical* results to the scalar reference — same BestMove (delta,
// index, i, j), same lowest-index tie-break — over randomized instances,
// including the degenerate {0, n-1} wraparound and adjacent pairs (which
// evaluate to exactly 0 and must be recorded), tie-heavy grid/clustered
// layouts, and every remainder-tail shape (row_len % W != 0).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "simt/device.hpp"
#include "solver/constructive.hpp"
#include "solver/delta.hpp"
#include "solver/local_search.hpp"
#include "solver/ordering.hpp"
#include "solver/simd.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {
namespace {

TEST(SimdDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::cpu_supports(simd::Level::kScalar));
  std::vector<simd::Level> levels = simd::supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  // Ascending width order, and every advertised level really resolves.
  std::int32_t prev_width = 0;
  for (simd::Level level : levels) {
    const simd::Kernels& k = simd::kernels(level);
    EXPECT_GT(k.width, prev_width) << simd::to_string(level);
    EXPECT_NE(k.row, nullptr) << simd::to_string(level);
    prev_width = k.width;
  }
}

TEST(SimdDispatch, ResolveUnsetPicksWidestSupportedLevel) {
  const simd::Kernels& unset = simd::resolve(nullptr);
  EXPECT_EQ(unset.level, simd::supported_levels().back());
  // Empty string behaves as unset (TSPOPT_SIMD= on the command line).
  EXPECT_EQ(simd::resolve("").level, unset.level);
  EXPECT_EQ(simd::active().level, simd::resolve(std::getenv("TSPOPT_SIMD")).level);
}

TEST(SimdDispatch, ResolvePinsExplicitLevels) {
  EXPECT_EQ(simd::resolve("scalar").level, simd::Level::kScalar);
  EXPECT_EQ(simd::resolve("scalar").width, 1);
  if (simd::cpu_supports(simd::Level::kAvx2)) {
    EXPECT_EQ(simd::resolve("avx2").level, simd::Level::kAvx2);
    EXPECT_EQ(simd::resolve("avx2").width, 8);
  } else {
    // Overrides never silently fall back: naming an unsupported level is
    // a hard error, not a quiet downgrade.
    EXPECT_THROW(simd::resolve("avx2"), CheckError);
  }
}

TEST(SimdDispatch, ResolveRejectsUnknownValue) {
  EXPECT_THROW(simd::resolve("sse9"), CheckError);
  EXPECT_THROW(simd::resolve("AVX2"), CheckError);  // case-sensitive
}

TEST(SimdDispatch, CoverageSplitArithmetic) {
  for (simd::Level level : simd::supported_levels()) {
    const simd::Kernels& k = simd::kernels(level);
    for (std::int64_t len : {0, 1, 7, 8, 9, 64, 999, 3063}) {
      EXPECT_EQ(k.vector_pairs(len) + k.tail_pairs(len), len);
      EXPECT_EQ(k.vector_pairs(len) % k.width, 0);
      EXPECT_LT(k.tail_pairs(len), static_cast<std::int64_t>(k.width));
    }
  }
}

// Assembles failure-message context without `const char* + string&&`
// chains (GCC 12's -Wrestrict false positive, PR105651).
std::string ctx(std::initializer_list<std::string> parts) {
  std::string out;
  for (const std::string& p : parts) out += p;
  return out;
}

// Naive reference row: the published move semantics (delta.hpp's two-range
// formula over Points, strict-< acceptance so the earliest i wins ties),
// with no hoisting and no vectorization.
simd::RowBest naive_row(const simd::RowArgs& a) {
  simd::RowBest best;
  Point pj{a.xj, a.yj};
  Point pj1{a.xj1, a.yj1};
  for (std::int32_t i = a.i_begin; i < a.i_end; ++i) {
    Point pi{a.xs[i], a.ys[i]};
    Point pi1{a.xs[i + 1], a.ys[i + 1]};
    std::int32_t d = two_opt_delta_two_ranges(pi, pi1, pj, pj1);
    if (d < best.delta) best = {d, i};
  }
  return best;
}

void expect_rows_equal(const simd::RowBest& got, const simd::RowBest& want,
                       const std::string& what) {
  EXPECT_EQ(got.delta, want.delta) << what;
  EXPECT_EQ(got.i, want.i) << what;
  EXPECT_EQ(got.found(), want.found()) << what;
}

TEST(SimdRowKernels, BitIdenticalToNaiveReferenceAcrossLevelsAndTails) {
  Pcg32 rng(42);
  // n spans every remainder class mod 8 plus sizes around the lane width,
  // so rows of every tail shape (row_len % W in 0..W-1) occur, including
  // rows shorter than one vector.
  for (std::int32_t n : {3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 33, 64, 65}) {
    Instance inst = generate_uniform(ctx({"s", std::to_string(n)}), n, 900 + n);
    Tour tour = Tour::random(n, rng);
    SoaCoords soa;
    order_coordinates_soa(inst, tour, soa);
    for (std::int32_t j = 1; j < n; ++j) {
      // Sub-ranges exercise segment starts (the chunked parallel walk) as
      // well as full rows; i_end == j includes the adjacent pair (j-1, j),
      // and j == n-1 includes the {0, n-1} wraparound pair whose successor
      // is the staged duplicate of position 0.
      for (std::int32_t i_begin : {0, 1, j / 2}) {
        for (std::int32_t i_end : {i_begin, (i_begin + j + 1) / 2, j}) {
          if (i_begin > i_end || i_end > j) continue;
          simd::RowArgs row{soa.xs(),     soa.ys(),     i_begin,
                            i_end,        soa.xs()[j],  soa.ys()[j],
                            soa.xs()[j + 1], soa.ys()[j + 1]};
          simd::RowBest want = naive_row(row);
          for (simd::Level level : simd::supported_levels()) {
            expect_rows_equal(
                simd::kernels(level).row(row), want,
                ctx({simd::to_string(level), " n=", std::to_string(n), " j=",
                     std::to_string(j), " [", std::to_string(i_begin), ",",
                     std::to_string(i_end), ")"}));
          }
        }
      }
    }
  }
}

TEST(SimdRowKernels, TieHeavyGridRowsPreserveLowestIndexWinner) {
  // Integer grids make many pairs share the exact same delta (often 0),
  // so any tie-break slip in the lane reduction shows up immediately.
  Pcg32 rng(11);
  Instance inst = generate_grid("g144", 144, 3);
  Tour tour = Tour::random(144, rng);
  SoaCoords soa;
  order_coordinates_soa(inst, tour, soa);
  for (std::int32_t j = 1; j < 144; ++j) {
    simd::RowArgs row{soa.xs(),     soa.ys(),     0,
                      j,            soa.xs()[j],  soa.ys()[j],
                      soa.xs()[j + 1], soa.ys()[j + 1]};
    simd::RowBest want = naive_row(row);
    for (simd::Level level : simd::supported_levels()) {
      expect_rows_equal(simd::kernels(level).row(row), want,
                        ctx({simd::to_string(level), " j=", std::to_string(j)}));
    }
  }
}

TEST(SimdRowKernels, EmptyRowReportsNoMove) {
  float xs[2] = {0.0f, 3.0f};
  float ys[2] = {0.0f, 4.0f};
  simd::RowArgs row{xs, ys, 0, 0, 1.0f, 1.0f, 2.0f, 2.0f};
  for (simd::Level level : simd::supported_levels()) {
    simd::RowBest rb = simd::kernels(level).row(row);
    EXPECT_FALSE(rb.found()) << simd::to_string(level);
    EXPECT_EQ(rb.delta, simd::RowBest::kNoMove);
    EXPECT_EQ(rb.i, -1);
  }
}

// A staged route for the reach-filter edge: rows against position j of
// arrays xs/ys[0, j + 2), with succ[i] == |i, i+1| in dist_euc2d.
struct EdgeRows {
  std::vector<float> xs, ys;
  std::vector<std::int32_t> succ;

  explicit EdgeRows(std::int32_t j)
      : xs(static_cast<std::size_t>(j) + 2),
        ys(static_cast<std::size_t>(j) + 2),
        succ(static_cast<std::size_t>(j) + 1) {}

  void set(std::int32_t p, float x, float y) {
    xs[static_cast<std::size_t>(p)] = x;
    ys[static_cast<std::size_t>(p)] = y;
  }
  void measure() {
    for (std::size_t p = 0; p < succ.size(); ++p) {
      succ[p] = dist_euc2d(Point{xs[p], ys[p]}, Point{xs[p + 1], ys[p + 1]});
    }
  }
};

// Checks every row [i_begin, i_end) of `rows` against j, at every level,
// with staged and with derived successor lengths, against naive_row. A
// row may skip only pairs with d(i, j) > |i, i+1| + |j, j+1|; the scalar
// kernel skips exactly those. Returns how many rows had a delta-0 winner
// sitting exactly on the filter's edge (d(i, j) == the removed edges).
int expect_filter_exact(const EdgeRows& rows, std::int32_t j,
                        const std::string& what) {
  const std::size_t at_j = static_cast<std::size_t>(j);
  const std::int32_t djj1 =
      dist_euc2d(Point{rows.xs[at_j], rows.ys[at_j]},
                 Point{rows.xs[at_j + 1], rows.ys[at_j + 1]});
  auto near = [&](std::int32_t i) {
    const auto at = static_cast<std::size_t>(i);
    return dist_euc2d(Point{rows.xs[at], rows.ys[at]},
                      Point{rows.xs[at_j], rows.ys[at_j]});
  };
  int edge_rows = 0;
  for (std::int32_t i_begin = 0; i_begin < std::min(j, 9); ++i_begin) {
    for (std::int32_t i_end = i_begin; i_end <= j; ++i_end) {
      simd::RowArgs row{rows.xs.data(), rows.ys.data(),     i_begin,
                        i_end,          rows.xs[at_j],      rows.ys[at_j],
                        rows.xs[at_j + 1], rows.ys[at_j + 1], nullptr};
      const simd::RowBest want = naive_row(row);
      std::int32_t provable = 0;
      for (std::int32_t i = i_begin; i < i_end; ++i) {
        if (near(i) > rows.succ[static_cast<std::size_t>(i)] + djj1) {
          ++provable;
        }
      }
      if (want.delta == 0 &&
          near(want.i) == rows.succ[static_cast<std::size_t>(want.i)] + djj1) {
        ++edge_rows;
      }
      for (const std::int32_t* succ_len :
           {static_cast<const std::int32_t*>(nullptr), rows.succ.data()}) {
        row.succ_len = succ_len;
        for (simd::Level level : simd::supported_levels()) {
          const std::string where =
              ctx({what, " ", simd::to_string(level),
                   succ_len != nullptr ? " staged" : " derived", " j=",
                   std::to_string(j), " [", std::to_string(i_begin), ",",
                   std::to_string(i_end), ")"});
          const simd::RowBest got = simd::kernels(level).row(row);
          expect_rows_equal(got, want, where);
          EXPECT_GE(got.skipped, 0) << where;
          EXPECT_LE(got.skipped, provable) << where;
          if (level == simd::Level::kScalar) {
            EXPECT_EQ(got.skipped, provable) << where;
          }
        }
      }
    }
  }
  return edge_rows;
}

TEST(SimdRowKernels, ReachFilterNeverSkipsANonPositiveDelta) {
  // Lattice rows: position j at the origin, its successor C = (5, 0) on
  // the axis, the row on a lattice ~1000 away (every pair far, delta > 0),
  // except pair i*: it sits at (1000 + i*, 0) with successor C, so
  // d(i*, j) == |i*, C| + |j, C| exactly and, the successors coinciding,
  // delta == 0. It is the row's lowest delta-0 pair, so a filter that
  // skipped on >= instead of > would report i* + 1 (also delta 0) or no
  // move. Every i* sweeps the edge pair through every lane and tail slot.
  // `scale` and `origin` replay the rows next to the 2.5e8 coordinate
  // bound, where float spacing is 16 and distances reach their maximum.
  int edge_rows = 0;
  for (const auto& [scale, origin] :
       {std::pair{1.0f, 0.0f}, std::pair{16.0f, -2.5e8f},
        std::pair{16.0f, 2.5e8f - 16.0f * 1100.0f}}) {
    for (std::int32_t j = 2; j <= 26; ++j) {
      for (std::int32_t star = 0; star + 1 < j; ++star) {
        EdgeRows rows(j);
        for (std::int32_t p = 0; p < j; ++p) {
          rows.set(p, origin + scale * static_cast<float>(1000 + p),
                   origin + scale * static_cast<float>(p % 3));
        }
        rows.set(star, origin + scale * static_cast<float>(1000 + star),
                 origin);
        rows.set(star + 1, origin + scale * 5.0f, origin);
        rows.set(j, origin, origin);
        rows.set(j + 1, origin + scale * 5.0f, origin);
        rows.measure();
        edge_rows += expect_filter_exact(
            rows, j, ctx({"lattice x", std::to_string(scale), " i*=",
                          std::to_string(star)}));
      }
    }
  }
  EXPECT_GT(edge_rows, 1000);

  // Duplicate points: every row point and j's successor coincide, so each
  // pair has d(i, j) == |j, j+1| == the removed edges and delta == 0; and
  // coordinates drawn from three values, so zero-length edges, ties and
  // equalities mix. The corner set spans the whole coordinate box.
  Pcg32 rng(2026);
  for (const float extent : {7.0f, 2.5e8f}) {
    for (std::int32_t j = 2; j <= 26; ++j) {
      EdgeRows dup(j);
      for (std::int32_t p = 0; p < j; ++p) dup.set(p, extent, 0.0f);
      dup.set(j, -extent, -extent);
      dup.set(j + 1, extent, 0.0f);
      dup.measure();
      EXPECT_GT(expect_filter_exact(dup, j, "duplicates"), 0) << "j=" << j;

      const float values[3] = {-extent, 0.0f, extent};
      EdgeRows mixed(j);
      for (std::int32_t p = 0; p < j + 2; ++p) {
        mixed.set(p, values[rng.next_below(3)], values[rng.next_below(3)]);
      }
      mixed.measure();
      expect_filter_exact(mixed, j, "three-valued");
    }
  }
}

// A route staged as the engines stage it: coordinates, successor lengths
// and tiles, through SoaCoords.
SoaCoords stage_route(const std::vector<Point>& route) {
  SoaCoords soa;
  soa.resize(static_cast<std::int32_t>(route.size()));
  for (std::size_t p = 0; p < route.size(); ++p) {
    soa.xs()[p] = route[p].x;
    soa.ys()[p] = route[p].y;
  }
  soa.close();
  soa.measure_all();
  soa.stage_tiles();
  return soa;
}

// Checks rows of `soa` against every position j: the row with tiles must
// equal the row without them (delta, i and skipped) at every level, with
// staged and derived successor lengths, for [i_begin, i_end) starting and
// ending off tile and lane boundaries. Returns how many (row, tile) pairs
// the tile bound cleared, so callers can check that tiles were skipped.
std::int64_t expect_tiles_exact(const SoaCoords& soa, const std::string& what) {
  const std::int32_t n = soa.n();
  const float* xs = soa.xs();
  const float* ys = soa.ys();
  std::int64_t cleared = 0;
  for (std::int32_t j = 1; j < n; ++j) {
    const std::int32_t djj1 =
        dist_euc2d(Point{xs[j], ys[j]}, Point{xs[j + 1], ys[j + 1]});
    for (std::int32_t t = 0; t * SoaCoords::kTile < j; ++t) {
      const TileGroup& g = soa.tiles()[t / TileGroup::kLanes];
      const std::int32_t l = t % TileGroup::kLanes;
      const float dx = std::max({g.x_lo[l] - xs[j], xs[j] - g.x_hi[l], 0.0f});
      const float dy = std::max({g.y_lo[l] - ys[j], ys[j] - g.y_hi[l], 0.0f});
      if (dist_euc2d(Point{0.0f, 0.0f}, Point{dx, dy}) >
          g.max_succ_len[l] + djj1) {
        ++cleared;
      }
    }
    for (std::int32_t i_begin : {0, 1, 7, 63, 64, 65, 130, 509}) {
      if (i_begin >= j) continue;
      for (std::int32_t i_end : {j, j - 1, i_begin + 1, i_begin + 8,
                                 i_begin + 71, (i_begin + j) / 2}) {
        if (i_end < i_begin || i_end > j) continue;
        simd::RowArgs row{xs,     ys,     i_begin,   i_end,
                          xs[j],  ys[j],  xs[j + 1], ys[j + 1]};
        const simd::RowBest reference = naive_row(row);
        for (const std::int32_t* succ_len :
             {static_cast<const std::int32_t*>(nullptr), soa.succ_len()}) {
          row.succ_len = succ_len;
          for (simd::Level level : simd::supported_levels()) {
            const std::string where =
                ctx({what, " ", simd::to_string(level),
                     succ_len != nullptr ? " staged" : " derived", " j=",
                     std::to_string(j), " [", std::to_string(i_begin), ",",
                     std::to_string(i_end), ")"});
            row.tiles = nullptr;
            const simd::RowBest want = simd::kernels(level).row(row);
            row.tiles = soa.tiles();
            const simd::RowBest got = simd::kernels(level).row(row);
            expect_rows_equal(want, reference, where);
            expect_rows_equal(got, want, where);
            EXPECT_EQ(got.skipped, want.skipped) << where;
          }
        }
      }
    }
  }
  return cleared;
}

// A snake over a cols x rows lattice of `step` spacing from `origin`:
// consecutive positions are lattice neighbours, so every tile is a
// compact patch and many pairs tie.
std::vector<Point> snake_route(std::int32_t cols, std::int32_t rows,
                               float step, float origin) {
  std::vector<Point> route;
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      const std::int32_t col = r % 2 == 0 ? c : cols - 1 - c;
      route.push_back({origin + step * static_cast<float>(col),
                       origin + step * static_cast<float>(r)});
    }
  }
  return route;
}

TEST(SimdRowKernels, TileFilterMatchesUnfilteredRowBitForBit) {
  Pcg32 rng(2027);
  std::int64_t cleared = 0;

  // Random: tiles span the whole square and rarely clear.
  std::vector<Point> random(259);
  for (Point& p : random) {
    p = {rng.next_float(0.0f, 1000.0f), rng.next_float(0.0f, 1000.0f)};
  }
  expect_tiles_exact(stage_route(random), "random");

  // Clustered: 37-point clusters visited in turn, so cluster borders fall
  // inside tiles and tiles straddle two clusters.
  std::vector<Point> clustered;
  for (std::int32_t c = 0; c < 7; ++c) {
    const float cx = rng.next_float(0.0f, 5000.0f);
    const float cy = rng.next_float(0.0f, 5000.0f);
    for (std::int32_t k = 0; k < 37; ++k) {
      clustered.push_back({cx + rng.next_float(-20.0f, 20.0f),
                           cy + rng.next_float(-20.0f, 20.0f)});
    }
  }
  cleared += expect_tiles_exact(stage_route(clustered), "clustered");

  // Tie-heavy: an integer lattice snake (unit edges, equal deltas).
  cleared += expect_tiles_exact(stage_route(snake_route(13, 20, 1.0f, 0.0f)),
                                "lattice");

  // Duplicates: each lattice point five times, so tiles hold zero-length
  // edges and boxes of a few points.
  std::vector<Point> duplicates;
  for (const Point& p : snake_route(8, 7, 3.0f, 0.0f)) {
    for (int copy = 0; copy < 5; ++copy) duplicates.push_back(p);
  }
  cleared += expect_tiles_exact(stage_route(duplicates), "duplicates");

  // The 2.5e8 coordinate bound: a lattice spanning [-2.5e8, 2.5e8].
  cleared += expect_tiles_exact(
      stage_route(snake_route(16, 16, 5e8f / 15.0f, -2.5e8f)), "2.5e8");

  // 10 tiles: runs of cleared tiles meet the edge of the first eight-tile
  // group, and rows cross into the second.
  cleared += expect_tiles_exact(stage_route(snake_route(32, 20, 1.0f, 0.0f)),
                                "two groups");

  // Bound edges. j = n - 2 sits at the origin and j + 1 at C = (5, 0).
  // Edge tiles alternate with filler tiles. An edge tile is a compact run
  // ~far from j whose last position i* has the next tile's first
  // position, C, as successor: |i*, C| is the tile's longest edge, and
  // d(i*, j) <= |i*, C| + |j, C|, so the per-pair test keeps (i*, j).
  //  - "corner": i* = (far, 0) is the box corner nearest j and
  //    d(i*, j) == |i*, C| + |j, C| exactly (delta 0): the tile bound
  //    equals the removed edges and must not clear (strict >), nor may it
  //    clear on the tile's first (short) edge in place of its longest.
  //  - "inside": the tile spans x in [-1000, 1000] above j, so j's x
  //    offset from the box is negative on both sides and only its clamp
  //    at 0 keeps the bound at d(i*, j) (delta -5).
  for (const bool inside : {false, true}) {
    std::vector<Point> edge;
    for (std::int32_t t = 0; t < 3; ++t) {
      const float far = 1000.0f + 64.0f * static_cast<float>(t);
      for (std::int32_t k = 0; k + 1 < SoaCoords::kTile; ++k) {
        const auto fk = static_cast<float>(k);
        const auto wobble = static_cast<float>(k % 3);
        edge.push_back(inside ? Point{-1000.0f + fk * 2000.0f / 62.0f,
                                      far + wobble}
                              : Point{far + fk, 1.0f + wobble});
      }
      edge.push_back(inside ? Point{0.0f, far} : Point{far, 0.0f});  // i*
      edge.push_back({5.0f, 0.0f});  // C, first of the filler tile
      for (std::int32_t k = 1; k < SoaCoords::kTile; ++k) {
        edge.push_back({far + static_cast<float>(k),
                        3000.0f + static_cast<float>(k % 3)});
      }
    }
    edge.push_back({0.0f, 0.0f});  // j
    edge.push_back({5.0f, 0.0f});  // j + 1
    cleared += expect_tiles_exact(stage_route(edge),
                                  inside ? "edge inside" : "edge corner");
  }
  EXPECT_GT(cleared, 1000);
}

void expect_results_equal(const SearchResult& got, const SearchResult& want,
                          const std::string& what) {
  EXPECT_EQ(got.best.delta, want.best.delta) << what;
  EXPECT_EQ(got.best.index, want.best.index) << what;
  EXPECT_EQ(got.best.i, want.best.i) << what;
  EXPECT_EQ(got.best.j, want.best.j) << what;
  EXPECT_EQ(got.checks, want.checks) << what;
}

TEST(SimdEngines, EveryDispatchLevelMatchesSequentialReference) {
  Pcg32 rng(7);
  TwoOptSequential reference;
  for (std::int32_t n : {3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 257,
                         999, 1000}) {
    Instance inst = generate_uniform(ctx({"e", std::to_string(n)}), n, 4000 + n);
    Tour tour = Tour::random(n, rng);
    SearchResult expected = reference.search(inst, tour);
    for (simd::Level level : simd::supported_levels()) {
      TwoOptSimd engine(&simd::kernels(level));
      expect_results_equal(
          engine.search(inst, tour), expected,
          ctx({simd::to_string(level), " n=", std::to_string(n)}));
    }
  }
}

TEST(SimdEngines, TieHeavyInstancesMatchAtEveryLevel) {
  Pcg32 rng(5);
  TwoOptSequential reference;
  Instance grid = generate_grid("g400", 400, 5);
  Instance clustered = generate_clustered("c300", 300, 6, 77);
  for (const Instance* inst : {&grid, &clustered}) {
    Tour tour = Tour::random(inst->n(), rng);
    SearchResult expected = reference.search(*inst, tour);
    for (simd::Level level : simd::supported_levels()) {
      TwoOptSimd engine(&simd::kernels(level));
      expect_results_equal(engine.search(*inst, tour), expected,
                           ctx({simd::to_string(level), " on ", inst->name()}));
    }
  }
}

TEST(SimdEngines, PinnedKernelsPropagateThroughParallelAndTiledEngines) {
  Pcg32 rng(13);
  Instance inst = generate_uniform("p500", 500, 17);
  Tour tour = Tour::random(500, rng);
  TwoOptSequential reference;
  SearchResult expected = reference.search(inst, tour);
  for (simd::Level level : simd::supported_levels()) {
    const simd::Kernels& k = simd::kernels(level);
    {
      TwoOptSimd engine(&k, &ThreadPool::shared());
      expect_results_equal(engine.search(inst, tour), expected,
                           ctx({"cpu-parallel @ ", simd::to_string(level)}));
    }
    {
      simt::Device device(simt::gtx680_cuda());
      // Tile 64 forces many tiles (diagonal triangles + rectangles) so the
      // kernel sweeps rows of both shapes at this level.
      TwoOptGpuTiled engine(device, 64, {}, 0, 1, &k);
      expect_results_equal(engine.search(inst, tour), expected,
                           ctx({"gpu-tiled @ ", simd::to_string(level)}));
    }
  }
}

TEST(SimdEngines, DefaultConstructionUsesProcessWideDispatch) {
  TwoOptSimd engine;
  EXPECT_EQ(&engine.kernels(), &simd::active());
}

TEST(SimdEngines, PassCoverageCountersSplitEveryPair) {
  // One pass must account for every pair of the triangle exactly once,
  // split between the vectorized lanes and the scalar tails.
  const std::int32_t n = 203;  // odd, so most rows have a remainder tail
  Instance inst = generate_uniform("cov203", n, 3);
  Pcg32 rng(29);
  Tour tour = Tour::random(n, rng);
  for (simd::Level level : simd::supported_levels()) {
    obs::Counter& vec =
        obs::Registry::global().counter("twoopt.pairs_vectorized");
    obs::Counter& tail =
        obs::Registry::global().counter("twoopt.pairs_scalar_tail");
    obs::Counter& skipped =
        obs::Registry::global().counter("twoopt.pairs_reach_skipped");
    std::uint64_t vec0 = vec.value();
    std::uint64_t tail0 = tail.value();
    std::uint64_t skipped0 = skipped.value();
    TwoOptSimd engine(&simd::kernels(level));
    SearchResult r = engine.search(inst, tour);
    std::uint64_t dv = vec.value() - vec0;
    std::uint64_t dt = tail.value() - tail0;
    std::uint64_t ds = skipped.value() - skipped0;
    EXPECT_EQ(dv + dt, static_cast<std::uint64_t>(pair_count(n)))
        << simd::to_string(level);
    EXPECT_EQ(r.checks, static_cast<std::uint64_t>(pair_count(n)));
    // The reach filter decides pairs without their second distance; they
    // stay in the split above and in the counted checks.
    EXPECT_GT(ds, 0u) << simd::to_string(level);
    EXPECT_LE(ds, static_cast<std::uint64_t>(pair_count(n)))
        << simd::to_string(level);
    if (simd::kernels(level).width == 1) {
      EXPECT_EQ(dt, 0u) << "scalar kernels have no tail";
    } else {
      EXPECT_GT(dv, 0u);
      EXPECT_GT(dt, 0u);
    }

    skipped0 = skipped.value();
    TwoOptSimd parallel(&simd::kernels(level), &ThreadPool::shared());
    EXPECT_EQ(parallel.search(inst, tour).checks,
              static_cast<std::uint64_t>(pair_count(n)));
    ds = skipped.value() - skipped0;
    EXPECT_GT(ds, 0u) << "cpu-parallel @ " << simd::to_string(level);
    EXPECT_LE(ds, static_cast<std::uint64_t>(pair_count(n)))
        << "cpu-parallel @ " << simd::to_string(level);
  }
}

TEST(SimdEngines, Vm1084DescentPinsMovesChecksLengthAndReachSkips) {
  // One cpu-simd descent of vm1084 from its multiple-fragment start, as
  // `tsplib_tool vm1084 --solve --engine cpu-simd` runs it. The reach
  // filters decide pairs without changing which move a pass picks, so the
  // trajectory and the skip counts are exact: the AVX2 kernel skips whole
  // 8-lane blocks, the scalar kernel every provable pair.
  Instance inst = make_catalog_instance(*find_catalog_entry("vm1084"));
  const Tour start = multiple_fragment(inst);
  ASSERT_EQ(start.length(inst), 282690);
  obs::Counter& skipped =
      obs::Registry::global().counter("twoopt.pairs_reach_skipped");
  for (simd::Level level : simd::supported_levels()) {
    TwoOptSimd engine(&simd::kernels(level));
    Tour tour = start;
    const std::uint64_t skipped0 = skipped.value();
    const LocalSearchStats stats = local_search(engine, inst, tour);
    const std::string where = simd::to_string(level);
    EXPECT_TRUE(stats.reached_local_minimum) << where;
    EXPECT_EQ(stats.moves_applied, 138) << where;
    EXPECT_EQ(stats.checks, 81591054u) << where;
    EXPECT_EQ(tour.length(inst), 249007) << where;
    EXPECT_EQ(skipped.value() - skipped0,
              level == simd::Level::kScalar ? 80914713u : 79839467u)
        << where;
  }
}

// Shared staging for the candidate-kernel tests: route-ordered SoA
// coordinates, positions (city -> position), successor-edge lengths, and
// width-padded candidate rows, mirroring TwoOptSimdPruned's setup.
struct CandFixture {
  CandFixture(const Instance& inst, const Tour& tour, std::int32_t k,
              std::int32_t k_pad)
      : neighbors(inst, k), k(neighbors.k()), k_pad(k_pad) {
    n = inst.n();
    order_coordinates_soa(inst, tour, soa);
    route.assign(tour.order().begin(), tour.order().end());
    positions.resize(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p)
      positions[static_cast<std::size_t>(route[static_cast<std::size_t>(p)])] =
          p;
    succ_len.resize(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p)
      succ_len[static_cast<std::size_t>(p)] =
          dist_euc2d(Point{soa.xs()[p], soa.ys()[p]},
                     Point{soa.xs()[p + 1], soa.ys()[p + 1]});
    ordered.resize(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p)
      ordered[static_cast<std::size_t>(p)] =
          inst.point(route[static_cast<std::size_t>(p)]);
    // Width-padded rows, first-candidate duplication — the engine's rule.
    ids_pad.resize(static_cast<std::size_t>(n) *
                   static_cast<std::size_t>(k_pad));
    cd_pad.resize(ids_pad.size());
    for (std::int32_t city = 0; city < n; ++city) {
      auto ids = neighbors.neighbors(city);
      auto cds = neighbors.cand_dists(city);
      for (std::int32_t c = 0; c < k_pad; ++c) {
        std::size_t at = static_cast<std::size_t>(city) *
                             static_cast<std::size_t>(k_pad) +
                         static_cast<std::size_t>(c);
        ids_pad[at] = ids[static_cast<std::size_t>(c < this->k ? c : 0)];
        cd_pad[at] = cds[static_cast<std::size_t>(c < this->k ? c : 0)];
      }
    }
    recs.resize(static_cast<std::size_t>(n));
    for (std::int32_t q = 0; q < n; ++q)
      recs[static_cast<std::size_t>(route[static_cast<std::size_t>(q)])] =
          simd::CandRecord{soa.xs()[q + 1], soa.ys()[q + 1],
                           succ_len[static_cast<std::size_t>(q)], q};
  }

  simd::CandRowArgs row_args(std::int32_t p, std::int32_t* out_delta,
                             std::int32_t* out_q, std::int32_t* out_min) {
    std::int32_t city = route[static_cast<std::size_t>(p)];
    return simd::CandRowArgs{
        soa.xs(),
        soa.ys(),
        succ_len.data(),
        positions.data(),
        ids_pad.data() + static_cast<std::size_t>(city) *
                             static_cast<std::size_t>(k_pad),
        cd_pad.data() + static_cast<std::size_t>(city) *
                            static_cast<std::size_t>(k_pad),
        k_pad,
        p,
        out_delta,
        out_q,
        out_min};
  }

  NeighborLists neighbors;
  std::int32_t n = 0;
  std::int32_t k = 0;
  std::int32_t k_pad = 0;
  SoaCoords soa;
  std::vector<std::int32_t> route;
  std::vector<std::int32_t> positions;
  std::vector<std::int32_t> succ_len;
  std::vector<Point> ordered;
  std::vector<std::int32_t> ids_pad;
  std::vector<std::int32_t> cd_pad;
  std::vector<simd::CandRecord> recs;
};

TEST(SimdCandKernels, CandRowMatchesPublishedDeltaAndScalarAcrossLevels) {
  Pcg32 rng(37);
  Instance inst = generate_grid("cg169", 169, 9);  // tie-heavy
  Tour tour = Tour::random(169, rng);
  CandFixture fx(inst, tour, 10, 16);  // k=10 padded to two lane-groups
  std::vector<std::int32_t> want_delta(16), want_q(16), got_delta(16),
      got_q(16);
  for (std::int32_t p = 0; p < fx.n; ++p) {
    std::int32_t want_min = 0x7fffffff;
    simd::kernels(simd::Level::kScalar)
        .cand_row(fx.row_args(p, want_delta.data(), want_q.data(), &want_min));
    // The scalar kernel agrees with the published two-range formula.
    for (std::int32_t c = 0; c < fx.k_pad; ++c) {
      std::int32_t q = want_q[static_cast<std::size_t>(c)];
      std::int32_t lo = p < q ? p : q;
      std::int32_t hi = p < q ? q : p;
      EXPECT_EQ(want_delta[static_cast<std::size_t>(c)],
                two_opt_delta(fx.ordered, lo, hi))
          << ctx({"p=", std::to_string(p), " c=", std::to_string(c)});
    }
    EXPECT_EQ(want_min,
              *std::min_element(want_delta.begin(), want_delta.end()));
    for (simd::Level level : simd::supported_levels()) {
      std::int32_t got_min = 0x7fffffff;
      simd::kernels(level).cand_row(
          fx.row_args(p, got_delta.data(), got_q.data(), &got_min));
      EXPECT_EQ(got_delta, want_delta)
          << ctx({simd::to_string(level), " p=", std::to_string(p)});
      EXPECT_EQ(got_q, want_q)
          << ctx({simd::to_string(level), " p=", std::to_string(p)});
      EXPECT_EQ(got_min, want_min)
          << ctx({simd::to_string(level), " p=", std::to_string(p)});
    }
  }
}

TEST(SimdCandKernels, CandSweepMinimaMatchCandRowAcrossLevels) {
  Pcg32 rng(41);
  Instance inst = generate_clustered("cs500", 500, 8, 23);
  Tour tour = Tour::random(500, rng);
  CandFixture fx(inst, tour, 12, 16);
  // All rows, in tour-position order: the route lists their city ids
  // (the engine sweeps whichever rows it must; the kernel only sees ids).
  std::vector<std::int32_t> delta_buf(static_cast<std::size_t>(fx.k_pad));
  std::vector<std::int32_t> q_buf(static_cast<std::size_t>(fx.k_pad));
  for (simd::Level level : simd::supported_levels()) {
    std::vector<std::int32_t> minima(fx.route.size(), 0x7fffffff);
    simd::CandSweepArgs args{fx.recs.data(),
                             fx.ids_pad.data(),
                             fx.cd_pad.data(),
                             fx.k_pad,
                             fx.route.data(),
                             static_cast<std::int32_t>(fx.route.size()),
                             minima.data()};
    simd::kernels(level).cand_sweep(args);
    for (std::int32_t p = 0; p < fx.n; ++p) {
      std::int32_t row_min = 0x7fffffff;
      simd::kernels(simd::Level::kScalar)
          .cand_row(fx.row_args(p, delta_buf.data(), q_buf.data(), &row_min));
      EXPECT_EQ(minima[static_cast<std::size_t>(p)], row_min)
          << ctx({simd::to_string(level), " p=", std::to_string(p)});
    }
  }
}

}  // namespace
}  // namespace tspopt
