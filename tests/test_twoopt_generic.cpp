#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/ils.hpp"
#include "solver/local_search.hpp"
#include "solver/twoopt_generic.hpp"
#include "solver/twoopt_sequential.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

// An n-city EXPLICIT instance with a known unique optimum: cities on a
// line, distance = |i-j| (optimal tour 0-1-...-(n-1), length 2(n-1)).
Instance line_instance(std::int32_t n) {
  std::vector<std::int32_t> m(static_cast<std::size_t>(n * n));
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = 0; b < n; ++b) {
      m[static_cast<std::size_t>(a * n + b)] = std::abs(a - b);
    }
  }
  return Instance("line" + std::to_string(n), m,
                  static_cast<std::size_t>(n));
}

TEST(Generic, BitEquivalentToCoordinateEngineOnEuc2D) {
  Pcg32 rng(1);
  for (std::int32_t n : {5, 50, 300}) {
    Instance inst = generate_uniform("u", n, static_cast<std::uint64_t>(n));
    TwoOptGeneric generic;
    TwoOptSequential reference;
    for (int trial = 0; trial < 5; ++trial) {
      Tour tour = Tour::random(n, rng);
      SearchResult g = generic.search(inst, tour);
      SearchResult r = reference.search(inst, tour);
      ASSERT_EQ(g.best.delta, r.best.delta);
      ASSERT_EQ(g.best.index, r.best.index);
      ASSERT_EQ(g.checks, r.checks);
    }
  }
}

TEST(Generic, DeltaMatchesLengthDifferenceOnGeoInstances) {
  // GEO metric: the coordinate kernels don't apply, the generic engine
  // must still return a move whose delta equals the real length change.
  std::vector<Point> pts;
  Pcg32 rng(2);
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.next_float(-40.0f, 60.0f), rng.next_float(-30.0f, 30.0f)});
  }
  Instance inst("geo40", Metric::kGeo, std::move(pts));
  TwoOptGeneric engine;
  for (int trial = 0; trial < 10; ++trial) {
    Tour tour = Tour::random(40, rng);
    SearchResult r = engine.search(inst, tour);
    if (!r.best.improves()) continue;
    std::int64_t before = tour.length(inst);
    tour.apply_two_opt(r.best.i, r.best.j);
    ASSERT_EQ(tour.length(inst) - before, r.best.delta);
  }
}

TEST(Generic, SolvesExplicitMatrixInstances) {
  Instance inst = line_instance(5);
  Tour tour({0, 2, 4, 1, 3});  // scrambled
  TwoOptGeneric engine;
  LocalSearchStats stats = local_search(engine, inst, tour);
  EXPECT_TRUE(stats.reached_local_minimum);
  EXPECT_EQ(tour.length(inst), 8);
}

// ILS and a population run hold their tours in a TourBatch, which must
// take a matrix instance as readily as a coordinate one. Five cities are
// too few for a double bridge, so line5 runs the initial descent only;
// line12 also runs kicks, whose kept lengths read the matrix.
TEST(Generic, IlsAndPopulationSolveExplicitMatrixInstances) {
  for (std::int32_t n : {5, 12}) {
    Instance inst = line_instance(n);
    const std::int64_t optimum = 2 * (n - 1);
    Pcg32 rng(static_cast<std::uint64_t>(n));
    Tour start = Tour::random(n, rng);
    IlsOptions options;
    options.time_limit_seconds = -1.0;
    options.max_iterations = n < 8 ? 0 : 30;
    TwoOptGeneric engine;
    IlsResult solo = iterated_local_search(engine, inst, start, options);
    EXPECT_EQ(solo.best_length, optimum) << inst.name();
    EXPECT_EQ(solo.best.length(inst), optimum) << inst.name();

    PerSlotBatchEngine slots(engine);
    PopulationIlsResult pop =
        population_ils(slots, inst, {start, start}, population_members(2, 3),
                       population_options(options));
    ASSERT_EQ(pop.members.size(), 2u);
    for (const IlsResult& member : pop.members) {
      EXPECT_EQ(member.best_length, optimum) << inst.name();
      EXPECT_EQ(member.best.length(inst), optimum) << inst.name();
    }
  }
}

TEST(Generic, AttMetricDescends) {
  std::vector<Point> pts;
  Pcg32 rng(3);
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.next_float(0, 1000), rng.next_float(0, 1000)});
  }
  Instance inst("att60", Metric::kAtt, std::move(pts));
  Tour tour = Tour::random(60, rng);
  std::int64_t before = tour.length(inst);
  TwoOptGeneric engine;
  LocalSearchStats stats = local_search(engine, inst, tour);
  EXPECT_TRUE(stats.reached_local_minimum);
  EXPECT_LT(tour.length(inst), before);
  EXPECT_EQ(before - tour.length(inst), stats.improvement);
}

TEST(Generic, RejectsMismatchedTour) {
  Instance inst = berlin52();
  TwoOptGeneric engine;
  Tour tour = Tour::identity(10);
  EXPECT_THROW(engine.search(inst, tour), CheckError);
}

}  // namespace
}  // namespace tspopt
