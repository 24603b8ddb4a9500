#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/local_search.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

TEST(LocalSearch, ReachesLocalMinimumAndNeverWorsens) {
  Instance inst = berlin52();
  Pcg32 rng(1);
  Tour tour = Tour::random(inst.n(), rng);
  std::int64_t initial = tour.length(inst);
  TwoOptSequential engine;
  LocalSearchStats stats = local_search(engine, inst, tour);
  EXPECT_TRUE(stats.reached_local_minimum);
  EXPECT_TRUE(tour.is_valid());
  std::int64_t final_len = tour.length(inst);
  EXPECT_LT(final_len, initial);
  EXPECT_EQ(initial - final_len, stats.improvement);
  // At the local minimum one more pass must find nothing.
  SearchResult extra = engine.search(inst, tour);
  EXPECT_FALSE(extra.best.improves());
}

TEST(LocalSearch, Berlin52FromRandomGetsNearOptimal) {
  // 2-opt local minima on berlin52 are typically within ~8% of 7542.
  Instance inst = berlin52();
  Pcg32 rng(77);
  Tour tour = Tour::random(inst.n(), rng);
  TwoOptSequential engine;
  local_search(engine, inst, tour);
  std::int64_t len = tour.length(inst);
  EXPECT_GE(len, kBerlin52Optimum);
  EXPECT_LE(len, kBerlin52Optimum * 115 / 100);
}

TEST(LocalSearch, AllEnginesReachTheSameLocalMinimum) {
  // Best-improvement with deterministic tie-breaking makes the whole
  // descent deterministic, so every engine must produce an identical tour.
  Instance inst = generate_uniform("u150", 150, 9);
  Pcg32 rng(4);
  Tour initial = Tour::random(150, rng);

  Tour seq_tour = initial;
  TwoOptSequential seq;
  local_search(seq, inst, seq_tour);

  simt::Device device(simt::gtx680_cuda());
  for (int variant = 0; variant < 3; ++variant) {
    Tour t = initial;
    if (variant == 0) {
      TwoOptSimd e(nullptr, &ThreadPool::shared());
      local_search(e, inst, t);
    } else if (variant == 1) {
      TwoOptGpuSmall e(device);
      local_search(e, inst, t);
    } else {
      TwoOptGpuTiled e(device, 64);
      local_search(e, inst, t);
    }
    EXPECT_TRUE(t == seq_tour) << "variant " << variant;
  }
}

TEST(LocalSearch, PassBudgetIsHonored) {
  Instance inst = generate_uniform("u200", 200, 5);
  Pcg32 rng(6);
  Tour tour = Tour::random(200, rng);
  TwoOptSequential engine;
  LocalSearchOptions opts;
  opts.max_passes = 3;
  LocalSearchStats stats = local_search(engine, inst, tour, opts);
  EXPECT_EQ(stats.passes, 3);
  EXPECT_FALSE(stats.reached_local_minimum);
  EXPECT_EQ(stats.checks, 3u * static_cast<std::uint64_t>(pair_count(200)));
}

TEST(LocalSearch, ZeroPassBudgetDoesNothing) {
  Instance inst = berlin52();
  Tour tour = Tour::identity(inst.n());
  Tour before = tour;
  TwoOptSequential engine;
  LocalSearchOptions opts;
  opts.max_passes = 0;
  LocalSearchStats stats = local_search(engine, inst, tour, opts);
  EXPECT_EQ(stats.passes, 0);
  EXPECT_TRUE(tour == before);
}

TEST(LocalSearch, TimeLimitStopsTheDescent) {
  Instance inst = generate_uniform("u1500", 1500, 7);
  Pcg32 rng(8);
  Tour tour = Tour::random(1500, rng);
  TwoOptSequential engine;
  LocalSearchOptions opts;
  opts.time_limit_seconds = 0.05;
  LocalSearchStats stats = local_search(engine, inst, tour, opts);
  EXPECT_FALSE(stats.reached_local_minimum);
  EXPECT_LT(stats.wall_seconds, 2.0);  // generous slack for slow machines
}

TEST(LocalSearch, MovesNeverIncreaseLength) {
  Instance inst = generate_clustered("c120", 120, 4, 3);
  Pcg32 rng(11);
  Tour tour = Tour::random(120, rng);
  TwoOptSequential engine;
  std::int64_t last = tour.length(inst);
  // Step one pass at a time and observe lengths move by move.
  LocalSearchOptions one_pass;
  one_pass.max_passes = 1;
  for (int step = 0; step < 10000; ++step) {
    LocalSearchStats stats = local_search(engine, inst, tour, one_pass);
    ASSERT_EQ(stats.passes, 1);
    std::int64_t now = tour.length(inst);
    EXPECT_EQ(last - now, stats.improvement);
    if (stats.reached_local_minimum) {
      EXPECT_EQ(now, last);
      return;
    }
    EXPECT_EQ(stats.moves_applied, 1);
    EXPECT_LT(now, last);
    last = now;
  }
  FAIL() << "descent did not reach a local minimum";
}

}  // namespace
}  // namespace tspopt
