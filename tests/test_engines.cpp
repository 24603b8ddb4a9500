// Engine equivalence: all full-pass engines (sequential, sequential with
// route indirection, LUT, parallel CPU, GPU-small, GPU-tiled at several
// tile sizes) must return the *identical* best move on identical input —
// the property the paper relies on when it swaps the CPU 2-opt for the GPU
// kernel inside ILS.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_lut.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/catalog.hpp"
#include "tsp/distance_matrix.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

struct EngineCase {
  std::string label;
  Instance instance;
  Tour tour;
};

std::vector<EngineCase> make_cases() {
  std::vector<EngineCase> cases;
  Pcg32 rng(7);

  {
    Instance inst = berlin52();
    cases.push_back({"berlin52-identity", inst, Tour::identity(inst.n())});
    cases.push_back({"berlin52-random", inst, Tour::random(inst.n(), rng)});
  }
  for (std::int32_t n : {3, 4, 5, 8, 13, 64, 257, 1000}) {
    Instance inst = generate_uniform("u" + std::to_string(n), n, 1234 + n);
    cases.push_back({"uniform" + std::to_string(n) + "-random", inst,
                     Tour::random(n, rng)});
  }
  {
    Instance inst = generate_clustered("c500", 500, 8, 99);
    cases.push_back({"clustered500", inst, Tour::random(500, rng)});
  }
  {
    Instance inst = generate_grid("g400", 400, 5);
    cases.push_back({"grid400", inst, Tour::random(400, rng)});
  }
  {
    // Larger than one tile: exercises the tiled engine's multi-launch path
    // on the default (3064) tile as well.
    Instance inst = generate_uniform("u7000", 7000, 4321);
    cases.push_back({"uniform7000", inst, Tour::random(7000, rng)});
  }
  return cases;
}

class EngineEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalence, AllEnginesAgreeOnBestMove) {
  static const std::vector<EngineCase> cases = make_cases();
  const EngineCase& c = cases[GetParam()];

  TwoOptSequential reference(true);
  SearchResult expected = reference.search(c.instance, c.tour);
  EXPECT_EQ(expected.checks,
            static_cast<std::uint64_t>(pair_count(c.instance.n())));

  std::vector<std::unique_ptr<TwoOptEngine>> engines;
  engines.push_back(std::make_unique<TwoOptSequential>(false));
  engines.push_back(std::make_unique<TwoOptSimd>());
  for (simd::Level level : simd::supported_levels()) {
    engines.push_back(std::make_unique<TwoOptSimd>(&simd::kernels(level)));
  }
  engines.push_back(
      std::make_unique<TwoOptSimd>(nullptr, &ThreadPool::shared()));

  simt::Device device(simt::gtx680_cuda());
  if (c.instance.n() <= TwoOptGpuSmall::max_cities(device)) {
    engines.push_back(std::make_unique<TwoOptGpuSmall>(device));
  }
  engines.push_back(std::make_unique<TwoOptGpuTiled>(device));
  engines.push_back(std::make_unique<TwoOptGpuTiled>(device, 64));
  engines.push_back(std::make_unique<TwoOptGpuTiled>(device, 17));

  std::unique_ptr<DistanceMatrix> lut;
  if (c.instance.n() <= 2000) {
    lut = std::make_unique<DistanceMatrix>(c.instance);
    engines.push_back(std::make_unique<TwoOptLut>(*lut));
  }

  for (auto& engine : engines) {
    SearchResult got = engine->search(c.instance, c.tour);
    EXPECT_EQ(got.best.delta, expected.best.delta)
        << engine->name() << " on " << c.label;
    EXPECT_EQ(got.best.index, expected.best.index)
        << engine->name() << " on " << c.label;
    EXPECT_EQ(got.best.i, expected.best.i) << engine->name();
    EXPECT_EQ(got.best.j, expected.best.j) << engine->name();
    EXPECT_EQ(got.checks, expected.checks) << engine->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, EngineEquivalence,
                         ::testing::Range<std::size_t>(0, 13));

TEST(Engines, BestMoveActuallyImprovesTheTourByDelta) {
  Instance inst = berlin52();
  Pcg32 rng(3);
  Tour tour = Tour::random(inst.n(), rng);
  TwoOptSequential engine;
  for (int step = 0; step < 50; ++step) {
    std::int64_t before = tour.length(inst);
    SearchResult r = engine.search(inst, tour);
    if (!r.best.improves()) break;
    tour.apply_two_opt(r.best.i, r.best.j);
    ASSERT_TRUE(tour.is_valid());
    std::int64_t after = tour.length(inst);
    ASSERT_EQ(after - before, r.best.delta);
  }
}

TEST(Engines, GridStrideCoversEveryPairExactlyOnce) {
  // The GPU engines count checks from inside the kernels; for any launch
  // geometry the grid-stride walk must cover each pair exactly once.
  Instance inst = generate_uniform("u300", 300, 11);
  Pcg32 rng(5);
  Tour tour = Tour::random(300, rng);
  for (std::uint32_t grid : {1u, 2u, 7u, 28u}) {
    for (std::uint32_t block : {1u, 3u, 64u, 1024u}) {
      simt::Device device(simt::gtx680_cuda());
      simt::LaunchConfig cfg{grid, block, 0};
      TwoOptGpuSmall engine(device, cfg);
      SearchResult r = engine.search(inst, tour);
      EXPECT_EQ(device.counters().checks.load(),
                static_cast<std::uint64_t>(pair_count(300)))
          << grid << "x" << block;
      EXPECT_EQ(r.checks, static_cast<std::uint64_t>(pair_count(300)));
    }
  }
}

TEST(Engines, TiledCountsEveryPairExactlyOnceAcrossTileSizes) {
  Instance inst = generate_uniform("u500", 500, 2);
  Pcg32 rng(6);
  Tour tour = Tour::random(500, rng);
  for (std::int32_t tile : {2, 3, 10, 100, 499, 500, 3064}) {
    simt::Device device(simt::gtx680_cuda());
    TwoOptGpuTiled engine(device, tile);
    engine.search(inst, tour);
    EXPECT_EQ(device.counters().checks.load(),
              static_cast<std::uint64_t>(pair_count(500)))
        << "tile=" << tile;
  }
}

TEST(Engines, GpuSmallRejectsOversizedInstances) {
  simt::Device device(simt::gtx680_cuda());
  std::int32_t cap = TwoOptGpuSmall::max_cities(device);
  // The paper's limit: 48 kB of float2 coordinates ~ 6144 cities.
  EXPECT_GT(cap, 6000);
  EXPECT_LE(cap, 6144);
  Instance inst = generate_uniform("big", cap + 1, 1);
  TwoOptGpuSmall engine(device);
  Tour tour = Tour::identity(cap + 1);
  EXPECT_THROW(engine.search(inst, tour), CheckError);
}

TEST(Engines, TiledMaxTileMatchesPaperBound) {
  simt::Device device(simt::gtx680_cuda());
  std::int32_t cap = TwoOptGpuTiled::max_tile(device);
  // Paper: 48 kB / (2 ranges * 2 floats * 4 B) = 3072, minus our +1
  // successor entries and the block reduction record.
  EXPECT_GT(cap, 3000);
  EXPECT_LE(cap, 3072);
}

}  // namespace
}  // namespace tspopt
