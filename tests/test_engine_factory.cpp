#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "solver/engine_factory.hpp"
#include "solver/twoopt_gpu.hpp"
#include "tsp/distance_matrix.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

TEST(EngineFactory, EveryAdvertisedEngineAgreesOnTheBestMove) {
  Instance inst = generate_uniform("u220", 220, 1);
  Pcg32 rng(2);
  Tour tour = Tour::random(220, rng);

  EngineFactory factory(&inst);
  SearchResult reference;
  SearchResult pruned_reference;
  bool first = true;
  bool pruned_first = true;
  for (const std::string& name : EngineFactory::available()) {
    auto engine = factory.create(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
    SearchResult r = engine->search(inst, tour);
    if (name.find("pruned") != std::string::npos) {
      // Subset engines: weaker-or-equal vs the full sweep, but all pruned
      // backends share one candidate set and must agree with each other.
      EXPECT_GE(r.best.delta, reference.best.delta) << name;
      if (pruned_first) {
        pruned_reference = r;
        pruned_first = false;
      } else {
        EXPECT_EQ(r.best.delta, pruned_reference.best.delta) << name;
        EXPECT_EQ(r.best.index, pruned_reference.best.index) << name;
      }
      continue;
    }
    if (first) {
      reference = r;
      first = false;
    } else {
      EXPECT_EQ(r.best.delta, reference.best.delta) << name;
      EXPECT_EQ(r.best.index, reference.best.index) << name;
    }
  }
  EXPECT_FALSE(pruned_first);  // the roster advertises pruned engines
}

// The roster is the one engine table: every row's lease, k, batch class
// and city cap, in roster order.
TEST(EngineFactory, RosterRowsPinEachEnginesFacts) {
  using Lease = EngineFactory::Lease;
  simt::Device d(simt::gtx680_cuda());
  const std::int32_t block = TwoOptGpuSmall::max_cities(d);
  const std::int32_t indirect = TwoOptGpuSmall::max_cities(d, false);
  // The paper's ~6144-city shared-memory limit, and 2/3 of it.
  EXPECT_EQ(block, 6136);
  EXPECT_EQ(indirect, 4090);
  struct Facts {
    const char* name;
    Lease lease;
    bool uses_k;
    const char* batch_class;
    std::int32_t cap;  // 0 = none
  };
  const std::vector<Facts> expected = {
      {"cpu-sequential", Lease::kNone, false, "", 0},
      {"cpu-sequential-indirect", Lease::kNone, false, "", 0},
      {"cpu-generic", Lease::kNone, false, "", 0},
      {"cpu-simd", Lease::kNone, false, "batch-simd", 0},
      {"cpu-parallel", Lease::kNone, false, "", 0},
      {"cpu-lut", Lease::kNone, false, "", DistanceMatrix::kMaxCities},
      {"cpu-pruned", Lease::kNone, true, "", 0},
      {"cpu-simd-pruned", Lease::kNone, true, "", 0},
      {"gpu-small", Lease::kOne, false, "batch-gpu", block},
      {"gpu-small-indirect", Lease::kOne, false, "", indirect},
      {"gpu-tiled", Lease::kOne, false, "", 0},
      {"gpu-pruned", Lease::kOne, true, "", 0},
      {"gpu-multi", Lease::kMany, false, "", 0},
      {"batch-simd", Lease::kNone, false, "batch-simd", 0},
      {"batch-gpu", Lease::kOne, false, "batch-gpu", block},
  };
  EXPECT_EQ(DistanceMatrix::kMaxCities, 20000);
  const auto& roster = EngineFactory::roster();
  ASSERT_EQ(roster.size(), expected.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const EngineFactory::EngineInfo& row = roster[i];
    const Facts& want = expected[i];
    EXPECT_EQ(row.name, want.name);
    EXPECT_FALSE(row.description.empty()) << row.name;
    EXPECT_EQ(row.lease, want.lease) << row.name;
    EXPECT_EQ(row.uses_k, want.uses_k) << row.name;
    EXPECT_EQ(row.batch_class, want.batch_class) << row.name;
    EXPECT_EQ(row.city_cap == nullptr ? 0 : row.city_cap(d), want.cap)
        << row.name;
    EXPECT_EQ(EngineFactory::find(row.name), &row);
  }
  EXPECT_EQ(EngineFactory::find("warp-drive"), nullptr);
}

TEST(EngineFactory, UnknownNameThrows) {
  EngineFactory factory;
  EXPECT_THROW(factory.create("warp-drive"), CheckError);
}

TEST(EngineFactory, InstanceBoundEnginesNeedAnInstance) {
  EngineFactory factory;  // no instance
  EXPECT_THROW(factory.create("cpu-lut"), CheckError);
  EXPECT_THROW(factory.create("cpu-pruned"), CheckError);
  EXPECT_THROW(factory.create("cpu-simd-pruned"), CheckError);
  EXPECT_THROW(factory.create("gpu-pruned"), CheckError);
  EXPECT_NO_THROW(factory.create("cpu-sequential"));
  EXPECT_NO_THROW(factory.create("gpu-tiled"));
}

TEST(EngineFactory, GpuEnginesShareTheFactoryDevice) {
  Instance inst = generate_uniform("u100", 100, 3);
  Pcg32 rng(4);
  Tour tour = Tour::random(100, rng);
  EngineFactory factory(&inst);
  auto engine = factory.create("gpu-small");
  engine->search(inst, tour);
  EXPECT_GT(factory.device().counters().kernel_launches.load(), 0u);
}

TEST(EngineFactory, IndirectGpuVariantHasLowerCapacity) {
  EngineFactory factory;
  simt::Device& d = factory.device();
  std::int32_t ordered_cap = TwoOptGpuSmall::max_cities(d, true);
  std::int32_t indirect_cap = TwoOptGpuSmall::max_cities(d, false);
  // Paper Opt.-2 benefit #2: 8 B/city vs 12 B/city in shared memory.
  EXPECT_GT(ordered_cap, 6000);
  EXPECT_LT(indirect_cap, ordered_cap);
  EXPECT_NEAR(static_cast<double>(ordered_cap) / indirect_cap, 1.5, 0.01);
}

TEST(EngineFactory, IndirectGpuVariantStagesMoreAndShipsMore) {
  Instance inst = generate_uniform("u1000", 1000, 5);
  Pcg32 rng(6);
  Tour tour = Tour::random(1000, rng);

  simt::Device ordered_dev(simt::gtx680_cuda());
  simt::Device indirect_dev(simt::gtx680_cuda());
  TwoOptGpuSmall ordered(ordered_dev);
  TwoOptGpuSmall indirect(indirect_dev, simt::LaunchConfig{}, false);
  SearchResult a = ordered.search(inst, tour);
  SearchResult b = indirect.search(inst, tour);
  EXPECT_EQ(a.best.index, b.best.index);
  EXPECT_EQ(a.best.delta, b.best.delta);

  auto aw = ordered_dev.counters().snapshot();
  auto bw = indirect_dev.counters().snapshot();
  // Indirect ships route + coords and stages both per block.
  EXPECT_GT(bw.h2d_bytes, aw.h2d_bytes);
  EXPECT_GT(bw.global_reads, aw.global_reads);
  EXPECT_EQ(bw.h2d_bytes - aw.h2d_bytes, 1000u * sizeof(std::int32_t));
}

}  // namespace
}  // namespace tspopt
