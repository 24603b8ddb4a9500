// Batch-vs-sequential equivalence for the many-tour engines.
//
// The contract the serve-side micro-batcher rests on: running B tours
// through one batch pass is bit-identical — per slot, pass for pass,
// through whole descents — to B solo runs of the corresponding
// single-tour engine (batch-simd vs cpu-simd at every SIMD level,
// batch-gpu vs gpu-small). Also pins TourBatch's kept lengths and
// batch_local_search's stats-for-stats match with the solo descent
// driver.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/batch/batch_local_search.hpp"
#include "solver/batch/batch_twoopt_gpu.hpp"
#include "solver/engine_factory.hpp"
#include "solver/local_search.hpp"
#include "solver/simd.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

std::vector<std::int32_t> order_of(const Tour& tour) {
  return {tour.order().begin(), tour.order().end()};
}

std::vector<Tour> random_tours(const Instance& instance, std::int32_t count,
                               std::uint64_t seed) {
  std::vector<Tour> tours;
  Pcg32 rng(seed);
  for (std::int32_t b = 0; b < count; ++b) {
    tours.push_back(Tour::random(instance.n(), rng));
  }
  return tours;
}

void expect_moves_equal(const SearchResult& got, const SearchResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.best.delta, want.best.delta) << what;
  EXPECT_EQ(got.best.index, want.best.index) << what;
  EXPECT_EQ(got.best.i, want.best.i) << what;
  EXPECT_EQ(got.best.j, want.best.j) << what;
  EXPECT_EQ(got.checks, want.checks) << what;
}

TEST(TourBatch, ReplicatedCopiesOneTour) {
  Instance instance = generate_uniform("batch-repl", 60, 3);
  Pcg32 rng(5);
  Tour tour = Tour::random(instance.n(), rng);
  TourBatch batch = TourBatch::replicated(instance, tour, 4);
  ASSERT_EQ(batch.size(), 4);
  for (std::int32_t b = 0; b < batch.size(); ++b) {
    EXPECT_EQ(order_of(batch.tour(b)), order_of(tour));
    EXPECT_EQ(batch.length(b), tour.length(instance));
  }
}

// A slot's length is kept by deltas, never recomputed: after every applied
// move and every kick it must equal the tour's O(n) length, under every
// coordinate metric (the deltas read Instance::dist, not the engines'
// EUC_2D arithmetic).
TEST(TourBatch, LengthFollowsMovesAndKicksUnderEveryMetric) {
  for (Metric metric : {Metric::kEuc2D, Metric::kCeil2D, Metric::kAtt,
                        Metric::kGeo, Metric::kMan2D, Metric::kMax2D}) {
    const std::string what = to_string(metric);
    Pcg32 rng(51);
    std::vector<Point> points;
    for (int c = 0; c < 12; ++c) {
      // In range for GEO's DDD.MM latitude/longitude reading too.
      points.push_back({rng.next_float(-60.0f, 60.0f),
                        rng.next_float(-60.0f, 60.0f)});
    }
    Instance instance("len-" + what, metric, std::move(points));
    const std::int32_t n = instance.n();
    TourBatch batch(instance, random_tours(instance, 2, 53));
    auto expect_exact = [&](std::int32_t b, const std::string& step) {
      ASSERT_EQ(batch.length(b), batch.tour(b).length(instance))
          << what << " slot " << b << " " << step;
    };
    for (int step = 0; step < 300; ++step) {
      const std::int32_t b = step % 2;
      if (step % 5 == 4) {
        // Kick slot b from the other slot's tour: the copy, the cut points
        // (|B| = 1, |C| = 1 and p3 = n - 1 all come up at n = 12) and the
        // six-edge delta.
        const Tour from = batch.tour(1 - b);
        batch.kick(b, from, batch.length(1 - b), rng);
        expect_exact(b, "kick " + std::to_string(step));
        continue;
      }
      // Every (i, j), including no-op moves and wrapped outer arcs.
      const auto i = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint32_t>(n - 1)));
      const auto j = i + 1 + static_cast<std::int32_t>(rng.next_below(
                                 static_cast<std::uint32_t>(n - 1 - i)));
      batch.apply_two_opt(b, i, j);
      expect_exact(b, "move " + std::to_string(step));
    }
    // swap_tour exchanges tour and length together.
    Tour other = Tour::identity(n);
    std::int64_t other_length = other.length(instance);
    const std::int64_t slot_length = batch.length(0);
    batch.swap_tour(0, other, other_length);
    expect_exact(0, "swap");
    EXPECT_EQ(other_length, slot_length) << what;
    EXPECT_EQ(other.length(instance), slot_length) << what;
  }
}

// batch-simd vs cpu-simd, every supported SIMD level: B distinct tours
// descend in the batch while B solo engines descend the same tours; the
// selected move must match slot for slot at every pass.
TEST(BatchTwoOptSimd, DescentMatchesSoloPerSlot) {
  Instance instance = generate_uniform("batch-simd-eq", 150, 21);
  constexpr std::int32_t kCopies = 5;
  for (simd::Level level : simd::supported_levels()) {
    const simd::Kernels& kernels = simd::kernels(level);
    std::vector<Tour> tours = random_tours(instance, kCopies, 31);
    TourBatch batch(instance, tours);
    PerSlotBatchEngine batch_engine(std::make_unique<TwoOptSimd>(&kernels));
    TwoOptSimd solo(&kernels);

    std::vector<bool> converged(kCopies, false);
    for (std::int32_t pass = 0; pass < 2000; ++pass) {
      BatchSearchResult result = batch_engine.search(batch);
      bool any = false;
      for (std::int32_t b = 0; b < kCopies; ++b) {
        if (converged[static_cast<std::size_t>(b)]) continue;
        SearchResult want = solo.search(instance, tours[static_cast<std::size_t>(b)]);
        expect_moves_equal(result.per_tour[static_cast<std::size_t>(b)], want,
                           simd::to_string(level) + " slot " +
                               std::to_string(b) + " pass " +
                               std::to_string(pass));
        if (!want.best.improves()) {
          converged[static_cast<std::size_t>(b)] = true;
          batch.set_active(b, false);
          continue;
        }
        any = true;
        tours[static_cast<std::size_t>(b)].apply_two_opt(want.best.i, want.best.j);
        batch.apply_two_opt(b, want.best.i, want.best.j);
      }
      if (!any && batch.active_count() == 0) return;
    }
    FAIL() << "batch descent did not converge at level "
           << simd::to_string(level);
  }
}

// batch-gpu vs gpu-small: same per-slot equivalence through a descent.
TEST(BatchTwoOptGpu, DescentMatchesGpuSmallPerSlot) {
  Instance instance = generate_uniform("batch-gpu-eq", 120, 13);
  constexpr std::int32_t kCopies = 4;
  simt::Device batch_device(simt::gtx680_cuda());
  simt::Device solo_device(simt::gtx680_cuda());
  ASSERT_LE(instance.n(), TwoOptGpuSmall::max_cities(batch_device));

  std::vector<Tour> tours = random_tours(instance, kCopies, 17);
  TourBatch batch(instance, tours);
  BatchTwoOptGpu batch_engine(batch_device);
  TwoOptGpuSmall solo(solo_device);

  std::vector<bool> converged(kCopies, false);
  for (std::int32_t pass = 0; pass < 2000; ++pass) {
    BatchSearchResult result = batch_engine.search(batch);
    bool any = false;
    for (std::int32_t b = 0; b < kCopies; ++b) {
      if (converged[static_cast<std::size_t>(b)]) continue;
      SearchResult want = solo.search(instance, tours[static_cast<std::size_t>(b)]);
      expect_moves_equal(result.per_tour[static_cast<std::size_t>(b)], want,
                         "gpu slot " + std::to_string(b) + " pass " +
                             std::to_string(pass));
      if (!want.best.improves()) {
        converged[static_cast<std::size_t>(b)] = true;
        batch.set_active(b, false);
        continue;
      }
      any = true;
      tours[static_cast<std::size_t>(b)].apply_two_opt(want.best.i, want.best.j);
      batch.apply_two_opt(b, want.best.i, want.best.j);
    }
    if (!any && batch.active_count() == 0) return;
  }
  FAIL() << "batch gpu descent did not converge";
}

// Inactive slots are skipped: their per_tour result stays default and the
// pass's total checks cover only active tours.
TEST(BatchTwoOptSimd, InactiveSlotsAreSkipped) {
  Instance instance = generate_uniform("batch-inactive", 80, 9);
  std::vector<Tour> tours = random_tours(instance, 3, 23);
  TourBatch batch(instance, tours);
  batch.set_active(1, false);

  EngineFactory factory;
  std::unique_ptr<BatchTwoOptEngine> engine = factory.create_batch("batch-simd");
  BatchSearchResult result = engine->search(batch);
  EXPECT_EQ(result.per_tour[1].checks, 0u);
  EXPECT_FALSE(result.per_tour[1].best.improves());
  EXPECT_GT(result.per_tour[0].checks, 0u);
  EXPECT_GT(result.per_tour[2].checks, 0u);
  EXPECT_EQ(result.checks, result.per_tour[0].checks + result.per_tour[2].checks);
}

// batch_local_search: per-slot stats match the solo descent driver's for
// the same tour, and every slot ends inactive at its local minimum.
TEST(BatchLocalSearch, MatchesSoloDriverPerSlot) {
  Instance instance = generate_uniform("batch-ls-eq", 130, 29);
  constexpr std::int32_t kCopies = 4;
  std::vector<Tour> tours = random_tours(instance, kCopies, 37);

  TourBatch batch(instance, tours);
  EngineFactory factory;
  std::unique_ptr<BatchTwoOptEngine> batch_engine =
      factory.create_batch("batch-simd");
  std::vector<LocalSearchStats> stats = batch_local_search(*batch_engine, batch);

  for (std::int32_t b = 0; b < kCopies; ++b) {
    TwoOptSimd solo;
    Tour tour = tours[static_cast<std::size_t>(b)];
    LocalSearchStats want = local_search(solo, instance, tour);
    const LocalSearchStats& got = stats[static_cast<std::size_t>(b)];
    EXPECT_EQ(got.passes, want.passes) << "slot " << b;
    EXPECT_EQ(got.moves_applied, want.moves_applied) << "slot " << b;
    EXPECT_EQ(got.improvement, want.improvement) << "slot " << b;
    EXPECT_TRUE(got.reached_local_minimum) << "slot " << b;
    EXPECT_EQ(order_of(batch.tour(b)), order_of(tour)) << "slot " << b;
    EXPECT_FALSE(batch.active(b)) << "slot " << b;
  }
}

// A zero-pass budget runs no pass: every slot keeps its tour and length,
// and its stats report 0 passes.
TEST(BatchLocalSearch, ZeroPassBudgetLeavesEverySlotUntouched) {
  Instance instance = generate_uniform("batch-ls-zero", 90, 47);
  std::vector<Tour> tours = random_tours(instance, 3, 53);
  TourBatch batch(instance, tours);
  EngineFactory factory;
  std::unique_ptr<BatchTwoOptEngine> engine = factory.create_batch("batch-simd");
  LocalSearchOptions options;
  options.max_passes = 0;
  std::vector<LocalSearchStats> stats =
      batch_local_search(*engine, batch, options);
  ASSERT_EQ(stats.size(), tours.size());
  for (std::int32_t b = 0; b < batch.size(); ++b) {
    const LocalSearchStats& st = stats[static_cast<std::size_t>(b)];
    EXPECT_EQ(st.passes, 0) << "slot " << b;
    EXPECT_EQ(st.moves_applied, 0) << "slot " << b;
    EXPECT_EQ(st.checks, 0u) << "slot " << b;
    EXPECT_EQ(order_of(batch.tour(b)),
              order_of(tours[static_cast<std::size_t>(b)]))
        << "slot " << b;
    EXPECT_EQ(batch.length(b),
              tours[static_cast<std::size_t>(b)].length(instance))
        << "slot " << b;
  }
}

// batch-gpu stages coordinates; a coordinate-free (EXPLICIT matrix)
// instance is refused before anything is staged, not read out of bounds.
TEST(BatchTwoOptGpu, RejectsCoordinateFreeInstances) {
  std::vector<std::int32_t> m(25);
  for (std::int32_t a = 0; a < 5; ++a) {
    for (std::int32_t b = 0; b < 5; ++b) {
      m[static_cast<std::size_t>(a * 5 + b)] = std::abs(a - b);
    }
  }
  Instance instance("line5", m, 5);
  TourBatch batch(instance, {Tour({0, 2, 4, 1, 3}), Tour::identity(5)});
  simt::Device device(simt::gtx680_cuda());
  BatchTwoOptGpu engine(device);
  EXPECT_THROW(engine.search(batch), CheckError);
  EXPECT_EQ(device.counters().kernel_launches.load(), 0u);
  EXPECT_EQ(device.counters().h2d_bytes.load(), 0u);
}

// The factory's batch-* names behave as single-tour engines through the
// adapter, selecting the same move as their solo counterparts.
TEST(EngineFactory, BatchEnginesAdaptToSingleTour) {
  Instance instance = generate_uniform("batch-factory", 90, 41);
  Pcg32 rng(43);
  Tour tour = Tour::random(instance.n(), rng);

  EngineFactory factory(&instance);
  // The batch engines are the roster rows that are their own batch class.
  auto is_batch_engine = [](const std::string& name) {
    return EngineFactory::find(name)->batch_class == name;
  };
  EXPECT_TRUE(is_batch_engine("batch-simd"));
  EXPECT_TRUE(is_batch_engine("batch-gpu"));
  EXPECT_FALSE(is_batch_engine("cpu-simd"));

  {
    std::unique_ptr<TwoOptEngine> adapted = factory.create("batch-simd");
    TwoOptSimd solo;
    expect_moves_equal(adapted->search(instance, tour),
                       solo.search(instance, tour), "adapter batch-simd");
  }
  {
    std::unique_ptr<TwoOptEngine> adapted = factory.create("batch-gpu");
    simt::Device device(simt::gtx680_cuda());
    TwoOptGpuSmall solo(device);
    expect_moves_equal(adapted->search(instance, tour),
                       solo.search(instance, tour), "adapter batch-gpu");
  }
}

}  // namespace
}  // namespace tspopt
