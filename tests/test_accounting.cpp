// Cross-cutting accounting invariants: the work counters that feed the
// performance model must agree across every layer (engine results, device
// counters, ILS traces, launch predictions) — if these drift, every
// modeled number in Tables/Figures drifts with them.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/batch/batch_twoopt_gpu.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_generic.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/generator.hpp"
#include "tsp/tsplib.hpp"

namespace tspopt {
namespace {

TEST(Accounting, IlsTraceWorkFieldsAreCumulativeAndConsistent) {
  Instance inst = generate_uniform("u150", 150, 1);
  Pcg32 rng(2);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device);
  IlsOptions opts;
  opts.max_iterations = 25;
  opts.time_limit_seconds = 60.0;
  IlsResult r = iterated_local_search(engine, inst, Tour::random(150, rng),
                                      opts);
  ASSERT_GE(r.trace.size(), 1u);
  const std::int64_t pairs = pair_count(150);
  std::uint64_t prev_checks = 0;
  std::int64_t prev_passes = 0;
  for (const IlsTracePoint& p : r.trace) {
    EXPECT_GE(p.checks, prev_checks);
    EXPECT_GE(p.passes, prev_passes);
    // Every pass evaluates the full triangle on this engine.
    EXPECT_EQ(p.checks,
              static_cast<std::uint64_t>(p.passes) *
                  static_cast<std::uint64_t>(pairs));
    prev_checks = p.checks;
    prev_passes = p.passes;
  }
  // Device counters saw exactly the total traced... plus any work after
  // the last improvement (non-improving rounds still run passes).
  EXPECT_GE(device.counters().checks.load(), r.trace.back().checks);
  EXPECT_EQ(device.counters().checks.load(), r.checks);
  EXPECT_EQ(device.counters().kernel_launches.load(),
            device.counters().h2d_transfers.load());
}

TEST(Accounting, TiledLaunchPredictionMatchesExecution) {
  Pcg32 rng(3);
  for (std::int32_t n : {100, 3064, 3065, 9000, 20000}) {
    Instance inst = generate_uniform("u", n, static_cast<std::uint64_t>(n));
    Tour tour = Tour::random(n, rng);
    simt::Device device(simt::gtx680_cuda());
    TwoOptGpuTiled engine(device);
    engine.search(inst, tour);
    EXPECT_EQ(device.counters().kernel_launches.load(),
              engine.launches_for(n))
        << "n=" << n;
    // One H2D coordinate upload per pass, one D2H result per launch.
    EXPECT_EQ(device.counters().h2d_transfers.load(), 1u);
    EXPECT_EQ(device.counters().d2h_transfers.load(),
              engine.launches_for(n));
    EXPECT_EQ(device.counters().h2d_bytes.load(),
              static_cast<std::uint64_t>(n) * sizeof(Point));
  }
}

TEST(Accounting, SmallKernelTransfersMatchAlgorithm2) {
  // Algorithm 2: one coordinate upload, one kernel, one result read-back.
  Instance inst = generate_uniform("u500", 500, 4);
  Pcg32 rng(5);
  Tour tour = Tour::random(500, rng);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device);
  engine.search(inst, tour);
  auto w = device.counters().snapshot();
  EXPECT_EQ(w.kernel_launches, 1u);
  EXPECT_EQ(w.h2d_transfers, 1u);
  EXPECT_EQ(w.h2d_bytes, 500u * sizeof(Point));
  EXPECT_EQ(w.d2h_transfers, 1u);
  EXPECT_EQ(w.checks, static_cast<std::uint64_t>(pair_count(500)));
  // Each of the 28 blocks staged the full coordinate array once.
  EXPECT_EQ(w.global_reads, 28u * 500u);
}

TEST(Accounting, IndirectSmallKernelShipsAndStagesTheRoute) {
  // Fig. 5 variant: the city-indexed coordinates and the route array both
  // go up, and every block stages both.
  Instance inst = generate_uniform("u500", 500, 4);
  Pcg32 rng(5);
  Tour tour = Tour::random(500, rng);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device, simt::LaunchConfig{}, false);
  engine.search(inst, tour);
  auto w = device.counters().snapshot();
  EXPECT_EQ(w.kernel_launches, 1u);
  EXPECT_EQ(w.h2d_transfers, 2u);
  EXPECT_EQ(w.h2d_bytes, 500u * (sizeof(Point) + sizeof(std::int32_t)));
  EXPECT_EQ(w.d2h_transfers, 1u);
  EXPECT_EQ(w.d2h_bytes, 28u * sizeof(BestMove));
  EXPECT_EQ(w.checks, static_cast<std::uint64_t>(pair_count(500)));
  EXPECT_EQ(w.global_reads, 28u * (500u + 500u));
}

TEST(Accounting, BatchKernelTransfersScaleWithActiveTours) {
  // One launch sweeps every active tour: one concatenated upload of B
  // route-ordered coordinate arrays, one block per tour staging its own
  // n, one record per tour read back. The inactive slot costs nothing.
  constexpr std::uint64_t n = 300;
  Instance inst = generate_uniform("u300", static_cast<std::int32_t>(n), 8);
  Pcg32 rng(9);
  std::vector<Tour> tours;
  for (int b = 0; b < 5; ++b) {
    tours.push_back(Tour::random(static_cast<std::int32_t>(n), rng));
  }
  TourBatch batch(inst, std::move(tours));
  batch.set_active(2, false);
  constexpr std::uint64_t kActive = 4;
  simt::Device device(simt::gtx680_cuda());
  BatchTwoOptGpu engine(device);
  BatchSearchResult result = engine.search(batch);
  auto w = device.counters().snapshot();
  const auto pairs = static_cast<std::uint64_t>(
      pair_count(static_cast<std::int32_t>(n)));
  EXPECT_EQ(w.kernel_launches, 1u);
  EXPECT_EQ(w.h2d_transfers, 1u);
  EXPECT_EQ(w.h2d_bytes, kActive * n * sizeof(Point));
  EXPECT_EQ(w.d2h_transfers, 1u);
  EXPECT_EQ(w.d2h_bytes, kActive * sizeof(BestMove));
  EXPECT_EQ(w.checks, kActive * pairs);
  EXPECT_EQ(result.checks, kActive * pairs);
  EXPECT_EQ(w.global_reads, kActive * n);
}

TEST(Accounting, SingleTourBatchGpuIsOneBlockOfTheSmallKernel) {
  // The factory's batch-gpu on one tour is the block kernel with one
  // block: one upload of the tour's n route-ordered coordinates, one
  // block staging them once, one record read back, and gpu-small's move.
  constexpr std::uint64_t n = 300;
  Instance inst = generate_uniform("u300", static_cast<std::int32_t>(n), 8);
  Pcg32 rng(10);
  Tour tour = Tour::random(static_cast<std::int32_t>(n), rng);

  EngineFactory batch_factory(&inst);
  std::unique_ptr<TwoOptEngine> engine = batch_factory.create("batch-gpu");
  SearchResult r = engine->search(inst, tour);
  EngineFactory small_factory(&inst);
  SearchResult small = small_factory.create("gpu-small")->search(inst, tour);
  EXPECT_EQ(r.best.delta, small.best.delta);
  EXPECT_EQ(r.best.index, small.best.index);
  EXPECT_EQ(r.best.i, small.best.i);
  EXPECT_EQ(r.best.j, small.best.j);

  auto w = batch_factory.device().counters().snapshot();
  const auto pairs = static_cast<std::uint64_t>(
      pair_count(static_cast<std::int32_t>(n)));
  EXPECT_EQ(w.kernel_launches, 1u);
  EXPECT_EQ(w.h2d_transfers, 1u);
  EXPECT_EQ(w.h2d_bytes, n * sizeof(Point));
  EXPECT_EQ(w.d2h_bytes, sizeof(BestMove));
  EXPECT_EQ(w.checks, pairs);
  EXPECT_EQ(r.checks, pairs);
  EXPECT_EQ(w.global_reads, n);
}

TEST(Accounting, GeoInstanceEndToEndThroughParserAndGenericSolver) {
  // A GEO instance written as TSPLIB text, parsed back, and solved — the
  // non-Euclidean path through the whole stack.
  std::ostringstream file;
  file << "NAME : geo16\nTYPE : TSP\nDIMENSION : 16\n"
       << "EDGE_WEIGHT_TYPE : GEO\nNODE_COORD_SECTION\n";
  Pcg32 rng(6);
  for (int i = 1; i <= 16; ++i) {
    file << i << ' ' << rng.next_float(-45.0f, 45.0f) << ' '
         << rng.next_float(-90.0f, 90.0f) << "\n";
  }
  file << "EOF\n";
  std::istringstream in(file.str());
  Instance inst = parse_tsplib(in);
  EXPECT_EQ(inst.metric(), Metric::kGeo);
  EXPECT_FALSE(inst.euclidean_like());

  Tour tour = Tour::random(16, rng);
  std::int64_t before = tour.length(inst);
  // The coordinate engines would silently compute EUC_2D distances on GEO
  // coordinates; the integration path must use the generic engine. Verify
  // the deltas it reports are truthful for this metric.
  TwoOptGeneric engine;
  for (int step = 0; step < 30; ++step) {
    SearchResult r = engine.search(inst, tour);
    if (!r.best.improves()) break;
    std::int64_t pre = tour.length(inst);
    tour.apply_two_opt(r.best.i, r.best.j);
    ASSERT_EQ(tour.length(inst) - pre, r.best.delta);
  }
  EXPECT_LE(tour.length(inst), before);
}

}  // namespace
}  // namespace tspopt
