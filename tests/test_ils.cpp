#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_sequential.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

TEST(Ils, ImprovesOnTheInitialDescentResult) {
  Instance inst = berlin52();
  Pcg32 rng(1);
  Tour initial = Tour::random(inst.n(), rng);

  TwoOptSequential engine;
  Tour descent_only = initial;
  local_search(engine, inst, descent_only);

  IlsOptions opts;
  opts.max_iterations = 200;
  opts.time_limit_seconds = 10.0;
  opts.seed = 7;
  IlsResult result = iterated_local_search(engine, inst, initial, opts);

  EXPECT_TRUE(result.best.is_valid());
  EXPECT_LE(result.best_length, descent_only.length(inst));
  EXPECT_EQ(result.best_length, result.best.length(inst));
}

TEST(Ils, Berlin52ReachesWithinTwoPercentOfOptimum) {
  Instance inst = berlin52();
  Pcg32 rng(2);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 500;
  opts.time_limit_seconds = 20.0;
  opts.seed = 3;
  IlsResult r =
      iterated_local_search(engine, inst, Tour::random(inst.n(), rng), opts);
  EXPECT_GE(r.best_length, kBerlin52Optimum);
  EXPECT_LE(r.best_length, kBerlin52Optimum * 102 / 100);
}

TEST(Ils, TraceIsMonotonicallyImproving) {
  Instance inst = generate_uniform("u120", 120, 4);
  Pcg32 rng(5);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 100;
  opts.time_limit_seconds = 10.0;
  IlsResult r =
      iterated_local_search(engine, inst, Tour::random(120, rng), opts);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().iteration, 0);  // initial descent recorded
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LT(r.trace[i].length, r.trace[i - 1].length);
    EXPECT_GE(r.trace[i].seconds, r.trace[i - 1].seconds);
    EXPECT_GT(r.trace[i].iteration, r.trace[i - 1].iteration);
  }
  EXPECT_EQ(r.trace.back().length, r.best_length);
}

TEST(Ils, RespectsIterationBudget) {
  Instance inst = generate_uniform("u80", 80, 6);
  Pcg32 rng(7);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 12;
  opts.time_limit_seconds = -1.0;
  IlsResult r = iterated_local_search(engine, inst, Tour::random(80, rng), opts);
  EXPECT_EQ(r.iterations, 12);
}

TEST(Ils, RespectsTimeBudget) {
  Instance inst = generate_uniform("u200", 200, 8);
  Pcg32 rng(9);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.time_limit_seconds = 1.0;
  opts.max_iterations = -1;
  IlsResult r =
      iterated_local_search(engine, inst, Tour::random(200, rng), opts);
  // The loop stops at the first boundary after the budget expires; allow
  // generous slack for loaded machines but catch runaway loops.
  EXPECT_LT(r.wall_seconds, 10.0);
  EXPECT_GT(r.iterations, 0);  // small instance: many rounds fit in 1 s
}

TEST(Ils, IsDeterministicGivenSeed) {
  Instance inst = generate_uniform("u90", 90, 10);
  Pcg32 rng(11);
  Tour initial = Tour::random(90, rng);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 30;
  opts.time_limit_seconds = -1.0;
  opts.seed = 42;
  IlsResult a = iterated_local_search(engine, inst, initial, opts);
  IlsResult b = iterated_local_search(engine, inst, initial, opts);
  EXPECT_EQ(a.best_length, b.best_length);
  EXPECT_TRUE(a.best == b.best);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Ils, WorksWithTheGpuEngine) {
  // Algorithm 1 with the CUDA-style kernel as its 2-opt step.
  Instance inst = generate_uniform("u200", 200, 12);
  Pcg32 rng(13);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device);
  IlsOptions opts;
  opts.max_iterations = 20;
  opts.time_limit_seconds = 30.0;
  IlsResult r =
      iterated_local_search(engine, inst, Tour::random(200, rng), opts);
  EXPECT_TRUE(r.best.is_valid());
  EXPECT_GT(r.checks, 0u);
  EXPECT_GT(device.counters().kernel_launches.load(), 0u);
}

TEST(Ils, AcceptanceCriteriaBehaveAsSpecified) {
  Instance inst = generate_clustered("c150", 150, 4, 20);
  Pcg32 rng(21);
  Tour initial = Tour::random(150, rng);
  TwoOptSequential engine;

  auto run = [&](IlsAcceptance acceptance) {
    IlsOptions opts;
    opts.max_iterations = 60;
    opts.time_limit_seconds = -1.0;
    opts.seed = 9;
    opts.acceptance = acceptance;
    return iterated_local_search(engine, inst, initial, opts);
  };

  IlsResult better = run(IlsAcceptance::kBetter);
  IlsResult eps = run(IlsAcceptance::kEpsilonWorse);
  IlsResult walk = run(IlsAcceptance::kRandomWalk);

  // Whatever the criterion, the returned best is valid and its recorded
  // length is truthful.
  for (const IlsResult* r : {&better, &eps, &walk}) {
    EXPECT_TRUE(r->best.is_valid());
    EXPECT_EQ(r->best_length, r->best.length(inst));
    EXPECT_EQ(r->trace.back().length, r->best_length);
  }
  // All criteria explored the same number of rounds.
  EXPECT_EQ(better.iterations, 60);
  EXPECT_EQ(eps.iterations, 60);
  EXPECT_EQ(walk.iterations, 60);
}

TEST(Ils, RandomWalkAcceptanceStillTracksTheBestEverSeen) {
  // Even when every candidate is accepted as the new incumbent, `best`
  // must never regress.
  Instance inst = generate_uniform("u100", 100, 22);
  Pcg32 rng(23);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 40;
  opts.time_limit_seconds = -1.0;
  opts.acceptance = IlsAcceptance::kRandomWalk;
  IlsResult r =
      iterated_local_search(engine, inst, Tour::random(100, rng), opts);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LT(r.trace[i].length, r.trace[i - 1].length);
  }
}

TEST(Ils, StartingFromMultipleFragmentMatchesTableIISetup) {
  Instance inst = berlin52();
  Tour mf = multiple_fragment(inst);
  std::int64_t initial_len = mf.length(inst);
  TwoOptSequential engine;
  IlsOptions opts;
  opts.max_iterations = 0;  // just the descent: Table II's "Optimized" col
  opts.time_limit_seconds = -1.0;
  IlsResult r = iterated_local_search(engine, inst, mf, opts);
  EXPECT_LE(r.best_length, initial_len);
}

// Golden trajectories: fixed-seed runs whose every counted quantity is
// pinned exactly. Any change to the ILS loop, the descent driver or an
// engine that moves a single perturbation, move choice or pair count
// shows up here first.
struct GoldenPoint {
  std::int64_t length;
  std::int64_t iteration;
  std::uint64_t checks;
  std::int64_t passes;
};

struct Golden {
  std::int64_t best_length;
  std::int64_t iterations;
  std::int64_t improvements;
  std::uint64_t checks;
  std::vector<GoldenPoint> trace;
};

void expect_golden(const IlsResult& got, const Golden& want) {
  EXPECT_EQ(got.best_length, want.best_length);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.improvements, want.improvements);
  EXPECT_EQ(got.checks, want.checks);
  EXPECT_FALSE(got.stopped);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t t = 0; t < want.trace.size(); ++t) {
    EXPECT_EQ(got.trace[t].length, want.trace[t].length) << "@" << t;
    EXPECT_EQ(got.trace[t].iteration, want.trace[t].iteration) << "@" << t;
    EXPECT_EQ(got.trace[t].checks, want.trace[t].checks) << "@" << t;
    EXPECT_EQ(got.trace[t].passes, want.trace[t].passes) << "@" << t;
  }
}

IlsResult golden_uniform_run(IlsAcceptance acceptance) {
  Instance inst = generate_uniform("golden-u200", 200, 41);
  Pcg32 rng(17);
  Tour start = Tour::random(inst.n(), rng);
  EngineFactory factory(&inst);
  std::unique_ptr<TwoOptEngine> engine = factory.create("cpu-simd");
  IlsOptions opts;
  opts.seed = 5;
  opts.max_iterations = 120;
  opts.time_limit_seconds = -1.0;
  opts.acceptance = acceptance;
  opts.epsilon = 0.01;
  return iterated_local_search(*engine, inst, start, opts);
}

TEST(IlsGolden, CpuSimdUniform200) {
  expect_golden(golden_uniform_run(IlsAcceptance::kBetter),
                {108812, 120, 7, 17054300,
                 {{112953, 0, 4397900, 221},
                  {111505, 15, 6009800, 302},
                  {111390, 58, 10288300, 517},
                  {110863, 70, 11522100, 579},
                  {110302, 80, 12696200, 638},
                  {109452, 83, 13193700, 663},
                  {109028, 103, 15104100, 759},
                  {108812, 115, 16497100, 829}}});
}

TEST(IlsGolden, EpsilonWorseAcceptance) {
  expect_golden(golden_uniform_run(IlsAcceptance::kEpsilonWorse),
                {109727, 120, 8, 16517000,
                 {{112953, 0, 4397900, 221},
                  {112692, 15, 5989900, 301},
                  {112165, 22, 6785900, 341},
                  {112050, 31, 7621700, 383},
                  {111791, 32, 7780900, 391},
                  {111189, 58, 10268400, 516},
                  {111175, 95, 13969800, 702},
                  {109741, 103, 14885200, 748},
                  {109727, 113, 15860300, 797}}});
}

TEST(IlsGolden, CpuSimdPrunedClustered5k) {
  Instance inst = generate_clustered("golden-c5k", 5000, 25, 43);
  EngineFactory factory(&inst);
  std::unique_ptr<TwoOptEngine> engine = factory.create("cpu-simd-pruned");
  IlsOptions opts;
  opts.seed = 9;
  opts.max_iterations = 40;
  opts.time_limit_seconds = -1.0;
  expect_golden(
      iterated_local_search(*engine, inst, multiple_fragment(inst), opts),
      {372103, 40, 18, 860784,
       {{375790, 0, 804624, 296}, {375714, 1, 805344, 304},
        {375486, 3, 810240, 343}, {375483, 5, 812912, 364},
        {375395, 6, 813856, 374}, {375187, 7, 814736, 384},
        {374169, 10, 824176, 449}, {373742, 11, 824992, 459},
        {373637, 12, 827344, 482}, {373388, 16, 834176, 537},
        {373386, 20, 837488, 568}, {373145, 21, 838208, 577},
        {372735, 26, 848400, 643}, {372575, 29, 851952, 674},
        {372463, 30, 852688, 683}, {372462, 33, 854672, 703},
        {372216, 36, 857456, 729}, {372200, 37, 858064, 736},
        {372103, 39, 860336, 756}}});
}

}  // namespace
}  // namespace tspopt
