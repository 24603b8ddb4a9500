// PopulationIls determinism and equivalence.
//
// Three properties the batched ILS mode guarantees:
//   1. Independence: with migrate_every == 0 a member with seed S is
//      bit-identical to the single-start ILS driver run with seed S under
//      iteration-bounded options (the micro-batcher's correctness rests
//      on this — a coalesced job answers exactly like a solo one).
//   2. Determinism: migration runs (fixed seeds) reproduce bit-for-bit,
//      and migration copies the best member's tour over the worst's.
//   3. Durability: a checkpointed run resumed mid-flight finishes
//      bit-identical to the run that was never interrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "solver/checkpoint.hpp"
#include "solver/engine_factory.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_results_equal(const IlsResult& got, const IlsResult& want,
                          const std::string& what) {
  EXPECT_EQ(got.best_length, want.best_length) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.improvements, want.improvements) << what;
  EXPECT_EQ(got.checks, want.checks) << what;
  EXPECT_EQ(std::vector<std::int32_t>(got.best.order().begin(),
                                      got.best.order().end()),
            std::vector<std::int32_t>(want.best.order().begin(),
                                      want.best.order().end()))
      << what;
  ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
  for (std::size_t t = 0; t < got.trace.size(); ++t) {
    EXPECT_EQ(got.trace[t].length, want.trace[t].length) << what << " @" << t;
    EXPECT_EQ(got.trace[t].iteration, want.trace[t].iteration)
        << what << " @" << t;
    EXPECT_EQ(got.trace[t].checks, want.trace[t].checks) << what << " @" << t;
  }
}

// Member seed S with migrate_every == 0 == single-start driver seed S.
TEST(PopulationIls, IndependentMemberMatchesSoloIls) {
  Instance instance = generate_uniform("pop-solo-eq", 100, 3);
  Pcg32 rng(7);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int64_t kIterations = 12;
  constexpr std::int32_t kMembers = 4;

  std::unique_ptr<BatchTwoOptEngine> batch_engine =
      EngineFactory().create_batch("batch-simd");
  std::vector<PopulationMemberOptions> members =
      population_members(kMembers, /*seed=*/11);
  for (PopulationMemberOptions& m : members) {
    m.max_iterations = kIterations;
  }
  PopulationIlsOptions popts;
  popts.time_limit_seconds = -1.0;
  popts.migrate_every = 0;
  PopulationIlsResult pop = population_ils(
      *batch_engine, instance, std::vector<Tour>(kMembers, initial), members,
      popts);
  ASSERT_EQ(pop.members.size(), static_cast<std::size_t>(kMembers));
  EXPECT_EQ(pop.migrations, 0);

  for (std::int32_t b = 0; b < kMembers; ++b) {
    TwoOptSimd solo;
    IlsOptions opts;
    opts.seed = members[static_cast<std::size_t>(b)].seed;
    opts.max_iterations = kIterations;
    opts.time_limit_seconds = -1.0;
    IlsResult want = iterated_local_search(solo, instance, initial, opts);
    expect_results_equal(pop.members[static_cast<std::size_t>(b)], want,
                         "member " + std::to_string(b));
  }
}

// A stop hook that fires once a member completed its k-th round ends the
// member exactly where it ends the solo driver with the same hook: same
// best, iterations, checks, and the stopped flag. Each member gets its own
// k, so members retire on different rounds while the rest keep going.
TEST(PopulationIls, StopHookMemberMatchesSoloIls) {
  Instance instance = generate_uniform("pop-stop-eq", 100, 29);
  Pcg32 rng(31);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int32_t kMembers = 3;
  auto stop_after = [](std::size_t b) {
    return static_cast<std::int64_t>(5 + 3 * b);
  };

  std::unique_ptr<BatchTwoOptEngine> batch_engine =
      EngineFactory().create_batch("batch-simd");
  std::vector<std::int64_t> done(kMembers, 0);
  std::vector<PopulationMemberOptions> members =
      population_members(kMembers, /*seed=*/41);
  for (std::size_t b = 0; b < members.size(); ++b) {
    members[b].on_progress = [&done, b](const IlsProgress& p) {
      done[b] = p.iteration;
    };
    members[b].should_stop = [&done, b, stop_after] {
      return done[b] >= stop_after(b);
    };
  }
  PopulationIlsOptions popts;
  popts.time_limit_seconds = -1.0;  // only the hooks end this run
  PopulationIlsResult pop = population_ils(
      *batch_engine, instance, std::vector<Tour>(kMembers, initial), members,
      popts);

  for (std::size_t b = 0; b < members.size(); ++b) {
    TwoOptSimd solo;
    std::int64_t solo_done = 0;
    IlsOptions opts;
    opts.seed = members[b].seed;
    opts.time_limit_seconds = -1.0;
    opts.on_progress = [&](const IlsProgress& p) { solo_done = p.iteration; };
    opts.should_stop = [&] { return solo_done >= stop_after(b); };
    IlsResult want = iterated_local_search(solo, instance, initial, opts);
    EXPECT_TRUE(want.stopped);
    EXPECT_EQ(want.iterations, stop_after(b));
    EXPECT_EQ(pop.members[b].stopped, want.stopped) << "member " << b;
    expect_results_equal(pop.members[b], want, "member " + std::to_string(b));
  }

  // The population-wide hook on a population of one stops the same way.
  std::int64_t global_done = 0;
  std::vector<PopulationMemberOptions> one = population_members(1, 41);
  one[0].on_progress = [&](const IlsProgress& p) { global_done = p.iteration; };
  PopulationIlsOptions global = popts;
  global.should_stop = [&] { return global_done >= stop_after(0); };
  std::unique_ptr<BatchTwoOptEngine> engine_one =
      EngineFactory().create_batch("batch-simd");
  PopulationIlsResult single =
      population_ils(*engine_one, instance, {initial}, one, global);
  EXPECT_TRUE(single.stopped);
  EXPECT_TRUE(single.members[0].stopped);
  expect_results_equal(single.members[0], pop.members[0], "global hook");
}

// Under a wall-clock budget a run follows the iteration-bounded trajectory
// and is cut short: everything up to its last round matches the solo run
// bounded to one round fewer. The last round is left out because the
// deadline may interrupt its descent.
void expect_solo_trajectory_cut_short(const IlsResult& got,
                                      const Instance& instance,
                                      const Tour& initial, std::uint64_t seed,
                                      const std::string& what) {
  ASSERT_GE(got.iterations, 2) << what;
  EXPECT_FALSE(got.stopped) << what;
  TwoOptSimd solo;
  IlsOptions opts;
  opts.seed = seed;
  opts.max_iterations = got.iterations - 1;
  opts.time_limit_seconds = -1.0;
  IlsResult want = iterated_local_search(solo, instance, initial, opts);

  std::vector<IlsTracePoint> head;
  for (const IlsTracePoint& p : got.trace) {
    if (p.iteration < got.iterations) head.push_back(p);
  }
  ASSERT_EQ(head.size(), want.trace.size()) << what;
  for (std::size_t t = 0; t < head.size(); ++t) {
    EXPECT_EQ(head[t].length, want.trace[t].length) << what << " @" << t;
    EXPECT_EQ(head[t].iteration, want.trace[t].iteration) << what << " @" << t;
    EXPECT_EQ(head[t].checks, want.trace[t].checks) << what << " @" << t;
    EXPECT_EQ(head[t].passes, want.trace[t].passes) << what << " @" << t;
  }
  EXPECT_GE(got.checks, want.checks) << what;
  EXPECT_LE(got.best_length, want.best_length) << what;
}

// Wall seconds `run` takes. The time-budget test scales its budgets by
// this, measured on the run it budgets bounded to kBudgetIterations
// iterations, so every budgeted run completes at least that many
// iterations however slow the host (a thread-sanitizer build descends
// from a random tour many times slower than a release build).
constexpr std::int64_t kBudgetIterations = 2;
template <typename Run>
double measured_seconds(Run&& run) {
  WallTimer timer;
  run();
  return timer.seconds();
}

TEST(PopulationIls, TimeBudgetMemberMatchesSoloIls) {
  Instance instance = generate_uniform("pop-time-eq", 100, 37);
  Pcg32 rng(43);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::uint64_t kSeed = 61;

  TwoOptSimd solo;
  IlsOptions opts;
  opts.seed = kSeed;
  opts.max_iterations = kBudgetIterations;
  opts.time_limit_seconds = -1.0;
  const double solo_s = measured_seconds(
      [&] { iterated_local_search(solo, instance, initial, opts); });
  opts.max_iterations = -1;
  opts.time_limit_seconds = std::max(0.05, 2.0 * solo_s);
  expect_solo_trajectory_cut_short(
      iterated_local_search(solo, instance, initial, opts), instance, initial,
      kSeed, "solo");

  // The population-wide budget on a population of one.
  std::unique_ptr<BatchTwoOptEngine> engine_one =
      EngineFactory().create_batch("batch-simd");
  std::vector<PopulationMemberOptions> bounded_one =
      population_members(1, kSeed);
  bounded_one[0].max_iterations = kBudgetIterations;
  PopulationIlsOptions unbounded;
  unbounded.time_limit_seconds = -1.0;
  const double one_s = measured_seconds([&] {
    population_ils(*engine_one, instance, {initial}, bounded_one, unbounded);
  });
  PopulationIlsOptions global;
  global.time_limit_seconds = std::max(0.05, 2.0 * one_s);
  PopulationIlsResult single = population_ils(
      *engine_one, instance, {initial}, population_members(1, kSeed), global);
  expect_solo_trajectory_cut_short(single.members[0], instance, initial,
                                   kSeed, "global budget");

  // Per-member budgets: members retire at different rounds.
  constexpr std::int32_t kMembers = 3;
  std::unique_ptr<BatchTwoOptEngine> engine_many =
      EngineFactory().create_batch("batch-simd");
  std::vector<PopulationMemberOptions> members =
      population_members(kMembers, kSeed);
  for (PopulationMemberOptions& m : members) {
    m.max_iterations = kBudgetIterations;
  }
  const double many_s = measured_seconds([&] {
    population_ils(*engine_many, instance,
                   std::vector<Tour>(kMembers, initial), members, unbounded);
  });
  const double base = std::max(0.02, 2.0 * many_s);
  for (std::size_t b = 0; b < members.size(); ++b) {
    members[b].max_iterations = -1;
    members[b].time_limit_seconds =
        base * (1.0 + 0.75 * static_cast<double>(b));
  }
  PopulationIlsResult pop =
      population_ils(*engine_many, instance,
                     std::vector<Tour>(kMembers, initial), members, unbounded);
  for (std::size_t b = 0; b < members.size(); ++b) {
    expect_solo_trajectory_cut_short(pop.members[b], instance, initial,
                                     members[b].seed,
                                     "member " + std::to_string(b));
  }
}

// Fixed seeds reproduce bit-for-bit, migrations included.
TEST(PopulationIls, MigrationRunsAreDeterministic) {
  Instance instance = generate_uniform("pop-mig-det", 120, 5);
  Pcg32 rng(9);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int32_t kMembers = 6;

  auto run = [&] {
    std::unique_ptr<BatchTwoOptEngine> engine =
        EngineFactory().create_batch("batch-simd");
    std::vector<PopulationMemberOptions> members =
        population_members(kMembers, /*seed=*/101);
    for (PopulationMemberOptions& m : members) m.max_iterations = 10;
    PopulationIlsOptions popts;
    popts.time_limit_seconds = -1.0;
    popts.migrate_every = 3;
    return population_ils(*engine, instance,
                          std::vector<Tour>(kMembers, initial), members,
                          popts);
  };

  PopulationIlsResult a = run();
  PopulationIlsResult b = run();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.best_member, b.best_member);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    expect_results_equal(a.members[m], b.members[m],
                         "member " + std::to_string(m));
  }
  EXPECT_GT(a.migrations, 0);
}

// A checkpointed run killed mid-flight and resumed finishes bit-identical
// to the uninterrupted run.
TEST(PopulationIls, CheckpointResumeIsBitIdentical) {
  Instance instance = generate_uniform("pop-ckpt", 90, 13);
  Pcg32 rng(17);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int32_t kMembers = 3;
  constexpr std::int64_t kTotalRounds = 10;
  constexpr std::int64_t kCutRounds = 4;
  const std::string path = temp_path("tspopt_pop_ckpt_test.bin");

  auto make_members = [&](std::int64_t iterations) {
    std::vector<PopulationMemberOptions> members =
        population_members(kMembers, /*seed=*/201);
    for (PopulationMemberOptions& m : members) m.max_iterations = iterations;
    return members;
  };
  PopulationIlsOptions base;
  base.time_limit_seconds = -1.0;
  base.migrate_every = 0;

  // The reference: straight through, no interruption.
  std::unique_ptr<BatchTwoOptEngine> engine_a =
      EngineFactory().create_batch("batch-simd");
  PopulationIlsResult want = population_ils(
      *engine_a, instance, std::vector<Tour>(kMembers, initial),
      make_members(kTotalRounds), base);

  // The interrupted run: members retire at kCutRounds with a checkpoint
  // written every round, then a fresh engine resumes to the full budget.
  PopulationIlsOptions cut = base;
  cut.checkpoint_path = path;
  cut.checkpoint_every = 1;
  std::unique_ptr<BatchTwoOptEngine> engine_b =
      EngineFactory().create_batch("batch-simd");
  population_ils(*engine_b, instance, std::vector<Tour>(kMembers, initial),
                 make_members(kCutRounds), cut);

  PopulationCheckpoint ckpt = load_population_checkpoint(path);
  validate_population_checkpoint(ckpt, instance);
  EXPECT_EQ(ckpt.rounds, kCutRounds);

  std::unique_ptr<BatchTwoOptEngine> engine_c =
      EngineFactory().create_batch("batch-simd");
  PopulationIlsResult got = population_ils_resume(
      *engine_c, instance, ckpt, make_members(kTotalRounds), base);

  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.best_member, want.best_member);
  ASSERT_EQ(got.members.size(), want.members.size());
  for (std::size_t m = 0; m < got.members.size(); ++m) {
    expect_results_equal(got.members[m], want.members[m],
                         "member " + std::to_string(m));
  }
  std::remove(path.c_str());
}

// Migration intensifies: best-replaces-worst actually copies the tour.
TEST(PopulationIls, MigrationReplacesWorstIncumbent) {
  Instance instance = generate_uniform("pop-mig", 110, 19);
  Pcg32 rng(23);
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int32_t kMembers = 8;

  std::unique_ptr<BatchTwoOptEngine> engine =
      EngineFactory().create_batch("batch-simd");
  std::vector<PopulationMemberOptions> members =
      population_members(kMembers, /*seed=*/301);
  for (PopulationMemberOptions& m : members) m.max_iterations = 12;
  PopulationIlsOptions popts;
  popts.time_limit_seconds = -1.0;
  popts.migrate_every = 2;
  PopulationIlsResult pop = population_ils(
      *engine, instance, std::vector<Tour>(kMembers, initial), members, popts);

  EXPECT_GT(pop.migrations, 0);
  EXPECT_EQ(pop.rounds, 12);
  // The population best is never worse than any member's own best.
  for (const IlsResult& m : pop.members) {
    EXPECT_LE(pop.best().best_length, m.best_length);
  }
}

// Checks, before every pass, that each slot's kept length is its tour's
// O(n) length: the first pass after a kick sees the kicked tour, every
// later pass the move applied before it.
class LengthCheckingEngine : public BatchTwoOptEngine {
 public:
  std::string name() const override { return inner_->name(); }
  BatchSearchResult search(TourBatch& batch) override {
    for (std::int32_t b = 0; b < batch.size(); ++b) {
      EXPECT_EQ(batch.length(b), batch.tour(b).length(batch.instance()))
          << "slot " << b << " pass " << passes;
    }
    ++passes;
    return inner_->search(batch);
  }
  std::int64_t passes = 0;

 private:
  std::unique_ptr<BatchTwoOptEngine> inner_ =
      EngineFactory().create_batch("batch-simd");
};

void expect_lengths_exact(const PopulationIlsResult& pop,
                          const Instance& instance, const std::string& what) {
  for (const IlsResult& m : pop.members) {
    EXPECT_EQ(m.best_length, m.best.length(instance)) << what;
  }
}

// The kept lengths under migration and across a checkpoint resume, on a
// metric the engines' EUC_2D deltas do not measure.
TEST(PopulationIls, KeptLengthsStayExactWithMigrationAndResume) {
  std::vector<Point> points;
  Pcg32 rng(29);
  for (int c = 0; c < 90; ++c) {
    points.push_back({rng.next_float(0, 1000), rng.next_float(0, 1000)});
  }
  Instance instance("pop-att", Metric::kAtt, std::move(points));
  Tour initial = Tour::random(instance.n(), rng);
  constexpr std::int32_t kMembers = 3;
  const std::string path = temp_path("tspopt_pop_length_test.bin");

  auto make_members = [&](std::int64_t iterations) {
    std::vector<PopulationMemberOptions> members =
        population_members(kMembers, /*seed=*/401);
    for (PopulationMemberOptions& m : members) m.max_iterations = iterations;
    return members;
  };
  PopulationIlsOptions options;
  options.time_limit_seconds = -1.0;
  options.migrate_every = 2;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;

  LengthCheckingEngine first;
  PopulationIlsResult cut =
      population_ils(first, instance, std::vector<Tour>(kMembers, initial),
                     make_members(5), options);
  EXPECT_GT(first.passes, 0);
  EXPECT_GT(cut.migrations, 0);
  expect_lengths_exact(cut, instance, "cut");

  LengthCheckingEngine resumed;
  PopulationIlsResult rest = population_ils_resume(
      resumed, instance, load_population_checkpoint(path), make_members(12),
      options);
  EXPECT_GT(resumed.passes, 0);
  EXPECT_EQ(rest.rounds, 12);
  expect_lengths_exact(rest, instance, "resumed");
  std::remove(path.c_str());
}

// population_members mints consecutive seeds.
TEST(PopulationIls, PopulationMembersHelper) {
  std::vector<PopulationMemberOptions> members = population_members(4, 100);
  ASSERT_EQ(members.size(), 4u);
  for (std::size_t m = 0; m < members.size(); ++m) {
    EXPECT_EQ(members[m].seed, 100u + m);
    EXPECT_EQ(members[m].max_iterations, -1);
  }
}

}  // namespace
}  // namespace tspopt
