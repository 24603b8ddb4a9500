#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "solver/local_search.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd_pruned.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

TEST(Pruned, BestMoveIsNeverBetterThanFullSearch) {
  // Pruning searches a subset, so its best delta is >= the full best.
  Pcg32 rng(1);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Instance inst = generate_uniform("u200", 200, seed);
    NeighborLists nl(inst, 8);
    TwoOptPruned pruned(nl);
    TwoOptSequential full;
    Tour tour = Tour::random(200, rng);
    SearchResult p = pruned.search(inst, tour);
    SearchResult f = full.search(inst, tour);
    EXPECT_GE(p.best.delta, f.best.delta);
  }
}

TEST(Pruned, ReportedMoveMatchesRecomputedDelta) {
  Instance inst = generate_uniform("u150", 150, 2);
  NeighborLists nl(inst, 10);
  TwoOptPruned engine(nl);
  Pcg32 rng(3);
  Tour tour = Tour::random(150, rng);
  SearchResult r = engine.search(inst, tour);
  ASSERT_TRUE(r.best.improves());
  std::int64_t before = tour.length(inst);
  tour.apply_two_opt(r.best.i, r.best.j);
  EXPECT_EQ(tour.length(inst) - before, r.best.delta);
}

TEST(Pruned, DoesFarFewerChecks) {
  Instance inst = generate_uniform("u1000", 1000, 4);
  NeighborLists nl(inst, 10);
  TwoOptPruned pruned(nl);
  Pcg32 rng(5);
  Tour tour = Tour::random(1000, rng);
  SearchResult r = pruned.search(inst, tour);
  // n*k = 10,000 candidate checks vs n(n-1)/2 = 499,500 for the full pass.
  EXPECT_LE(r.checks, 10000u);
  EXPECT_LT(r.checks * 20, static_cast<std::uint64_t>(pair_count(1000)));
}

TEST(Pruned, DescendsToAPrunedLocalMinimum) {
  Instance inst = generate_clustered("c300", 300, 6, 6);
  NeighborLists nl(inst, 12);
  TwoOptPruned engine(nl);
  Pcg32 rng(7);
  Tour tour = Tour::random(300, rng);
  std::int64_t initial = tour.length(inst);
  LocalSearchStats stats = local_search(engine, inst, tour);
  EXPECT_TRUE(stats.reached_local_minimum);
  EXPECT_TRUE(tour.is_valid());
  EXPECT_LT(tour.length(inst), initial);
}

TEST(Pruned, QualityCloseToFullSearchOnBerlin52) {
  // The paper's §VII trade: pruning costs some quality. With k=10 on a
  // 52-city instance the descent should land within a few % of the full
  // 2-opt local minimum.
  Instance inst = berlin52();
  NeighborLists nl(inst, 10);
  Pcg32 rng(8);
  Tour pruned_tour = Tour::random(inst.n(), rng);
  Tour full_tour = pruned_tour;

  TwoOptPruned pruned(nl);
  TwoOptSequential full;
  local_search(pruned, inst, pruned_tour);
  local_search(full, inst, full_tour);

  EXPECT_LE(pruned_tour.length(inst), full_tour.length(inst) * 110 / 100);
}

TEST(Pruned, RejectsMismatchedNeighborLists) {
  Instance a = generate_uniform("a", 100, 1);
  Instance b = generate_uniform("b", 50, 2);
  NeighborLists nl(a, 5);
  TwoOptPruned engine(nl);
  Tour tour = Tour::identity(50);
  EXPECT_THROW(engine.search(b, tour), CheckError);
}

TEST(Pruned, FullNeighborListsEqualFullSearch) {
  // With k = n-1 the candidate set covers every pair, so the pruned engine
  // must agree with the reference exactly.
  Instance inst = generate_uniform("u60", 60, 9);
  NeighborLists nl(inst, 59);
  TwoOptPruned pruned(nl);
  TwoOptSequential full;
  Pcg32 rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    Tour tour = Tour::random(60, rng);
    SearchResult p = pruned.search(inst, tour);
    SearchResult f = full.search(inst, tour);
    ASSERT_EQ(p.best.delta, f.best.delta);
    ASSERT_EQ(p.best.index, f.best.index);
  }
}

TEST(Pruned, IncrementalPassRestagesOnlyTheReversedArc) {
  // The don't-look engine's staging follows the tour's lineage: after an
  // applied move a pass restages the reversed arc and its predecessor,
  // after a double bridge the rotated span [p1, p3) and its predecessor,
  // and only the first pass and other changes restage all n.
  Instance inst = generate_clustered("c5k", 5000, 16, 11);
  const std::int32_t n = inst.n();
  NeighborLists nl(inst, 10);
  TwoOptSimdPruned engine(nl);
  obs::Counter& restaged =
      obs::Registry::global().counter("pruned.positions_restaged");
  obs::Counter& rebuilds =
      obs::Registry::global().counter("pruned.full_rebuilds");
  Pcg32 rng(12);
  Tour tour = Tour::random(n, rng);
  using Counts = std::pair<std::uint64_t, std::uint64_t>;

  // Searches `tour`, returning (positions restaged, full rebuilds).
  auto pass = [&](SearchResult& r) {
    std::uint64_t s0 = restaged.value();
    std::uint64_t r0 = rebuilds.value();
    r = engine.search(inst, tour);
    return Counts{restaged.value() - s0, rebuilds.value() - r0};
  };
  // Descends to the pruned local minimum: the first pass must cost
  // `first`, every later pass only the move applied before it.
  auto descend = [&](const char* what, Counts first) {
    SearchResult r;
    EXPECT_EQ(pass(r), first) << what;
    std::int32_t passes = 1;
    for (; r.best.improves(); ++passes) {
      if (passes == 50000) {
        ADD_FAILURE() << what << ": no local minimum within 50000 passes";
        break;
      }
      const std::int32_t seg = r.best.j - r.best.i;
      tour.apply_two_opt(r.best.i, r.best.j);
      auto [staged, rebuilt] = pass(r);
      EXPECT_LE(staged, static_cast<std::uint64_t>(std::min(seg, n - seg) + 2))
          << what << " pass " << passes;
      EXPECT_EQ(rebuilt, 0u) << what << " pass " << passes;
    }
    return passes;
  };
  const Counts rebuild{static_cast<std::uint64_t>(n), 1};

  EXPECT_GT(descend("initial descent", rebuild), 1000);
  // An unchanged tour restages nothing and rebuilds nothing.
  SearchResult r;
  EXPECT_EQ(pass(r), (Counts{0, 0}));
  // A double bridge of the staged tour restages [p1, p3) and its
  // predecessor, then the descent is incremental again.
  tour.double_bridge(rng);
  const Tour::Kick kick = tour.last_kick();
  descend("after a double bridge",
          {static_cast<std::uint64_t>(kick.p3 - kick.p1 + 1), 0});
  // A double bridge of a tour the engine has not staged rebuilds.
  Tour staged = tour;
  tour = Tour(std::vector<std::int32_t>(staged.order().begin(),
                                        staged.order().end()));
  tour.double_bridge(rng);
  descend("after a double bridge of an unstaged tour", rebuild);
  // Or-opt is not stamped: it rebuilds once.
  tour.or_opt_move(10, 3, 400);
  descend("after an Or-opt move", rebuild);
}

}  // namespace
}  // namespace tspopt
