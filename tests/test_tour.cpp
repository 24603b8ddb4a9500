#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"
#include "tsp/tour.hpp"

namespace tspopt {
namespace {

TEST(Tour, IdentityIsValid) {
  Tour t = Tour::identity(5);
  EXPECT_TRUE(t.is_valid());
  EXPECT_EQ(t.n(), 5);
  for (std::int32_t p = 0; p < 5; ++p) EXPECT_EQ(t.city_at(p), p);
}

TEST(Tour, RandomIsAValidPermutation) {
  Pcg32 rng(1);
  for (std::int32_t n : {3, 4, 10, 100, 1000}) {
    Tour t = Tour::random(n, rng);
    EXPECT_TRUE(t.is_valid());
  }
}

TEST(Tour, RandomIsDeterministicPerSeed) {
  Pcg32 a(5), b(5), c(6);
  EXPECT_EQ(Tour::random(50, a), Tour::random(50, b));
  Pcg32 a2(5);
  EXPECT_FALSE(Tour::random(50, a2) == Tour::random(50, c));
}

TEST(Tour, InvalidPermutationsDetected) {
  EXPECT_FALSE(Tour({0, 1, 1}).is_valid());   // duplicate
  EXPECT_FALSE(Tour({0, 1, 3}).is_valid());   // out of range
  EXPECT_FALSE(Tour({-1, 0, 1}).is_valid());  // negative
  EXPECT_TRUE(Tour({2, 0, 1}).is_valid());
}

TEST(Tour, RejectsTinyTours) {
  EXPECT_THROW(Tour({0, 1}), CheckError);
}

TEST(Tour, LengthOfUnitSquare) {
  Instance inst("sq", Metric::kEuc2D, {{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_EQ(Tour::identity(4).length(inst), 40);
  // Crossing diagonal order: 0,2,1,3 -> two diagonals + two sides.
  EXPECT_EQ(Tour({0, 2, 1, 3}).length(inst), 14 + 10 + 14 + 10);
}

TEST(Tour, ApplyTwoOptReversesInnerSegment) {
  Tour t = Tour::identity(8);
  t.apply_two_opt(1, 4);  // reverse positions 2..4
  std::vector<std::int32_t> expect = {0, 1, 4, 3, 2, 5, 6, 7};
  for (std::int32_t p = 0; p < 8; ++p) EXPECT_EQ(t.city_at(p), expect[p]);
  EXPECT_TRUE(t.is_valid());
}

TEST(Tour, ApplyTwoOptShorterSideYieldsEquivalentTour) {
  // When the outer arc is shorter the wrapped reversal is used; the
  // resulting cyclic tour must have identical length to the inner reversal.
  Instance inst = generate_uniform("u30", 30, 3);
  Pcg32 rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    Tour t = Tour::random(30, rng);
    auto i = static_cast<std::int32_t>(rng.next_below(29));
    auto j = static_cast<std::int32_t>(
        i + 1 + rng.next_below(static_cast<std::uint32_t>(29 - i)));
    Tour inner = t;
    // Force the inner reversal by applying to a copy through the public
    // API and comparing lengths with an explicit inner-only reference.
    std::vector<std::int32_t> ref(t.order().begin(), t.order().end());
    std::reverse(ref.begin() + i + 1, ref.begin() + j + 1);
    Tour reference(ref);
    inner.apply_two_opt(i, j);
    ASSERT_TRUE(inner.is_valid());
    ASSERT_EQ(inner.length(inst), reference.length(inst))
        << "i=" << i << " j=" << j;
  }
}

TEST(Tour, ApplyTwoOptDegeneratePairsKeepLength) {
  Instance inst = generate_uniform("u12", 12, 9);
  Pcg32 rng(10);
  Tour t = Tour::random(12, rng);
  std::int64_t len = t.length(inst);
  Tour adjacent = t;
  adjacent.apply_two_opt(3, 4);  // adjacent edges: no-op move
  EXPECT_EQ(adjacent.length(inst), len);
  Tour wrap = t;
  wrap.apply_two_opt(0, 11);  // shares city 0 through the closing edge
  EXPECT_EQ(wrap.length(inst), len);
}

TEST(Tour, ApplyTwoOptValidatesArguments) {
  Tour t = Tour::identity(5);
  EXPECT_THROW(t.apply_two_opt(3, 3), CheckError);
  EXPECT_THROW(t.apply_two_opt(-1, 2), CheckError);
  EXPECT_THROW(t.apply_two_opt(1, 5), CheckError);
  EXPECT_THROW(t.apply_two_opt(4, 2), CheckError);
}

TEST(Tour, DoubleBridgeKeepsPermutation) {
  Pcg32 rng(11);
  for (std::int32_t n : {8, 9, 20, 100}) {
    for (int trial = 0; trial < 50; ++trial) {
      Tour t = Tour::random(n, rng);
      Tour before = t;
      t.double_bridge(rng);
      ASSERT_TRUE(t.is_valid());
      ASSERT_EQ(t.n(), n);
      ASSERT_FALSE(t == before);  // 4 segments reconnect differently
    }
  }
}

TEST(Tour, DoubleBridgeRequiresEightCities) {
  Pcg32 rng(12);
  Tour t = Tour::identity(7);
  EXPECT_THROW(t.double_bridge(rng), CheckError);
}

TEST(Tour, DoubleBridgeChangesExactlyThreeEdges) {
  // A-C-B-D reconnection replaces the three segment-boundary edges (the
  // D->A closing edge is kept). Three changed edges cannot be undone by a
  // single 2-opt move (which changes two) — the escape property ILS needs.
  Pcg32 rng(13);
  Tour t = Tour::identity(30);
  Tour before = t;
  t.double_bridge(rng);
  auto edges = [](const Tour& tour) {
    std::set<std::pair<std::int32_t, std::int32_t>> set;
    for (std::int32_t p = 0; p < tour.n(); ++p) {
      std::int32_t a = tour.city_at(p);
      std::int32_t b = tour.city_at((p + 1) % tour.n());
      set.insert({std::min(a, b), std::max(a, b)});
    }
    return set;
  };
  auto ea = edges(before), eb = edges(t);
  std::vector<std::pair<std::int32_t, std::int32_t>> removed;
  std::set_difference(ea.begin(), ea.end(), eb.begin(), eb.end(),
                      std::back_inserter(removed));
  EXPECT_EQ(removed.size(), 3u);
}

TEST(Tour, DoubleBridgeAtCutPointsRotatesOnlyTheMiddle) {
  // A = [0, 2), B = [2, 5), C = [5, 7), D = [7, 10) -> A C B D.
  Tour t = Tour::identity(10);
  t.double_bridge(Tour::Kick{2, 5, 7});
  const std::vector<std::int32_t> expect = {0, 1, 5, 6, 2, 3, 4, 7, 8, 9};
  EXPECT_EQ(std::vector<std::int32_t>(t.order().begin(), t.order().end()),
            expect);
  EXPECT_EQ(t.last_kick().p2, 5);
  // Single-city B and C, and D a single city at position n - 1.
  Tour u = Tour::identity(8);
  u.double_bridge(Tour::Kick{5, 6, 7});
  const std::vector<std::int32_t> swapped = {0, 1, 2, 3, 4, 6, 5, 7};
  EXPECT_EQ(std::vector<std::int32_t>(u.order().begin(), u.order().end()),
            swapped);
  EXPECT_THROW(u.double_bridge(Tour::Kick{0, 2, 4}), CheckError);
  EXPECT_THROW(u.double_bridge(Tour::Kick{2, 2, 4}), CheckError);
  EXPECT_THROW(u.double_bridge(Tour::Kick{2, 4, 8}), CheckError);
}

TEST(Tour, OrOptMoveRelocatesSegment) {
  Tour t = Tour::identity(8);
  t.or_opt_move(1, 2, 5);  // move cities {1,2} after position 5 (city 5)
  std::vector<std::int32_t> expect = {0, 3, 4, 5, 1, 2, 6, 7};
  for (std::int32_t p = 0; p < 8; ++p) EXPECT_EQ(t.city_at(p), expect[p]);
  EXPECT_TRUE(t.is_valid());
}

TEST(Tour, OrOptMoveBackward) {
  Tour t = Tour::identity(8);
  t.or_opt_move(5, 2, 1);  // move {5,6} after position 1
  std::vector<std::int32_t> expect = {0, 1, 5, 6, 2, 3, 4, 7};
  for (std::int32_t p = 0; p < 8; ++p) EXPECT_EQ(t.city_at(p), expect[p]);
}

TEST(Tour, OrOptMoveValidatesArguments) {
  Tour t = Tour::identity(8);
  EXPECT_THROW(t.or_opt_move(2, 3, 3), CheckError);   // target inside segment
  EXPECT_THROW(t.or_opt_move(6, 3, 1), CheckError);   // segment past the end
  EXPECT_THROW(t.or_opt_move(0, 8, 1), CheckError);   // whole tour
}

TEST(Tour, PositionsInvertTheOrder) {
  Pcg32 rng(14);
  Tour t = Tour::random(64, rng);
  std::vector<std::int32_t> pos = t.positions();
  for (std::int32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(pos[static_cast<std::size_t>(t.city_at(p))], p);
  }
}

TEST(Tour, Berlin52IdentityLengthIsStable) {
  // Regression anchor: identity-order tour over the genuine berlin52 data.
  Instance inst = berlin52();
  Tour t = Tour::identity(inst.n());
  std::int64_t len = t.length(inst);
  EXPECT_GT(len, kBerlin52Optimum);
  // Deterministic data + deterministic metric => exact value is stable.
  static constexpr std::int64_t kExpected = 22205;
  if (len != kExpected) {
    // Computed once from the embedded data; if this fires the coordinates
    // or the metric changed.
    ADD_FAILURE() << "berlin52 identity length drifted: " << len;
  }
}

TEST(Tour, LineageStampFollowsMutations) {
  Pcg32 rng(9);
  Tour a = Tour::random(20, rng);
  Tour b = a;  // copies share the stamp
  EXPECT_EQ(b.version(), a.version());
  EXPECT_EQ(a.parent_version(), 0u);

  const std::uint64_t before = a.version();
  a.apply_two_opt(3, 9);
  EXPECT_NE(a.version(), before);
  EXPECT_EQ(a.parent_version(), before);
  EXPECT_EQ(a.last_move(), (std::pair<std::int32_t, std::int32_t>{3, 9}));
  EXPECT_EQ(b.version(), before);  // the copy is untouched

  // A double bridge is stamped like a move: parent plus its cut points,
  // and the last move is forgotten.
  std::uint64_t seen = a.version();
  a.double_bridge(rng);
  EXPECT_NE(a.version(), seen);
  EXPECT_EQ(a.parent_version(), seen);
  EXPECT_EQ(a.last_move(), (std::pair<std::int32_t, std::int32_t>{-1, -1}));
  const Tour::Kick kick = a.last_kick();
  EXPECT_TRUE(0 < kick.p1 && kick.p1 < kick.p2 && kick.p2 < kick.p3 &&
              kick.p3 < a.n());
  // ... and a move after it forgets the kick.
  seen = a.version();
  a.apply_two_opt(1, 4);
  EXPECT_EQ(a.parent_version(), seen);
  EXPECT_EQ(a.last_kick().p1, -1);

  // Every other mutation or construction draws a fresh, parentless stamp.
  a.double_bridge(rng);
  seen = a.version();
  a.or_opt_move(2, 3, 10);
  EXPECT_NE(a.version(), seen);
  EXPECT_EQ(a.parent_version(), 0u);
  EXPECT_EQ(a.last_move(), (std::pair<std::int32_t, std::int32_t>{-1, -1}));
  EXPECT_EQ(a.last_kick().p1, -1);
  Tour c(std::vector<std::int32_t>(a.order().begin(), a.order().end()));
  EXPECT_NE(c.version(), a.version());
  EXPECT_EQ(c.parent_version(), 0u);
  EXPECT_EQ(Tour::random(20, rng).parent_version(), 0u);
}

TEST(Tour, TwoOptArcIsTheReversedSide) {
  // The arc apply_two_opt reverses is the only span of positions whose
  // cities change, including arcs that wrap past the last position.
  const std::int32_t n = 11;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) {
      Tour t = Tour::identity(n);
      t.apply_two_opt(i, j);
      Tour::Arc arc = Tour::two_opt_arc(n, i, j);
      EXPECT_EQ(arc.count, std::min(j - i, n - (j - i)));
      for (std::int32_t s = 0; s < arc.count; ++s) {
        std::int32_t p = (arc.first + s) % n;
        std::int32_t mirror = (arc.first + arc.count - 1 - s) % n;
        EXPECT_EQ(t.city_at(p), mirror) << i << "," << j;
      }
      for (std::int32_t s = arc.count; s < n; ++s) {
        std::int32_t p = (arc.first + s) % n;
        EXPECT_EQ(t.city_at(p), p) << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace tspopt
