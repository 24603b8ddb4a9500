// Bit-identical move selection across the pruned backends.
//
// cpu-pruned, cpu-simd-pruned (scalar and AVX2 dispatch), and gpu-pruned
// all restrict 2-opt to the same candidate lists; the contract is that on
// the same (instance, tour, sweep state) they pick the same (delta,
// pair-index) best move — not merely moves of equal quality. Two state
// regimes exist: cpu-pruned always sweeps every row, while the SIMD and
// GPU engines carry don't-look bits across passes. So the suite checks
// both: full-sweep selection (fresh engines, all rows armed) must match
// cpu-pruned at every step of a descent trajectory, and the three
// don't-look backends must agree with each other pass for pass when
// their persistent sweep state evolves through a descent.
//
// The don't-look engines also keep their staging alive across passes and
// update it over the reversed arc of an applied move (PrunedSweep). The
// PrunedIncremental suite pins that update to a full rebuild: a twin
// engine handed a fresh copy of every tour (a new lineage stamp, so it
// restages all of [0, n) every pass) must select the same moves and reach
// the same active rows and don't-look bits, pass for pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "obs/registry.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ils.hpp"
#include "solver/local_search.hpp"
#include "solver/pair_index.hpp"
#include "solver/simd.hpp"
#include "solver/twoopt_gpu_pruned.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_simd_pruned.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {
namespace {

void expect_moves_equal(const SearchResult& got, const SearchResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.best.delta, want.best.delta) << what;
  EXPECT_EQ(got.best.index, want.best.index) << what;
  EXPECT_EQ(got.best.i, want.best.i) << what;
  EXPECT_EQ(got.best.j, want.best.j) << what;
}

// Drives a full descent with cpu-pruned (which sweeps every row each
// pass); at every step, freshly constructed SIMD and GPU engines — all
// don't-look bits armed, i.e. the same full-sweep state — must select the
// identical move.
void expect_full_sweep_equivalence(const Instance& inst, std::int32_t k,
                                   std::uint64_t tour_seed) {
  NeighborLists neighbors(inst, k);
  TwoOptPruned reference(neighbors);
  simt::Device device(simt::gtx680_cuda());
  Pcg32 rng(tour_seed);
  Tour tour = Tour::random(inst.n(), rng);

  for (std::int32_t pass = 0; pass < 5000; ++pass) {
    SearchResult want = reference.search(inst, tour);
    for (simd::Level level : simd::supported_levels()) {
      TwoOptSimdPruned engine(neighbors, &simd::kernels(level));
      expect_moves_equal(engine.search(inst, tour), want,
                         "cpu-simd-pruned/" + simd::to_string(level) +
                             " pass " + std::to_string(pass));
    }
    {
      TwoOptGpuPruned engine(device, neighbors);
      expect_moves_equal(engine.search(inst, tour), want,
                         "gpu-pruned pass " + std::to_string(pass));
    }
    if (!want.best.improves()) return;
    tour.apply_two_opt(want.best.i, want.best.j);
  }
  FAIL() << "descent did not converge within 5000 passes on " << inst.name();
}

// Runs the three don't-look backends to local convergence, each with its
// own persistent engine and tour copy, asserting identical selection at
// every pass — the sweep-state bookkeeping (adjacency diffing, don't-look
// arming) must evolve in lockstep too.
void expect_dlb_descent_equivalence(const Instance& inst, std::int32_t k,
                                    std::uint64_t tour_seed) {
  NeighborLists neighbors(inst, k);
  simt::Device device(simt::gtx680_cuda());
  std::vector<std::unique_ptr<TwoOptEngine>> engines;
  std::vector<std::string> labels;
  for (simd::Level level : simd::supported_levels()) {
    engines.push_back(
        std::make_unique<TwoOptSimdPruned>(neighbors, &simd::kernels(level)));
    labels.push_back("cpu-simd-pruned/" + simd::to_string(level));
  }
  engines.push_back(std::make_unique<TwoOptGpuPruned>(device, neighbors));
  labels.push_back("gpu-pruned");

  Pcg32 rng(tour_seed);
  Tour start = Tour::random(inst.n(), rng);
  std::vector<Tour> tours(engines.size(), start);

  for (std::int32_t pass = 0; pass < 5000; ++pass) {
    SearchResult want = engines[0]->search(inst, tours[0]);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      expect_moves_equal(engines[e]->search(inst, tours[e]), want,
                         labels[e] + " pass " + std::to_string(pass));
    }
    if (!want.best.improves()) return;
    for (Tour& t : tours) t.apply_two_opt(want.best.i, want.best.j);
  }
  FAIL() << "descent did not converge within 5000 passes on " << inst.name();
}

TEST(PrunedEquivalence, RandomUniformFullSweep) {
  Instance inst = generate_uniform("u220", 220, 11);
  expect_full_sweep_equivalence(inst, 16, 12);
}

TEST(PrunedEquivalence, RandomUniformDlbDescent) {
  Instance inst = generate_uniform("u220", 220, 11);
  expect_dlb_descent_equivalence(inst, 16, 12);
}

TEST(PrunedEquivalence, ClusteredFullSweep) {
  Instance inst = generate_clustered("c300", 300, 6, 13);
  expect_full_sweep_equivalence(inst, 10, 14);
}

TEST(PrunedEquivalence, ClusteredDlbDescent) {
  Instance inst = generate_clustered("c300", 300, 6, 13);
  expect_dlb_descent_equivalence(inst, 10, 14);
}

TEST(PrunedEquivalence, TieHeavyExactGridFullSweep) {
  // Zero jitter: every grid edge length repeats, so candidate deltas tie
  // constantly and selection is decided by the pair-index tie-break.
  Instance inst = generate_grid("grid196", 196, 15, 100.0f, 0.0f);
  expect_full_sweep_equivalence(inst, 12, 16);
}

TEST(PrunedEquivalence, TieHeavyExactGridDlbDescent) {
  Instance inst = generate_grid("grid196", 196, 15, 100.0f, 0.0f);
  expect_dlb_descent_equivalence(inst, 12, 16);
}

TEST(PrunedEquivalence, NarrowListsBelowVectorWidth) {
  // k < 8 forces the AVX2 path through a fully padded lane-group.
  Instance inst = generate_uniform("u150", 150, 17);
  expect_full_sweep_equivalence(inst, 4, 18);
  expect_dlb_descent_equivalence(inst, 4, 18);
}

TEST(PrunedEquivalence, FullListsClampToNMinusOne) {
  // k >= n-1 clamps: the candidate set is the whole city set.
  Instance inst = generate_uniform("u48", 48, 19);
  expect_full_sweep_equivalence(inst, 64, 20);
  expect_dlb_descent_equivalence(inst, 64, 20);
}

TEST(PrunedEquivalence, SingleSweepAtTenThousand) {
  // One full-size pass (no descent: keep runtime bounded) at the bench
  // smoke scale, the size the BENCH baselines record.
  Instance inst = generate_clustered("c10k", 10000, 32, 21);
  NeighborLists neighbors(inst, 16);
  TwoOptPruned reference(neighbors);
  simt::Device device(simt::gtx680_cuda());
  Pcg32 rng(22);
  Tour tour = Tour::random(inst.n(), rng);
  SearchResult want = reference.search(inst, tour);
  EXPECT_TRUE(want.best.improves());
  for (simd::Level level : simd::supported_levels()) {
    TwoOptSimdPruned engine(neighbors, &simd::kernels(level));
    expect_moves_equal(engine.search(inst, tour), want,
                       "cpu-simd-pruned/" + simd::to_string(level));
  }
  TwoOptGpuPruned engine(device, neighbors);
  expect_moves_equal(engine.search(inst, tour), want, "gpu-pruned");
}

// Hands the wrapped engine a fresh copy of every tour. The copy has a new
// lineage stamp, so the engine's sweep rebuilds its staging in full on
// every pass — the reference the incremental update must equal.
class RebuildEveryPass : public TwoOptEngine {
 public:
  explicit RebuildEveryPass(std::unique_ptr<TwoOptEngine> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  SearchResult search(const Instance& instance, const Tour& tour) override {
    return inner_->search(
        instance, Tour(std::vector<std::int32_t>(tour.order().begin(),
                                                 tour.order().end())));
  }
  TwoOptEngine& inner() { return *inner_; }

 private:
  std::unique_ptr<TwoOptEngine> inner_;
};

// Counts the passes run through it.
class CountPasses : public TwoOptEngine {
 public:
  explicit CountPasses(TwoOptEngine& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  SearchResult search(const Instance& instance, const Tour& tour) override {
    ++passes;
    return inner_.search(instance, tour);
  }
  std::int64_t passes = 0;

 private:
  TwoOptEngine& inner_;
};

const PrunedSweep& sweep_of(TwoOptEngine& engine) {
  if (auto* simd = dynamic_cast<TwoOptSimdPruned*>(&engine)) {
    return simd->sweep();
  }
  return dynamic_cast<TwoOptGpuPruned&>(engine).sweep();
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

// All n + 1 staged coordinates (the wrap entry too), xs then ys, as bit
// patterns: the incremental staging must copy, not recompute, them.
std::vector<std::uint32_t> coord_bits(const PrunedSweep& sweep) {
  const auto n = sweep.positions().size();
  std::vector<std::uint32_t> bits;
  for (const float* a : {sweep.coords().xs(), sweep.coords().ys()}) {
    for (std::size_t p = 0; p <= n; ++p) {
      bits.push_back(std::bit_cast<std::uint32_t>(a[p]));
    }
  }
  return bits;
}

// Every CandRecord field per city, floats as bit patterns.
std::vector<std::array<std::uint32_t, 4>> record_fields(
    const PrunedSweep& sweep) {
  std::vector<std::array<std::uint32_t, 4>> fields;
  for (const simd::CandRecord& r : sweep.records()) {
    fields.push_back({std::bit_cast<std::uint32_t>(r.x_succ),
                      std::bit_cast<std::uint32_t>(r.y_succ),
                      static_cast<std::uint32_t>(r.succ_len),
                      static_cast<std::uint32_t>(r.pos)});
  }
  return fields;
}

// The device copy of gpu-pruned's staging must equal the host staging
// after every pass (grow-only buffers once hid stale tail rows).
void expect_device_mirrors_host(TwoOptEngine& engine, const std::string& what) {
  auto* gpu = dynamic_cast<TwoOptGpuPruned*>(&engine);
  if (gpu == nullptr) return;
  const PrunedSweep& sweep = gpu->sweep();
  TwoOptGpuPruned::DeviceStaging dev = gpu->device_staging();
  const auto n = sweep.positions().size();
  EXPECT_EQ(to_vector(dev.xs),
            to_vector(std::span<const float>(sweep.coords().xs(), n + 1)))
      << what;
  EXPECT_EQ(to_vector(dev.ys),
            to_vector(std::span<const float>(sweep.coords().ys(), n + 1)))
      << what;
  EXPECT_EQ(to_vector(dev.succ_len), to_vector(sweep.succ_len())) << what;
  EXPECT_EQ(to_vector(dev.positions), to_vector(sweep.positions())) << what;
}

// One engine per backend (every SIMD level and gpu-pruned) that sees the
// stamped tours, each with a twin that rebuilds every pass.
class IncrementalHarness {
 public:
  IncrementalHarness(const Instance& inst, std::int32_t k)
      : inst_(inst), neighbors_(inst, k), device_(simt::gtx680_cuda()) {
    for (simd::Level level : simd::supported_levels()) {
      add("cpu-simd-pruned/" + simd::to_string(level), [&] {
        return std::make_unique<TwoOptSimdPruned>(neighbors_,
                                                  &simd::kernels(level));
      });
    }
    add("gpu-pruned", [&] {
      return std::make_unique<TwoOptGpuPruned>(device_, neighbors_);
    });
  }

  // Searches `tour` with every backend and its rebuilding twin; all must
  // agree on the move, and each pair on the sweep state, staged arrays
  // included. Returns the move.
  SearchResult search(const Tour& tour, const std::string& what) {
    SearchResult first;
    for (std::size_t e = 0; e < stamped_.size(); ++e) {
      const std::string label = labels_[e] + " " + what;
      SearchResult got = stamped_[e]->search(inst_, tour);
      SearchResult want = rebuilt_[e]->search(inst_, tour);
      expect_moves_equal(got, want, label);
      EXPECT_EQ(got.checks, want.checks) << label;
      const PrunedSweep& a = sweep_of(*stamped_[e]);
      const PrunedSweep& b = sweep_of(rebuilt_[e]->inner());
      EXPECT_EQ(to_vector(a.active_rows()), to_vector(b.active_rows()))
          << label;
      EXPECT_EQ(to_vector(a.dont_look()), to_vector(b.dont_look())) << label;
      EXPECT_EQ(to_vector(a.succ_len()), to_vector(b.succ_len())) << label;
      EXPECT_EQ(to_vector(a.positions()), to_vector(b.positions())) << label;
      EXPECT_EQ(coord_bits(a), coord_bits(b)) << label;
      EXPECT_EQ(record_fields(a), record_fields(b)) << label;
      expect_device_mirrors_host(*stamped_[e], label);
      expect_device_mirrors_host(rebuilt_[e]->inner(), label + " (rebuild)");
      if (e == 0) {
        first = got;
      } else {
        expect_moves_equal(got, first, label + " vs " + labels_[0]);
      }
    }
    return first;
  }

  // Descends `tour` to its pruned local minimum, checking every pass.
  void descend(Tour& tour, const std::string& what) {
    for (std::int32_t pass = 0; pass < 5000; ++pass) {
      SearchResult r = search(tour, what + " pass " + std::to_string(pass));
      if (!r.best.improves()) return;
      tour.apply_two_opt(r.best.i, r.best.j);
    }
    FAIL() << what << ": descent did not converge within 5000 passes";
  }

  // Every stamped engine's last pass restaged exactly `want`.
  void expect_dirty(Tour::Arc want, const std::string& what) {
    for (std::size_t e = 0; e < stamped_.size(); ++e) {
      const Tour::Arc got = sweep_of(*stamped_[e]).dirty();
      EXPECT_EQ(got.first, want.first) << labels_[e] << " " << what;
      EXPECT_EQ(got.count, want.count) << labels_[e] << " " << what;
    }
  }

  const Instance& instance() const { return inst_; }

 private:
  template <typename Make>
  void add(std::string label, Make make) {
    labels_.push_back(std::move(label));
    stamped_.push_back(make());
    rebuilt_.push_back(std::make_unique<RebuildEveryPass>(make()));
  }

  const Instance& inst_;
  NeighborLists neighbors_;
  simt::Device device_;
  std::vector<std::string> labels_;
  std::vector<std::unique_ptr<TwoOptEngine>> stamped_;
  std::vector<std::unique_ptr<RebuildEveryPass>> rebuilt_;
};

TEST(PrunedIncremental, DescentMatchesRebuildEveryPass) {
  Instance inst = generate_clustered("c300", 300, 6, 31);
  IncrementalHarness h(inst, 10);
  Pcg32 rng(32);
  Tour tour = Tour::random(inst.n(), rng);
  h.descend(tour, "descent");
  // Re-searching the unchanged local minimum re-arms every row.
  h.search(tour, "re-search");
  h.search(tour, "re-search again");
}

TEST(PrunedIncremental, WrappedArcsAndNoOpMoves) {
  Instance inst = generate_uniform("u200", 200, 33);
  IncrementalHarness h(inst, 8);
  Pcg32 rng(34);
  Tour tour = Tour::random(inst.n(), rng);
  const std::int32_t n = inst.n();
  h.search(tour, "start");
  struct Move {
    std::int32_t i, j;
    const char* why;
  };
  const Move moves[] = {
      {2, n - 3, "outer arc wraps past position 0"},
      {3, n - 1, "outer arc starts at position 0 (wrap entry)"},
      {0, n - 1, "no-op: whole-tour reversal"},
      {5, 6, "no-op: single-city arc"},
      {0, 1, "no-op at position 0"},
      {n - 2, n - 1, "no-op at the last position"},
      {0, n / 2, "inner arc from position 1"},
      {n / 2, n - 1, "arc ending at the last position"},
      {n / 2 - 1, n - 1, "outer arc [0, n/2 - 1]"},
      {10, 20, "short inner arc"},
  };
  for (const Move& m : moves) {
    tour.apply_two_opt(m.i, m.j);
    h.search(tour, m.why);
    // A descent pass between forced moves arms and quiets rows.
    SearchResult r = h.search(tour, std::string(m.why) + ", searched twice");
    if (r.best.improves()) {
      tour.apply_two_opt(r.best.i, r.best.j);
      h.search(tour, std::string(m.why) + ", then a descent move");
    }
  }
}

TEST(PrunedIncremental, DoubleBridgeThenRestoredCandidate) {
  // ILS-shaped lineage: descend, kick a copy, descend it, then restore the
  // incumbent (the rejected-candidate path) and search it again.
  Instance inst = generate_clustered("c260", 260, 5, 35);
  IncrementalHarness h(inst, 10);
  Pcg32 rng(36);
  Tour incumbent = Tour::random(inst.n(), rng);
  h.descend(incumbent, "initial");
  for (int round = 0; round < 4; ++round) {
    const std::string what = "round " + std::to_string(round);
    Tour candidate = incumbent;
    candidate.double_bridge(rng);
    h.descend(candidate, what + " candidate");
    if (round % 2 == 1) {
      incumbent = candidate;  // accepted
    }
    Tour restored = incumbent;
    h.search(restored, what + " restored");
    h.descend(restored, what + " restored descent");
  }
}

TEST(PrunedIncremental, KickedCandidatesMatchRebuildEveryPass) {
  // Kicks of the staged incumbent restage only [p1, p3) and arm the six
  // joint cities; kicks of any other tour rebuild. Both must equal the
  // rebuilding twins through accepted and rejected candidates, including
  // the edge cuts: |B| = 1, |C| = 1, p1 = 1 and p3 = n - 1.
  Instance inst = generate_clustered("c240", 240, 5, 45);
  IncrementalHarness h(inst, 10);
  const std::int32_t n = inst.n();
  Pcg32 rng(46);
  Tour incumbent = Tour::random(n, rng);
  h.descend(incumbent, "initial");
  std::uint64_t staged = incumbent.version();
  const Tour::Kick cuts[] = {
      {40, 41, 150},         // |B| = 1
      {40, 120, 121},        // |C| = 1
      {60, 130, n - 1},      // p3 = n - 1
      {n - 3, n - 2, n - 1}, // |B| = |C| = |D| = 1
      {1, 2, 3},             // |A| = |B| = |C| = 1
      {1, 100, n - 1},       // the widest span
      {}, {}, {},            // drawn from the generator
  };
  for (std::size_t round = 0; round < std::size(cuts); ++round) {
    const std::string what = "round " + std::to_string(round);
    Tour candidate = incumbent;
    if (cuts[round].p1 >= 0) {
      candidate.double_bridge(cuts[round]);
    } else {
      candidate.double_bridge(rng);
    }
    const Tour::Kick kick = candidate.last_kick();
    SearchResult r = h.search(candidate, what + " kick");
    h.expect_dirty(staged == incumbent.version()
                       ? Tour::Arc{kick.p1, kick.p3 - kick.p1}
                       : Tour::Arc{0, n},
                   what + " kick");
    if (r.best.improves()) {
      candidate.apply_two_opt(r.best.i, r.best.j);
      h.descend(candidate, what + " candidate");
    }
    staged = candidate.version();
    if (round % 3 == 0) {
      incumbent = candidate;  // accepted: the staging describes it
    } else if (round % 3 == 1) {
      // Rejected, and the incumbent is searched again before the next
      // kick, so that kick is incremental.
      h.search(incumbent, what + " restored");
      staged = incumbent.version();
    }
    // round % 3 == 2: rejected; the next kick rebuilds.
  }
}

TEST(PrunedIncremental, TwoEnginesAlternateOnTourCopies) {
  // Two harnesses (two engines per backend) step copies of one tour in
  // turn; each engine's staging follows its own copy's lineage.
  Instance inst = generate_uniform("u180", 180, 37);
  IncrementalHarness a(inst, 8);
  IncrementalHarness b(inst, 8);
  Pcg32 rng(38);
  Tour ta = Tour::random(inst.n(), rng);
  Tour tb = ta;
  for (std::int32_t pass = 0; pass < 5000; ++pass) {
    const std::string what = "pass " + std::to_string(pass);
    SearchResult ra = a.search(ta, "a " + what);
    SearchResult rb = b.search(tb, "b " + what);
    expect_moves_equal(rb, ra, "b vs a " + what);
    // Every few passes each engine searches the other's copy: a tour it
    // has not staged, so its next pass on its own copy rebuilds too.
    if (pass % 5 == 4) {
      a.search(tb, "a on b's copy " + what);
      b.search(ta, "b on a's copy " + what);
    }
    if (!ra.best.improves()) return;
    ta.apply_two_opt(ra.best.i, ra.best.j);
    tb.apply_two_opt(rb.best.i, rb.best.j);
  }
  FAIL() << "descent did not converge within 5000 passes";
}

TEST(PrunedIncremental, GpuUploadsOnlyTheRestagedArc) {
  // After an applied move gpu-pruned ships the reversed arc of the
  // route-indexed arrays (plus the wrap entry when the arc holds position
  // 0, and the predecessor's successor length), the label span of the
  // arc's cities in the label-indexed positions, and the pass's active
  // rows and their flags — exactly, byte for byte. After a kick the arc is
  // the rotated span [p1, p3).
  Instance inst = generate_clustered("c400", 400, 8, 39);
  NeighborLists neighbors(inst, 10);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuPruned engine(device, neighbors);
  Pcg32 rng(40);
  Tour tour = Tour::random(inst.n(), rng);
  const std::int32_t n = inst.n();

  auto h2d = [&] { return device.counters().h2d_bytes.load(); };
  std::uint64_t before = h2d();
  SearchResult r = engine.search(inst, tour);
  const std::uint64_t active_bytes = engine.sweep().active_rows().size() * 5;
  EXPECT_EQ(h2d() - before, 4u * (5u * static_cast<std::uint64_t>(n) + 2) +
                                active_bytes)
      << "the first pass ships the full staging";

  before = h2d();
  engine.search(inst, tour);
  EXPECT_EQ(h2d() - before,
            engine.sweep().active_rows().size() * 5u)
      << "an unchanged tour ships only the active rows";

  // Searches `tour` after it changed over `arc` (positions mod n) and
  // checks the upload against that arc's share. Sums the label and the id
  // span of each arc's cities over the descent.
  std::uint64_t label_spans = 0;
  std::uint64_t id_spans = 0;
  auto expect_arc_upload = [&](Tour::Arc arc, const std::string& what) {
    std::int32_t lo = n;
    std::int32_t hi = -1;
    std::int32_t id_lo = n;
    std::int32_t id_hi = -1;
    for (std::int32_t s = 0; s < arc.count; ++s) {
      std::int32_t city = tour.city_at((arc.first + s) % n);
      std::int32_t label = neighbors.labels()[static_cast<std::size_t>(city)];
      lo = std::min(lo, label);
      hi = std::max(hi, label);
      id_lo = std::min(id_lo, city);
      id_hi = std::max(id_hi, city);
    }
    label_spans += static_cast<std::uint64_t>(hi - lo + 1);
    id_spans += static_cast<std::uint64_t>(id_hi - id_lo + 1);
    const bool holds_zero = arc.first == 0 || arc.first + arc.count > n;
    const std::uint64_t coords = arc.count + (holds_zero ? 1 : 0);
    before = h2d();
    r = engine.search(inst, tour);
    const std::uint64_t want =
        4u * (2u * coords +                 // xs, ys
              (arc.count + 1u) +            // succ_len
              static_cast<std::uint64_t>(arc.count) +  // route
              static_cast<std::uint64_t>(hi - lo + 1)) +  // positions
        engine.sweep().active_rows().size() * 5u;  // active rows + flags
    EXPECT_EQ(h2d() - before, want) << what;
    expect_device_mirrors_host(engine, what);
  };
  auto descend = [&](const std::string& what) {
    for (std::int32_t pass = 0; pass < 5000 && r.best.improves(); ++pass) {
      tour.apply_two_opt(r.best.i, r.best.j);
      expect_arc_upload(Tour::two_opt_arc(n, r.best.i, r.best.j),
                        what + " pass " + std::to_string(pass));
    }
    EXPECT_FALSE(r.best.improves()) << what;
  };
  descend("descent");
  // Labels follow space, so the arcs of a descent span fewer labels than
  // ids.
  EXPECT_LT(label_spans, id_spans);

  // A kick of the staged tour ships the rotated span [p1, p3), counted
  // the same way, and the descent after it stays incremental.
  for (int kick = 0; kick < 3; ++kick) {
    const std::string what = "kick " + std::to_string(kick);
    tour.double_bridge(rng);
    const Tour::Kick cut = tour.last_kick();
    expect_arc_upload({cut.p1, cut.p3 - cut.p1}, what);
    descend(what);
  }
}

TEST(PrunedIncremental, IlsEndToEndMatchesRebuildEveryPass) {
  Instance inst = generate_clustered("c5k", 5000, 16, 41);
  NeighborLists neighbors(inst, 10);
  TwoOptSimdPruned engine(neighbors);
  CountPasses stamped(engine);
  RebuildEveryPass rebuilding(std::make_unique<TwoOptSimdPruned>(neighbors));
  CountPasses rebuilt(rebuilding);
  Tour start = multiple_fragment(inst);
  IlsOptions options;
  options.seed = 43;
  options.max_iterations = 12;
  options.time_limit_seconds = -1.0;
  IlsResult got = iterated_local_search(stamped, inst, start, options);
  IlsResult want = iterated_local_search(rebuilt, inst, start, options);
  EXPECT_EQ(stamped.passes, rebuilt.passes);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_length, want.best_length);
  EXPECT_EQ(got.checks, want.checks);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.improvements, want.improvements);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t t = 0; t < got.trace.size(); ++t) {
    EXPECT_EQ(got.trace[t].length, want.trace[t].length) << t;
    EXPECT_EQ(got.trace[t].iteration, want.trace[t].iteration) << t;
    EXPECT_EQ(got.trace[t].checks, want.trace[t].checks) << t;
    EXPECT_EQ(got.trace[t].passes, want.trace[t].passes) << t;
  }
}

// After every pass of the wrapped cpu-simd-pruned engine, recomputes each
// row the pass reused instead of sweeping: its kept minimum must equal a
// fresh cand_sweep of the row, and its kept best move (when the pass
// needed one) the lexmin (delta, pair index) candidate of a fresh
// cand_row.
class CheckReusedRows : public TwoOptEngine {
 public:
  CheckReusedRows(const NeighborLists& neighbors, simd::Level level)
      : kernels_(simd::kernels(level)), engine_(neighbors, &kernels_) {
    const std::int32_t w = kernels_.width;
    k_pad_ = ((neighbors.k() + w - 1) / w) * w;
    label_rows(neighbors, k_pad_, ids_, cand_dist_);
    swept_.resize(static_cast<std::size_t>(neighbors.n()));
  }
  std::string name() const override { return engine_.name(); }

  SearchResult search(const Instance& instance, const Tour& tour) override {
    SearchResult result = engine_.search(instance, tour);
    const PrunedSweep& sweep = engine_.sweep();
    std::fill(swept_.begin(), swept_.end(), std::uint8_t{0});
    for (std::int32_t label : engine_.swept()) {
      swept_[static_cast<std::size_t>(label)] = 1;
    }
    std::vector<std::int32_t> delta(static_cast<std::size_t>(k_pad_));
    std::vector<std::int32_t> partner(delta.size());
    for (std::int32_t label : sweep.armed()) {
      if (swept_[static_cast<std::size_t>(label)] != 0) continue;
      ++reused;
      const TwoOptSimdPruned::RowState& row =
          engine_.rows()[static_cast<std::size_t>(label)];
      const std::string what = std::string(kernels_.name) + " pass " +
                               std::to_string(passes) + " label " +
                               std::to_string(label);
      std::int32_t swept_min = 0;
      kernels_.cand_sweep({sweep.records().data(), ids_.data(),
                           cand_dist_.data(), k_pad_, &label, 1,
                           &swept_min});
      EXPECT_EQ(row.min, swept_min) << what;

      const std::int32_t p = sweep.positions()[static_cast<std::size_t>(label)];
      const auto base =
          static_cast<std::size_t>(label) * static_cast<std::size_t>(k_pad_);
      std::int32_t row_min = 0;
      kernels_.cand_row({sweep.coords().xs(), sweep.coords().ys(),
                         sweep.succ_len().data(), sweep.positions().data(),
                         ids_.data() + base, cand_dist_.data() + base, k_pad_,
                         p, delta.data(), partner.data(), &row_min});
      EXPECT_EQ(row.min, row_min) << what;
      if (row.q < 0) continue;
      BestMove want;
      for (std::size_t c = 0; c < delta.size(); ++c) {
        const std::int32_t i = std::min(p, partner[c]);
        const std::int32_t j = std::max(p, partner[c]);
        consider_move(want, delta[c], pair_index(i, j), i, j);
      }
      EXPECT_EQ(row.min, want.delta) << what;
      EXPECT_EQ(pair_index(std::min(p, row.q), std::max(p, row.q)),
                want.index)
          << what;
    }
    ++passes;
    return result;
  }

  std::int64_t passes = 0;
  std::uint64_t reused = 0;

 private:
  const simd::Kernels& kernels_;
  TwoOptSimdPruned engine_;
  std::int32_t k_pad_ = 0;
  std::vector<std::int32_t> ids_;
  std::vector<std::int32_t> cand_dist_;
  std::vector<std::uint8_t> swept_;
};

TEST(PrunedIncremental, ReusedRowsMatchAFreshSweep) {
  // At every SIMD level: the first passes of a descent from a random tour,
  // where an arc's predecessor is seldom near the arc in space (or in
  // labels); an ILS (kicks of the staged incumbent, and rejected
  // candidates whose next kick rebuilds); then a re-search of the same
  // tour, a wrapped arc and a descent from it.
  Instance inst = generate_clustered("c5k", 5000, 16, 41);
  NeighborLists neighbors(inst, 10);
  Tour start = multiple_fragment(inst);
  const std::int32_t n = inst.n();
  obs::Counter& rebuilds =
      obs::Registry::global().counter("pruned.full_rebuilds");
  for (simd::Level level : simd::supported_levels()) {
    const std::string what = simd::to_string(level);
    CheckReusedRows engine(neighbors, level);
    Pcg32 rng(44);
    Tour random = Tour::random(n, rng);
    SearchResult r = engine.search(inst, random);
    for (std::int32_t pass = 0; pass < 300 && r.best.improves(); ++pass) {
      random.apply_two_opt(r.best.i, r.best.j);
      r = engine.search(inst, random);
    }

    const std::uint64_t rebuilds0 = rebuilds.value();
    IlsOptions options;
    options.seed = 43;
    options.max_iterations = 12;
    options.time_limit_seconds = -1.0;
    IlsResult ils = iterated_local_search(engine, inst, start, options);
    EXPECT_GT(ils.iterations - ils.improvements, 0) << what;
    EXPECT_GT(rebuilds.value() - rebuilds0, 1u) << what;

    Tour tour = ils.best;
    engine.search(inst, tour);
    const std::uint64_t before = engine.reused;
    engine.search(inst, tour);
    EXPECT_GT(engine.reused, before) << what << ": re-search";

    const Tour::Arc wrapped = Tour::two_opt_arc(n, 2, n - 3);
    ASSERT_GT(wrapped.first + wrapped.count, n) << "the arc must wrap";
    tour.apply_two_opt(2, n - 3);
    r = engine.search(inst, tour);
    for (std::int32_t pass = 0; pass < 5000 && r.best.improves(); ++pass) {
      tour.apply_two_opt(r.best.i, r.best.j);
      r = engine.search(inst, tour);
    }
    EXPECT_FALSE(r.best.improves()) << what;
    EXPECT_GT(engine.reused, 0u) << what;
  }
}

TEST(PrunedIncremental, SolveLargeIlsCountsArePinned) {
  // perfbench's solve-large solve: the clustered 50k instance, a
  // multiple-fragment start and cpu-simd-pruned ILS with its fixed seed
  // until the best tour reaches the target length. Moves, don't-look
  // sets and restaging are exact, so the work is one fixed set of counts
  // however the pruned state is laid out in memory.
  Instance inst = generate_clustered("large50k", 50000, 125, 1);
  EngineFactory factory(&inst, EngineFactory::kDefaultNeighbors);
  Tour start = multiple_fragment(inst, factory.neighbor_lists());
  std::unique_ptr<TwoOptEngine> engine = factory.create("cpu-simd-pruned");
  CountPasses counted(*engine);
  obs::Counter& restaged =
      obs::Registry::global().counter("pruned.positions_restaged");
  obs::Counter& rebuilds =
      obs::Registry::global().counter("pruned.full_rebuilds");
  obs::Counter& reused =
      obs::Registry::global().counter("pruned.rows_reused");
  const std::uint64_t restaged0 = restaged.value();
  const std::uint64_t rebuilds0 = rebuilds.value();
  const std::uint64_t reused0 = reused.value();

  constexpr std::int64_t kTarget = 1654000;
  IlsOptions options;
  options.seed = 7932;
  options.max_iterations = 3000;
  options.time_limit_seconds = -1.0;
  std::int64_t best = start.length(inst);
  options.on_progress = [&](const IlsProgress& p) { best = p.best_length; };
  options.should_stop = [&] { return best <= kTarget; };
  IlsResult result = iterated_local_search(counted, inst, start, options);

  EXPECT_EQ(result.iterations, 40);
  EXPECT_EQ(result.best_length, 1653564);
  EXPECT_EQ(counted.passes, 2706);
  EXPECT_EQ(result.checks, 26865296u);
  EXPECT_EQ(restaged.value() - restaged0, 7368337u);
  EXPECT_EQ(rebuilds.value() - rebuilds0, 20u);
  EXPECT_EQ(reused.value() - reused0, 1340877u);
}

}  // namespace
}  // namespace tspopt
