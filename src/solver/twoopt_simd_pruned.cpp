#include "solver/twoopt_simd_pruned.hpp"

#include "common/timer.hpp"
#include "solver/pair_index.hpp"

namespace tspopt {

TwoOptSimdPruned::TwoOptSimdPruned(const NeighborLists& neighbors,
                                   const simd::Kernels* kernels)
    : neighbors_(neighbors),
      kernels_(kernels != nullptr ? *kernels : simd::active()),
      sweep_(neighbors) {
  // Pad every candidate row to a multiple of the kernel width by
  // replicating the row's first candidate. A duplicate evaluates to the
  // duplicate delta of an earlier candidate, so the fold's pair-index
  // tie-break rejects it and move selection is bit-identical — while the
  // kernel runs pure full-width lane-groups with no scalar tail.
  const std::int32_t w = kernels_.width;
  k_pad_ = ((neighbors_.k() + w - 1) / w) * w;
  label_rows(neighbors_, k_pad_, ids_pad_, cand_dist_pad_);
}

SearchResult TwoOptSimdPruned::search(const Instance& instance,
                                      const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  TSPOPT_CHECK(neighbors_.n() == tour.n());
  sweep_.begin_pass(instance, tour);
  const std::int32_t k = neighbors_.k();
  const float* xs = sweep_.coords().xs();
  const float* ys = sweep_.coords().ys();
  std::span<const std::int32_t> route = sweep_.route();
  const std::int32_t* positions = sweep_.positions().data();
  out_delta_.resize(static_cast<std::size_t>(k_pad_));
  out_q_.resize(static_cast<std::size_t>(k_pad_));

  // Phase 1: one batched kernel call computes every active row's minimum
  // candidate delta.
  std::span<const std::int32_t> active = sweep_.active_rows();
  row_mins_.resize(active.size());
  simd::CandSweepArgs sweep_args{sweep_.records().data(),
                                 ids_pad_.data(),
                                 cand_dist_pad_.data(),
                                 k_pad_,
                                 active.data(),
                                 route.data(),
                                 static_cast<std::int32_t>(active.size()),
                                 row_mins_.data()};
  kernels_.cand_sweep(sweep_args);

  // Phase 2: the row minimum decides everything the scalar fold would —
  // whether any candidate improves (don't-look bit) and whether any can
  // beat or tie the incumbent best. Only rows that can re-evaluate their
  // deltas (cand_row) and fold through the canonical reduction, whose
  // `d > best.delta` early-out mirrors consider_move's first test.
  BestMove best;
  std::uint64_t checks = 0;
  for (std::size_t r = 0; r < active.size(); ++r) {
    std::int32_t p = active[r];
    std::int32_t label = route[static_cast<std::size_t>(p)];
    std::int32_t row_min = row_mins_[r];
    if (row_min <= best.delta) {
      simd::CandRowArgs args{xs,
                             ys,
                             sweep_.succ_len().data(),
                             positions,
                             ids_pad_.data() +
                                 static_cast<std::size_t>(label) *
                                     static_cast<std::size_t>(k_pad_),
                             cand_dist_pad_.data() +
                                 static_cast<std::size_t>(label) *
                                     static_cast<std::size_t>(k_pad_),
                             k_pad_,
                             p,
                             out_delta_.data(),
                             out_q_.data(),
                             &row_min_};
      kernels_.cand_row(args);
      for (std::int32_t c = 0; c < k_pad_; ++c) {
        std::int32_t d = out_delta_[static_cast<std::size_t>(c)];
        if (d > best.delta) continue;
        std::int32_t q = out_q_[static_cast<std::size_t>(c)];
        std::int32_t i = p < q ? p : q;
        std::int32_t j = p < q ? q : p;
        consider_move(best, d, pair_index(i, j), i, j);
      }
    }
    if (row_min >= 0) sweep_.set_dont_look(label);
    checks += static_cast<std::uint64_t>(k);
  }

  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    pairs_scalar_tail_ =
        &obs::Registry::global().counter("twoopt.pairs_scalar_tail");
    rows_skipped_ =
        &obs::Registry::global().counter("pruned.rows_skipped_dlb");
  }
  // Padded rows are all-vector by construction: k_pad_ lane-group pairs
  // per row, zero scalar-tail pairs (the counter stays registered for the
  // full-sweep SIMD engines, which do run tails).
  auto active_count = static_cast<std::uint64_t>(active.size());
  pairs_vectorized_->add(active_count *
                         static_cast<std::uint64_t>(kernels_.vector_pairs(
                             k_pad_)));
  pairs_scalar_tail_->add(active_count *
                          static_cast<std::uint64_t>(kernels_.tail_pairs(
                              k_pad_)));
  rows_skipped_->add(sweep_.rows_skipped());

  SearchResult result;
  result.best = best;
  result.checks = checks;
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
