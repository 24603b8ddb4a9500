#include "solver/twoopt_simd_pruned.hpp"

#include <algorithm>
#include <limits>

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
  rows_.resize(static_cast<std::size_t>(neighbors_.n()));
  for (std::size_t label = 0; label < rows_.size(); ++label) {
    auto first = ids_pad_.begin() +
                 static_cast<std::ptrdiff_t>(label) * k_pad_;
    auto [lo, hi] = std::minmax_element(first, first + k_pad_);
    rows_[label].lo = std::min(*lo, static_cast<std::int32_t>(label));
    rows_[label].hi = std::max(*hi, static_cast<std::int32_t>(label));
  }
}

SearchResult TwoOptSimdPruned::search(const Instance& instance,
                                      const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  TSPOPT_CHECK(neighbors_.n() == tour.n());
  sweep_.begin_pass(instance, tour);
  const std::uint32_t pass = ++pass_;
  out_delta_.resize(static_cast<std::size_t>(k_pad_));
  out_q_.resize(static_cast<std::size_t>(k_pad_));

  // Rows visited on the previous pass whose labels the staging did not
  // rewrite since fold their kept result; the rest are swept below. The
  // fold is a lexmin, so the order of the two groups does not matter.
  BestMove best;
  std::span<const std::int32_t> armed = sweep_.armed();
  std::uint64_t reused = 0;
  swept_.clear();
  for (std::int32_t label : armed) {
    RowState& row = rows_[static_cast<std::size_t>(label)];
    const bool stale = row.pass + 1 != pass || sweep_.rewrote(row.lo, row.hi);
    row.pass = pass;
    if (stale) {
      swept_.push_back(label);
    } else {
      ++reused;
      fold(label, row, best);
    }
  }

  // One batched kernel call computes every swept row's minimum candidate
  // delta.
  row_mins_.resize(swept_.size());
  simd::CandSweepArgs sweep_args{sweep_.records().data(),
                                 ids_pad_.data(),
                                 cand_dist_pad_.data(),
                                 k_pad_,
                                 swept_.data(),
                                 static_cast<std::int32_t>(swept_.size()),
                                 row_mins_.data()};
  kernels_.cand_sweep(sweep_args);
  for (std::size_t r = 0; r < swept_.size(); ++r) {
    RowState& row = rows_[static_cast<std::size_t>(swept_[r])];
    row.min = row_mins_[r];
    row.q = -1;
    fold(swept_[r], row, best);
  }

  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    pairs_scalar_tail_ =
        &obs::Registry::global().counter("twoopt.pairs_scalar_tail");
    rows_skipped_ =
        &obs::Registry::global().counter("pruned.rows_skipped_dlb");
    rows_reused_ = &obs::Registry::global().counter("pruned.rows_reused");
  }
  // Padded rows are all-vector by construction: k_pad_ lane-group pairs
  // per row, zero scalar-tail pairs (the counter stays registered for the
  // full-sweep SIMD engines, which do run tails). A reused row counts as
  // the pairs it stands for, like a pair the reach filter skips.
  auto active_count = static_cast<std::uint64_t>(armed.size());
  pairs_vectorized_->add(active_count *
                         static_cast<std::uint64_t>(kernels_.vector_pairs(
                             k_pad_)));
  pairs_scalar_tail_->add(active_count *
                          static_cast<std::uint64_t>(kernels_.tail_pairs(
                              k_pad_)));
  rows_skipped_->add(sweep_.rows_skipped());
  rows_reused_->add(reused);

  SearchResult result;
  result.best = best;
  result.checks = active_count * static_cast<std::uint64_t>(neighbors_.k());
  result.wall_seconds = timer.seconds();
  return result;
}

void TwoOptSimdPruned::fold(std::int32_t label, RowState& row,
                            BestMove& best) {
  // The row minimum decides everything the scalar fold would: whether any
  // candidate improves (don't-look bit) and whether any can beat or tie
  // the incumbent best, mirroring consider_move's first test.
  if (row.min <= best.delta) {
    const std::int32_t p =
        sweep_.positions()[static_cast<std::size_t>(label)];
    if (row.q < 0) {
      const auto base = static_cast<std::size_t>(label) *
                        static_cast<std::size_t>(k_pad_);
      simd::CandRowArgs args{sweep_.coords().xs(),
                             sweep_.coords().ys(),
                             sweep_.succ_len().data(),
                             sweep_.positions().data(),
                             ids_pad_.data() + base,
                             cand_dist_pad_.data() + base,
                             k_pad_,
                             p,
                             out_delta_.data(),
                             out_q_.data(),
                             &row_min_};
      kernels_.cand_row(args);
      // The row's lexmin (delta, pair index) candidate; its delta is
      // row.min.
      std::int32_t best_delta = std::numeric_limits<std::int32_t>::max();
      std::int64_t best_index = 0;
      for (std::int32_t c = 0; c < k_pad_; ++c) {
        std::int32_t d = out_delta_[static_cast<std::size_t>(c)];
        std::int32_t q = out_q_[static_cast<std::size_t>(c)];
        std::int64_t index = pair_index(std::min(p, q), std::max(p, q));
        if (d < best_delta || (d == best_delta && index < best_index)) {
          best_delta = d;
          best_index = index;
          row.q = q;
        }
      }
    }
    const std::int32_t i = std::min(p, row.q);
    const std::int32_t j = std::max(p, row.q);
    consider_move(best, row.min, pair_index(i, j), i, j);
  }
  if (row.min >= 0) sweep_.set_dont_look(label);
}

}  // namespace tspopt
