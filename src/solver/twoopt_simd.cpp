#include "solver/twoopt_simd.hpp"

#include "common/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/ordering.hpp"
#include "solver/pair_index.hpp"

namespace tspopt {

TwoOptSimd::Sweep TwoOptSimd::sweep(std::int64_t lo, std::int64_t hi) const {
  const float* xs = soa_.xs();
  const float* ys = soa_.ys();
  const std::int32_t* succ_len = soa_.succ_len();
  const TileGroup* tiles = soa_.tiles();
  Sweep out;
  // The chunk is a run of rows (possibly clipped at both ends); each
  // segment goes through the W-wide row kernel and the row winner merges
  // under the canonical (delta, pair index) order.
  for_each_row_segment(
      lo, hi,
      [&](std::int32_t i0, std::int32_t i1, std::int32_t j, std::int64_t k0) {
        simd::RowArgs row{xs,       ys,    i0,        i1,
                          xs[j],    ys[j], xs[j + 1], ys[j + 1],
                          succ_len, tiles};
        simd::RowBest rb = kernels_.row(row);
        if (rb.found()) {
          consider_move(out.best, rb.delta, k0 + (rb.i - i0), rb.i, j);
        }
        std::int64_t len = i1 - i0;
        out.vectorized += static_cast<std::uint64_t>(kernels_.vector_pairs(len));
        out.scalar_tail += static_cast<std::uint64_t>(kernels_.tail_pairs(len));
        out.reach_skipped += static_cast<std::uint64_t>(rb.skipped);
      });
  return out;
}

SearchResult TwoOptSimd::search(const Instance& instance, const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  order_coordinates_soa(instance, tour, soa_);
  const std::int64_t total = pair_count(tour.n());

  Sweep pass;
  if (pool_ == nullptr) {
    pass = sweep(0, total);
  } else {
    partial_.assign(pool_->size(), Sweep{});
    parallel_for_chunks(
        *pool_, 0, total,
        [&](std::int64_t lo, std::int64_t hi, std::size_t worker) {
          partial_[worker] = sweep(lo, hi);
        });
    for (const Sweep& part : partial_) {
      if (part.best.better_than(pass.best)) pass.best = part.best;
      pass.vectorized += part.vectorized;
      pass.scalar_tail += part.scalar_tail;
      pass.reach_skipped += part.reach_skipped;
    }
  }

  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    pairs_scalar_tail_ =
        &obs::Registry::global().counter("twoopt.pairs_scalar_tail");
    pairs_reach_skipped_ =
        &obs::Registry::global().counter("twoopt.pairs_reach_skipped");
  }
  pairs_vectorized_->add(pass.vectorized);
  pairs_scalar_tail_->add(pass.scalar_tail);
  pairs_reach_skipped_->add(pass.reach_skipped);

  SearchResult result;
  result.best = pass.best;
  result.checks = static_cast<std::uint64_t>(total);
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
