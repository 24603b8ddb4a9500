#include "solver/twoopt_parallel.hpp"

#include "common/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/ordering.hpp"
#include "solver/pair_index.hpp"

namespace tspopt {

SearchResult TwoOptCpuParallel::search(const Instance& instance,
                                       const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  order_coordinates_soa(instance, tour, soa_);
  const float* xs = soa_.xs();
  const float* ys = soa_.ys();
  const std::int32_t* succ_len = soa_.succ_len();
  const TileGroup* tiles = soa_.tiles();
  const std::int32_t n = tour.n();
  const std::int64_t total = pair_count(n);

  partial_.assign(pool_->size(), BestMove{});
  worker_vectorized_.assign(pool_->size(), 0);
  worker_scalar_tail_.assign(pool_->size(), 0);
  worker_reach_skipped_.assign(pool_->size(), 0);
  parallel_for_chunks(
      *pool_, 0, total,
      [&](std::int64_t lo, std::int64_t hi, std::size_t worker) {
        BestMove best;
        std::uint64_t vectorized = 0;
        std::uint64_t scalar_tail = 0;
        std::uint64_t reach_skipped = 0;
        // The chunk is a run of rows (possibly clipped at both ends); each
        // segment goes through the W-wide row kernel and the row winner
        // merges under the canonical (delta, pair index) order.
        for_each_row_segment(
            lo, hi,
            [&](std::int32_t i0, std::int32_t i1, std::int32_t j,
                std::int64_t k0) {
              simd::RowArgs row{xs,    ys,        i0,        i1,
                                xs[j], ys[j],     xs[j + 1], ys[j + 1],
                                succ_len, tiles};
              simd::RowBest rb = kernels_.row(row);
              if (rb.found()) {
                consider_move(best, rb.delta, k0 + (rb.i - i0), rb.i, j);
              }
              std::int64_t len = i1 - i0;
              vectorized +=
                  static_cast<std::uint64_t>(kernels_.vector_pairs(len));
              scalar_tail +=
                  static_cast<std::uint64_t>(kernels_.tail_pairs(len));
              reach_skipped += static_cast<std::uint64_t>(rb.skipped);
            });
        partial_[worker] = best;
        worker_vectorized_[worker] = vectorized;
        worker_scalar_tail_[worker] = scalar_tail;
        worker_reach_skipped_[worker] = reach_skipped;
      });

  BestMove best;
  std::uint64_t vectorized = 0;
  std::uint64_t scalar_tail = 0;
  std::uint64_t reach_skipped = 0;
  for (std::size_t w = 0; w < partial_.size(); ++w) {
    if (partial_[w].better_than(best)) best = partial_[w];
    vectorized += worker_vectorized_[w];
    scalar_tail += worker_scalar_tail_[w];
    reach_skipped += worker_reach_skipped_[w];
  }

  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    pairs_scalar_tail_ =
        &obs::Registry::global().counter("twoopt.pairs_scalar_tail");
    pairs_reach_skipped_ =
        &obs::Registry::global().counter("twoopt.pairs_reach_skipped");
  }
  pairs_vectorized_->add(vectorized);
  pairs_scalar_tail_->add(scalar_tail);
  pairs_reach_skipped_->add(reach_skipped);

  SearchResult result;
  result.best = best;
  result.checks = static_cast<std::uint64_t>(total);
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
