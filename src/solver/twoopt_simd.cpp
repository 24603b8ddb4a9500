#include "solver/twoopt_simd.hpp"

#include "common/timer.hpp"
#include "solver/ordering.hpp"
#include "solver/pair_index.hpp"

namespace tspopt {

SearchResult TwoOptSimd::search(const Instance& instance, const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  order_coordinates_soa(instance, tour, soa_);
  const std::int32_t n = tour.n();
  const float* xs = soa_.xs();
  const float* ys = soa_.ys();
  const std::int32_t* succ_len = soa_.succ_len();
  const TileGroup* tiles = soa_.tiles();

  BestMove best;
  std::uint64_t vectorized = 0;
  std::uint64_t scalar_tail = 0;
  std::uint64_t reach_skipped = 0;
  for (std::int32_t j = 1; j < n; ++j) {
    simd::RowArgs row{xs,        ys,        0,         j,
                      xs[j],     ys[j],     xs[j + 1], ys[j + 1],
                      succ_len,  tiles};
    simd::RowBest rb = kernels_.row(row);
    if (rb.found()) {
      consider_move(best, rb.delta, pair_index(rb.i, j), rb.i, j);
    }
    vectorized += static_cast<std::uint64_t>(kernels_.vector_pairs(j));
    scalar_tail += static_cast<std::uint64_t>(kernels_.tail_pairs(j));
    reach_skipped += static_cast<std::uint64_t>(rb.skipped);
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
  result.checks = static_cast<std::uint64_t>(pair_count(n));
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
