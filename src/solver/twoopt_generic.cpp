#include "solver/twoopt_generic.hpp"

#include <span>

#include "common/timer.hpp"
#include "solver/twoopt_lut.hpp"

namespace tspopt {

namespace {

// The exhaustive triangle sweep over any distance source with n() and
// dist(a, b): cpu-generic reads the Instance's metric, cpu-lut its
// precomputed DistanceMatrix. Both yield the same integer deltas.
template <typename Source>
SearchResult sweep(const TwoOptEngine& engine, const Source& source,
                   const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(engine, tour);
  TSPOPT_CHECK(source.n() == tour.n());
  const std::int32_t n = tour.n();
  std::span<const std::int32_t> route = tour.order();

  BestMove best;
  for (std::int32_t j = 1; j < n; ++j) {
    std::int32_t cj = route[static_cast<std::size_t>(j)];
    std::int32_t cj1 = route[static_cast<std::size_t>((j + 1) % n)];
    std::int32_t d_j = source.dist(cj, cj1);
    for (std::int32_t i = 0; i < j; ++i) {
      std::int32_t ci = route[static_cast<std::size_t>(i)];
      std::int32_t ci1 = route[static_cast<std::size_t>(i + 1)];
      std::int32_t delta = (source.dist(ci, cj) + source.dist(ci1, cj1)) -
                           (source.dist(ci, ci1) + d_j);
      consider_move(best, delta, pair_index(i, j), i, j);
    }
  }

  SearchResult result;
  result.best = best;
  result.checks = static_cast<std::uint64_t>(pair_count(n));
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace

SearchResult TwoOptGeneric::search(const Instance& instance,
                                   const Tour& tour) {
  return sweep(*this, instance, tour);
}

SearchResult TwoOptLut::search(const Instance& /*instance*/,
                               const Tour& tour) {
  return sweep(*this, lut_, tour);
}

}  // namespace tspopt
