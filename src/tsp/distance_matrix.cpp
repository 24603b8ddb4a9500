#include "tsp/distance_matrix.hpp"

namespace tspopt {

DistanceMatrix::DistanceMatrix(const Instance& instance) : n_(instance.n()) {
  TSPOPT_CHECK_MSG(n_ <= kMaxCities,
                   "refusing to allocate a >1.6 GB LUT; use coordinates");
  lut_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  for (std::int32_t a = 0; a < n_; ++a) {
    auto row = static_cast<std::size_t>(a) * static_cast<std::size_t>(n_);
    lut_[row + static_cast<std::size_t>(a)] = 0;
    for (std::int32_t b = a + 1; b < n_; ++b) {
      std::int32_t d = instance.dist(a, b);
      lut_[row + static_cast<std::size_t>(b)] = d;
      lut_[static_cast<std::size_t>(b) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(a)] = d;
    }
  }
}

}  // namespace tspopt
