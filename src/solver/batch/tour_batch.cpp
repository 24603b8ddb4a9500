#include "solver/batch/tour_batch.hpp"

#include <utility>

namespace tspopt {

TourBatch::TourBatch(const Instance& instance, std::vector<Tour> tours)
    : instance_(&instance), tours_(std::move(tours)) {
  TSPOPT_CHECK_MSG(!tours_.empty(), "TourBatch needs at least one tour");
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "batch engines require a coordinate-based instance");
  n_ = instance.n();
  for (const Tour& t : tours_) {
    TSPOPT_CHECK_MSG(t.n() == n_, "batch tour has " << t.n()
                                                    << " cities, instance has "
                                                    << n_);
  }
  stride_ = ((n_ + 1 + kPad - 1) / kPad) * kPad;
  lengths_.resize(tours_.size());
  active_.assign(tours_.size(), 1);
  for (std::int32_t b = 0; b < size(); ++b) refresh_length(b);
}

TourBatch TourBatch::replicated(const Instance& instance, const Tour& tour,
                                std::int32_t copies) {
  TSPOPT_CHECK(copies >= 1);
  std::vector<Tour> tours;
  tours.reserve(static_cast<std::size_t>(copies));
  for (std::int32_t b = 0; b < copies; ++b) tours.push_back(tour);
  return TourBatch(instance, std::move(tours));
}

std::int64_t TourBatch::refresh_length(std::int32_t b) {
  lengths_[check_slot(b)] = tours_[static_cast<std::size_t>(b)].length(*instance_);
  return lengths_[static_cast<std::size_t>(b)];
}

void TourBatch::set_all_active(bool on) {
  for (std::uint8_t& a : active_) a = on ? 1 : 0;
}

std::int32_t TourBatch::active_count() const {
  std::int32_t count = 0;
  for (std::uint8_t a : active_) count += a != 0 ? 1 : 0;
  return count;
}

void TourBatch::stage(std::int32_t b) {
  const Tour& t = tours_[check_slot(b)];
  if (xs_.empty()) {
    xs_.resize(static_cast<std::size_t>(stride_) * tours_.size());
    ys_.resize(static_cast<std::size_t>(stride_) * tours_.size());
  }
  std::span<const Point> pts = instance_->points();
  std::span<const std::int32_t> route = t.order();
  float* xs = xs_.data() + static_cast<std::size_t>(b) * stride_;
  float* ys = ys_.data() + static_cast<std::size_t>(b) * stride_;
  for (std::size_t p = 0; p < route.size(); ++p) {
    const Point& pt = pts[static_cast<std::size_t>(route[p])];
    xs[p] = pt.x;
    ys[p] = pt.y;
  }
  xs[route.size()] = xs[0];  // +1 wrap entry: position n reads position 0
  ys[route.size()] = ys[0];
}

}  // namespace tspopt
