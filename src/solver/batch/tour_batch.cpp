#include "solver/batch/tour_batch.hpp"

#include <array>
#include <utility>

namespace tspopt {

TourBatch::TourBatch(const Instance& instance, std::vector<Tour> tours)
    : instance_(&instance), tours_(std::move(tours)) {
  TSPOPT_CHECK_MSG(!tours_.empty(), "TourBatch needs at least one tour");
  n_ = instance.n();
  for (const Tour& t : tours_) {
    TSPOPT_CHECK_MSG(t.n() == n_, "batch tour has " << t.n()
                                                    << " cities, instance has "
                                                    << n_);
  }
  lengths_.resize(tours_.size());
  active_.assign(tours_.size(), 1);
  for (std::size_t b = 0; b < tours_.size(); ++b) {
    lengths_[b] = tours_[b].length(instance);
  }
}

TourBatch TourBatch::replicated(const Instance& instance, const Tour& tour,
                                std::int32_t copies) {
  TSPOPT_CHECK(copies >= 1);
  std::vector<Tour> tours;
  tours.reserve(static_cast<std::size_t>(copies));
  for (std::int32_t b = 0; b < copies; ++b) tours.push_back(tour);
  return TourBatch(instance, std::move(tours));
}

void TourBatch::apply_two_opt(std::int32_t b, std::int32_t i, std::int32_t j) {
  Tour& t = tours_[check_slot(b)];
  const std::int32_t n = t.n();
  TSPOPT_CHECK(0 <= i && i < j && j <= n - 1);
  // Edges (a, a') and (c, c') become (a, c) and (a', c').
  const std::int32_t a = t.city_at(i);
  const std::int32_t a_next = t.city_at(i + 1);
  const std::int32_t c = t.city_at(j);
  const std::int32_t c_next = t.city_at(j + 1 == n ? 0 : j + 1);
  const Instance& in = *instance_;
  lengths_[static_cast<std::size_t>(b)] +=
      static_cast<std::int64_t>(in.dist(a, c)) + in.dist(a_next, c_next) -
      in.dist(a, a_next) - in.dist(c, c_next);
  t.apply_two_opt(i, j);
}

void TourBatch::kick(std::int32_t b, const Tour& from, std::int64_t from_length,
                     Pcg32& rng) {
  Tour& t = tours_[check_slot(b)];
  t = from;
  t.double_bridge(rng);
  // Joint edges (0, 3), (4, 1), (2, 5) became (0, 1), (2, 3), (4, 5);
  // see Tour::Kick::joints.
  std::array<std::int32_t, 6> city{};
  const std::array<std::int32_t, 6> joints = t.last_kick().joints();
  for (std::size_t k = 0; k < city.size(); ++k) city[k] = t.city_at(joints[k]);
  const Instance& in = *instance_;
  lengths_[static_cast<std::size_t>(b)] =
      from_length + in.dist(city[0], city[1]) + in.dist(city[2], city[3]) +
      in.dist(city[4], city[5]) - in.dist(city[0], city[3]) -
      in.dist(city[4], city[1]) - in.dist(city[2], city[5]);
}

void TourBatch::swap_tour(std::int32_t b, Tour& tour, std::int64_t& length) {
  std::swap(tours_[check_slot(b)], tour);
  std::swap(lengths_[static_cast<std::size_t>(b)], length);
}

void TourBatch::set_all_active(bool on) {
  for (std::uint8_t& a : active_) a = on ? 1 : 0;
}

std::int32_t TourBatch::active_count() const {
  std::int32_t count = 0;
  for (std::uint8_t a : active_) count += a != 0 ? 1 : 0;
  return count;
}

}  // namespace tspopt
