#include "tsp/tour.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

namespace tspopt {

namespace {

std::uint64_t next_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Tour::Tour(std::vector<std::int32_t> order)
    : order_(std::move(order)), version_(next_version()) {
  TSPOPT_CHECK_MSG(order_.size() >= 3, "a tour needs at least 3 cities");
}

void Tour::restamp() {
  restamp_child();
  parent_version_ = 0;
}

void Tour::restamp_child() {
  parent_version_ = version_;
  version_ = next_version();
  move_i_ = -1;
  move_j_ = -1;
  kick_ = Kick{};
}

Tour Tour::identity(std::int32_t n) {
  TSPOPT_CHECK(n >= 3);
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return Tour(std::move(order));
}

Tour Tour::random(std::int32_t n, Pcg32& rng) {
  Tour t = identity(n);
  // Fisher–Yates with our deterministic generator.
  for (std::int32_t i = n - 1; i > 0; --i) {
    auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint32_t>(i + 1)));
    std::swap(t.order_[static_cast<std::size_t>(i)],
              t.order_[static_cast<std::size_t>(j)]);
  }
  t.restamp();
  return t;
}

bool Tour::is_valid() const {
  std::vector<bool> seen(order_.size(), false);
  for (std::int32_t c : order_) {
    if (c < 0 || c >= n()) return false;
    if (seen[static_cast<std::size_t>(c)]) return false;
    seen[static_cast<std::size_t>(c)] = true;
  }
  return true;
}

std::int64_t Tour::length(const Instance& instance) const {
  TSPOPT_CHECK(instance.n() == n());
  std::int64_t total = 0;
  for (std::size_t p = 0; p + 1 < order_.size(); ++p) {
    total += instance.dist(order_[p], order_[p + 1]);
  }
  total += instance.dist(order_.back(), order_.front());
  return total;
}

Tour::Arc Tour::two_opt_arc(std::int32_t n, std::int32_t i, std::int32_t j) {
  // Inner arc: positions i+1..j (length j-i). Outer arc: positions
  // (j+1)%n .. i wrapping (length n-(j-i)). Reversing either applies the
  // same 2-opt move; pick the shorter to bound the apply cost by n/2.
  std::int32_t inner_len = j - i;
  std::int32_t outer_len = n - inner_len;
  if (inner_len <= outer_len) return {i + 1, inner_len};
  return {(j + 1) % n, outer_len};
}

void Tour::apply_two_opt(std::int32_t i, std::int32_t j) {
  TSPOPT_CHECK(0 <= i && i < j && j <= n() - 1);
  reverse_arc(std::span<std::int32_t>(order_), two_opt_arc(n(), i, j));
  restamp_child();
  move_i_ = i;
  move_j_ = j;
}

void Tour::double_bridge(Pcg32& rng) {
  TSPOPT_CHECK_MSG(n() >= 8, "double bridge needs n >= 8");
  // Choose three distinct interior cut points 0 < p1 < p2 < p3 < n, giving
  // segments A=[0,p1), B=[p1,p2), C=[p2,p3), D=[p3,n).
  std::int32_t p1 = 1 + static_cast<std::int32_t>(
                            rng.next_below(static_cast<std::uint32_t>(n() - 3)));
  std::int32_t p2 =
      p1 + 1 + static_cast<std::int32_t>(
                   rng.next_below(static_cast<std::uint32_t>(n() - p1 - 2)));
  std::int32_t p3 =
      p2 + 1 + static_cast<std::int32_t>(
                   rng.next_below(static_cast<std::uint32_t>(n() - p2 - 1)));
  double_bridge(Kick{p1, p2, p3});
}

void Tour::double_bridge(Kick kick) {
  TSPOPT_CHECK(0 < kick.p1 && kick.p1 < kick.p2 && kick.p2 < kick.p3 &&
               kick.p3 < n());
  // A B C D -> A C B D: rotate C ahead of B.
  std::rotate(order_.begin() + kick.p1, order_.begin() + kick.p2,
              order_.begin() + kick.p3);
  restamp_child();
  kick_ = kick;
}

void Tour::or_opt_move(std::int32_t from, std::int32_t len, std::int32_t to) {
  TSPOPT_CHECK(len >= 1 && len < n());
  TSPOPT_CHECK(from >= 0 && from + len <= n());
  TSPOPT_CHECK(to < from || to >= from + len);
  TSPOPT_CHECK(to >= -1 && to < n());
  std::vector<std::int32_t> segment(order_.begin() + from,
                                    order_.begin() + from + len);
  order_.erase(order_.begin() + from, order_.begin() + from + len);
  // After erasing, positions beyond the segment shift left by `len`.
  std::int32_t insert_after = (to >= from + len) ? to - len : to;
  order_.insert(order_.begin() + insert_after + 1, segment.begin(),
                segment.end());
  restamp();
}

std::vector<std::int32_t> Tour::positions() const {
  std::vector<std::int32_t> pos(order_.size());
  for (std::size_t p = 0; p < order_.size(); ++p) {
    pos[static_cast<std::size_t>(order_[p])] = static_cast<std::int32_t>(p);
  }
  return pos;
}

}  // namespace tspopt
