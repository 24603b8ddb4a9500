#include "solver/pruned_sweep.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace tspopt {

void label_rows(const NeighborLists& neighbors, std::int32_t stride,
                std::vector<std::int32_t>& ids,
                std::vector<std::int32_t>& cand_dist) {
  const std::int32_t n = neighbors.n();
  const std::int32_t k = neighbors.k();
  TSPOPT_CHECK(stride >= k);
  std::span<const std::int32_t> labels = neighbors.labels();
  const auto row = static_cast<std::size_t>(stride);
  ids.resize(static_cast<std::size_t>(n) * row);
  cand_dist.resize(ids.size());
  for (std::int32_t city = 0; city < n; ++city) {
    std::span<const std::int32_t> nbrs = neighbors.neighbors(city);
    std::span<const std::int32_t> cds = neighbors.cand_dists(city);
    const std::size_t base =
        static_cast<std::size_t>(labels[static_cast<std::size_t>(city)]) * row;
    for (std::int32_t c = 0; c < stride; ++c) {
      const auto from = static_cast<std::size_t>(c < k ? c : 0);
      ids[base + static_cast<std::size_t>(c)] =
          labels[static_cast<std::size_t>(nbrs[from])];
      cand_dist[base + static_cast<std::size_t>(c)] = cds[from];
    }
  }
}

void PrunedSweep::begin_pass(const Instance& instance, const Tour& tour) {
  const std::int32_t n = tour.n();
  TSPOPT_CHECK(instance.n() == n);
  TSPOPT_CHECK(static_cast<std::size_t>(n) == labels_.size());
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "coordinate engines require a coordinate-based instance");
  std::span<const Point> points = instance.points();
  if (positions_restaged_ == nullptr) {
    positions_restaged_ =
        &obs::Registry::global().counter("pruned.positions_restaged");
    full_rebuilds_ = &obs::Registry::global().counter("pruned.full_rebuilds");
  }

  const bool fresh = n != n_;
  if (fresh) {
    n_ = n;
    coords_.resize(n);
    const auto size = static_cast<std::size_t>(n);
    route_.resize(size);
    positions_.resize(size);
    records_.resize(size);
    adj_lo_.assign(size, -1);
    adj_hi_.assign(size, -1);
    dont_look_.assign(size, 0);
    armed_.resize(size);
    std::iota(armed_.begin(), armed_.end(), 0);
  } else {
    // Drop the labels the last pass marked quiescent: armed_ is again
    // exactly the labels whose bit is clear, so re-arming can append.
    std::erase_if(armed_, [this](std::int32_t label) {
      return dont_look_[static_cast<std::size_t>(label)] != 0;
    });
  }

  const bool same_state = !fresh && points.data() == points_;
  const bool child = same_state && tour.parent_version() != 0 &&
                     tour.parent_version() == version_;
  std::int32_t changed = 0;
  if (same_state && tour.version() == version_) {
    dirty_ = {0, 0};
    dirty_label_lo_ = 0;
    dirty_label_hi_ = -1;
    pred_label_ = -1;
  } else if (child && tour.last_kick().p1 >= 0) {
    // A double bridge A B C D -> A C B D moves only [p1, p3); the six
    // cities at the segment joints are the only ones whose neighbors
    // changed.
    const Tour::Kick kick = tour.last_kick();
    rotate(kick);
    scatter({kick.p1, kick.p3 - kick.p1});
    for (std::int32_t p : kick.joints()) changed += compare_and_set(p);
  } else if (child) {
    // One 2-opt move changes the reversed arc; only the four endpoints of
    // the two replaced edges get new neighbors.
    auto [i, j] = tour.last_move();
    const Tour::Arc arc = Tour::two_opt_arc(n, i, j);
    reverse(arc);
    scatter(arc);
    const std::int32_t last = arc.first + arc.count - 1;
    for (std::int32_t p : {arc.first + n - 1, arc.first, last, last + 1}) {
      changed += compare_and_set(p % n);
    }
  } else {
    // On the first pass every pair differs from the -1 sentinel.
    restage(points, tour.order());
    for (std::int32_t p = 0; p < n; ++p) changed += compare_and_set(p);
    full_rebuilds_->add();
  }
  version_ = tour.version();
  points_ = points.data();

  // No tour-neighbor pair changed: a re-search of the same tour must
  // return the same move, so re-arm every row and sweep in full
  // (idempotence, and bit-equality with the DLB-free cpu-pruned engine on
  // such passes).
  if (!fresh && changed == 0) {
    std::fill(dont_look_.begin(), dont_look_.end(), std::uint8_t{0});
    armed_.resize(static_cast<std::size_t>(n));
    std::iota(armed_.begin(), armed_.end(), 0);
  }

  active_rows_built_ = false;
}

std::span<const std::int32_t> PrunedSweep::active_rows() const {
  if (active_rows_built_) return active_rows_;
  active_rows_built_ = true;
  if (armed_.size() == static_cast<std::size_t>(n_)) {
    active_rows_.resize(armed_.size());
    std::iota(active_rows_.begin(), active_rows_.end(), 0);
    return active_rows_;
  }
  // Ascending positions without a comparison sort: mark each armed
  // label's position in a bitmap, then read the set bits out word by
  // word, clearing them for the next call. O(active + n / 64).
  row_bits_.resize((static_cast<std::size_t>(n_) + 63) / 64);
  for (std::int32_t label : armed_) {
    const auto p = static_cast<std::uint32_t>(
        positions_[static_cast<std::size_t>(label)]);
    row_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
  active_rows_.clear();
  for (std::size_t w = 0; w < row_bits_.size(); ++w) {
    for (std::uint64_t bits = row_bits_[w]; bits != 0; bits &= bits - 1) {
      active_rows_.push_back(
          static_cast<std::int32_t>(w * 64 + std::countr_zero(bits)));
    }
    row_bits_[w] = 0;
  }
  return active_rows_;
}

void PrunedSweep::restage(std::span<const Point> points,
                          std::span<const std::int32_t> order) {
  const std::int32_t n = n_;
  float* xs = coords_.xs();
  float* ys = coords_.ys();
  for (std::int32_t p = 0; p < n; ++p) {
    const auto s = static_cast<std::size_t>(p);
    const auto city = static_cast<std::size_t>(order[s]);
    route_[s] = labels_[city];
    xs[p] = points[city].x;
    ys[p] = points[city].y;
  }
  coords_.close();
  coords_.measure_all();
  scatter({0, n});
}

void PrunedSweep::reverse(Tour::Arc arc) {
  const std::int32_t n = n_;
  const auto size = static_cast<std::size_t>(n);
  Tour::reverse_arc(std::span<std::int32_t>(route_), arc);
  Tour::reverse_arc(std::span<float>(coords_.xs(), size), arc);
  Tour::reverse_arc(std::span<float>(coords_.ys(), size), arc);
  coords_.close();
  // The arc's interior edges are the same edges in reverse order, and
  // dist_euc2d is symmetric bit for bit; only the edges into and out of
  // the arc are new.
  Tour::reverse_arc(std::span<std::int32_t>(coords_.succ_len(), size),
                    {arc.first, arc.count - 1});
  coords_.measure(arc.first == 0 ? n - 1 : arc.first - 1);
  coords_.measure((arc.first + arc.count - 1) % n);
}

void PrunedSweep::rotate(Tour::Kick kick) {
  // [p1, p3) holds neither position 0 nor the wrap entry.
  std::rotate(route_.begin() + kick.p1, route_.begin() + kick.p2,
              route_.begin() + kick.p3);
  for (float* a : {coords_.xs(), coords_.ys()}) {
    std::rotate(a + kick.p1, a + kick.p2, a + kick.p3);
  }
  std::int32_t* succ_len = coords_.succ_len();
  std::rotate(succ_len + kick.p1, succ_len + kick.p2, succ_len + kick.p3);
  // Each segment keeps its interior edges; the three joint edges of
  // A C B D are new.
  coords_.measure(kick.p1 - 1);
  coords_.measure(kick.p1 + (kick.p3 - kick.p2) - 1);
  coords_.measure(kick.p3 - 1);
}

void PrunedSweep::scatter(Tour::Arc arc) {
  const std::int32_t n = n_;
  const bool whole = arc.count == n;
  const float* xs = coords_.xs();
  const float* ys = coords_.ys();
  const std::int32_t* succ_len = coords_.succ_len();
  const std::int32_t* route = route_.data();
  auto record = [&](std::int32_t p, std::int32_t label) {
    records_[static_cast<std::size_t>(label)] =
        simd::CandRecord{xs[p + 1], ys[p + 1], succ_len[p], p};
  };

  // The predecessor keeps its position but not its successor.
  pred_label_ = -1;
  if (!whole) {
    const std::int32_t pred = arc.first == 0 ? n - 1 : arc.first - 1;
    pred_label_ = route[pred];
    record(pred, pred_label_);
  }
  dirty_ = arc;
  dirty_label_lo_ = n;
  dirty_label_hi_ = -1;
  for (std::int32_t s = 0; s < arc.count; ++s) {
    // Positions arc.first + s (s < n) wrap past n - 1.
    std::int32_t p = arc.first + s;
    if (p >= n) p -= n;
    std::int32_t label = route[p];
    record(p, label);
    positions_[static_cast<std::size_t>(label)] = p;
    dirty_label_lo_ = std::min(dirty_label_lo_, label);
    dirty_label_hi_ = std::max(dirty_label_hi_, label);
  }
  positions_restaged_->add(static_cast<std::uint64_t>(arc.count) +
                           (whole ? 0 : 1));
}

std::int32_t PrunedSweep::compare_and_set(std::int32_t p) {
  const std::int32_t n = n_;
  const std::int32_t* route = route_.data();
  std::int32_t label = route[p];
  std::int32_t prev = route[p == 0 ? n - 1 : p - 1];
  std::int32_t next = route[p == n - 1 ? 0 : p + 1];
  std::int32_t lo = prev < next ? prev : next;
  std::int32_t hi = prev < next ? next : prev;
  auto l = static_cast<std::size_t>(label);
  if (lo == adj_lo_[l] && hi == adj_hi_[l]) return 0;
  adj_lo_[l] = lo;
  adj_hi_[l] = hi;
  arm(label);
  return 1;
}

void PrunedSweep::arm(std::int32_t label) {
  auto l = static_cast<std::size_t>(label);
  if (dont_look_[l] != 0) {
    dont_look_[l] = 0;
    armed_.push_back(label);
  }
}

}  // namespace tspopt
