// A closed TSP tour: a permutation of the city indices 0..n-1.
//
// Positions are indices into the permutation; the tour implicitly closes
// with the edge (order[n-1], order[0]). The 2-opt move (i, j) with
// 0 <= i < j <= n-1 removes edges (order[i], order[i+1]) and
// (order[j], order[(j+1) % n]) and reconnects by reversing a segment.
//
// Lineage stamp. Every construction and mutation draws a process-unique
// version(), shared by copies, so a consumer that staged one tour state
// (PrunedSweep) can tell in O(1) whether a tour is that state, or that
// state plus one known change it can patch in place of a rebuild:
//
//   - apply_two_opt(i, j): parent_version() is the prior version and
//     last_move() is (i, j).
//   - double_bridge: parent_version() is the prior version and last_kick()
//     its cut points (p1, p2, p3).
//   - anything else (construction, Or-opt, a restored order): no parent.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tsp/instance.hpp"

namespace tspopt {

class Tour {
 public:
  // The arc of positions first, first + 1, ... (mod n), `count` long.
  struct Arc {
    std::int32_t first = 0;
    std::int32_t count = 0;
  };

  explicit Tour(std::vector<std::int32_t> order);

  // The identity tour 0, 1, ..., n-1.
  static Tour identity(std::int32_t n);
  // A uniformly random tour (Fisher–Yates).
  static Tour random(std::int32_t n, Pcg32& rng);

  std::int32_t n() const { return static_cast<std::int32_t>(order_.size()); }
  std::span<const std::int32_t> order() const { return order_; }
  std::int32_t city_at(std::int32_t pos) const {
    TSPOPT_DCHECK(pos >= 0 && pos < n());
    return order_[static_cast<std::size_t>(pos)];
  }

  // True iff the order is a permutation of 0..n-1.
  bool is_valid() const;

  // Total closed-tour length under the instance's metric.
  std::int64_t length(const Instance& instance) const;

  // Apply the 2-opt move (i, j): reverse whichever of the two arcs between
  // the removed edges is shorter (both reconnections yield the same tour up
  // to orientation, so the symmetric length is identical either way).
  // Requires 0 <= i < j <= n-1.
  void apply_two_opt(std::int32_t i, std::int32_t j);

  // The arc apply_two_opt(i, j) reverses on an n-city tour: positions
  // i+1..j, or the wrapped outer arc (j+1)%n..i when that is shorter.
  static Arc two_opt_arc(std::int32_t n, std::int32_t i, std::int32_t j);

  // Reverses the entries of `a` (one per position, n of them) over `arc`,
  // wrapping past n - 1: the permutation apply_two_opt makes of the order,
  // for arrays staged alongside it.
  template <typename T>
  static void reverse_arc(std::span<T> a, Arc arc) {
    const auto n = static_cast<std::int32_t>(a.size());
    if (arc.first + arc.count <= n) {
      std::reverse(a.begin() + arc.first, a.begin() + arc.first + arc.count);
      return;
    }
    // Swap from both ends, moving the indices modularly.
    std::int32_t lo = arc.first;
    std::int32_t hi = arc.first + arc.count - 1 - n;
    for (std::int32_t s = 0; s < arc.count / 2; ++s) {
      std::swap(a[static_cast<std::size_t>(lo)],
                a[static_cast<std::size_t>(hi)]);
      lo = lo + 1 == n ? 0 : lo + 1;
      hi = hi == 0 ? n - 1 : hi - 1;
    }
  }

  // Cut points of a double bridge: A = [0, p1), B = [p1, p2),
  // C = [p2, p3), D = [p3, n), with 0 < p1 < p2 < p3 < n.
  struct Kick {
    std::int32_t p1 = -1;
    std::int32_t p2 = -1;
    std::int32_t p3 = -1;

    // The six positions at the segment joints of the kicked order
    // A C B D: last of A, first and last of C, first and last of B,
    // first of D. The kick replaced edges (0, 3), (4, 1) and (2, 5) of
    // these with (0, 1), (2, 3) and (4, 5); no other city's neighbors
    // changed.
    std::array<std::int32_t, 6> joints() const {
      const std::int32_t mid = p1 + (p3 - p2);
      return {p1 - 1, p1, mid - 1, mid, p3 - 1, p3};
    }
  };

  // The classic ILS double-bridge perturbation: cut the tour into four
  // non-empty segments A B C D at random points and reconnect as A C B D.
  // Requires n >= 8 so all segments can be non-empty and non-trivial.
  void double_bridge(Pcg32& rng);
  // The same reconnection at the given cut points: rotates [p1, p3) in
  // place, so only those positions change.
  void double_bridge(Kick kick);

  // Or-opt move: relocate the segment of `len` cities starting at position
  // `from` so that it follows position `to` (positions in the current
  // order; `to` must lie outside the moved segment). Used by the 2.5-opt
  // extension.
  void or_opt_move(std::int32_t from, std::int32_t len, std::int32_t to);

  // positions()[city] == position of `city` in the order.
  std::vector<std::int32_t> positions() const;

  // Lineage stamp (see the header comment). parent_version() is 0 unless
  // the latest mutation was apply_two_opt or double_bridge; last_move() is
  // (-1, -1) unless it was apply_two_opt, last_kick() all -1 unless it was
  // double_bridge.
  std::uint64_t version() const { return version_; }
  std::uint64_t parent_version() const { return parent_version_; }
  std::pair<std::int32_t, std::int32_t> last_move() const {
    return {move_i_, move_j_};
  }
  Kick last_kick() const { return kick_; }

  friend bool operator==(const Tour& a, const Tour& b) {
    return a.order_ == b.order_;
  }

 private:
  // Draws a fresh version and forgets the parent: construction and any
  // mutation without a recorded change.
  void restamp();
  // Draws a fresh version whose parent is the current one, clearing the
  // recorded change; the caller records its own.
  void restamp_child();

  std::vector<std::int32_t> order_;
  std::uint64_t version_ = 0;
  std::uint64_t parent_version_ = 0;
  std::int32_t move_i_ = -1;
  std::int32_t move_j_ = -1;
  Kick kick_;
};

}  // namespace tspopt
