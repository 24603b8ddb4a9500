// Per-pass staging and don't-look-bit sweep state shared by the pruned
// candidate-list engines (cpu-simd-pruned and gpu-pruned).
//
// Staging. Both engines read the same route-ordered inputs: SoA
// coordinates (n + 1 entries, the last duplicating position 0), per-
// position successor-edge lengths, city -> position, and the city-indexed
// candidate records of the SIMD sweep. The paper's Optimization 2 rebuilds
// such a pre-ordering on the host before every pass, which is free next to
// an O(n^2) sweep but dominates a don't-look candidate sweep that examines
// a handful of rows. So this state lives across passes and follows the
// tour's lineage stamp (tsp/tour.hpp), changing the staged route-indexed
// arrays the way the tour changed its order:
//
//   - same version as the staged tour: nothing to restage.
//   - the staged tour plus one apply_two_opt(i, j): reverse the staged
//     coordinates over the arc (Tour::reverse_arc) and the successor
//     lengths over its interior, then measure the two new edges, into and
//     out of the arc. O(min(j - i, n - (j - i))).
//   - the staged tour plus one double_bridge (p1, p2, p3): rotate the
//     staged coordinates and successor lengths over [p1, p3) as the tour
//     did, then measure the three new joint edges. O(p3 - p1). An ILS
//     kick from an accepted incumbent takes this path, because the
//     incumbent is the state the descent left staged.
//   - anything else (first pass, Or-opt, a resumed or restored tour, a
//     kick from an incumbent the staging does not describe, another
//     instance): gather the coordinates over [0, n) from the instance
//     and measure every edge.
//
// Each path then scatters the changed positions' records and positions
// to their city-indexed slots in one sequential pass over the arc and its
// predecessor. The incremental paths copy staged floats and reuse
// measured lengths (dist_euc2d is symmetric bit for bit), so their
// staging is bit-identical to a rebuild's.
//
// Don't-look bits. Classic don't-look bits (Bentley; the `dontLook` array
// in SNIPPETS.md Snippet 3's opt2 kernel): a city whose candidate row
// produced no improving move is marked quiescent and skipped on later
// passes, until one of its own tour edges changes. Under ILS steady state
// almost every row is quiescent, so a pass costs O(changed-rows * k)
// instead of O(n * k). The reset policy is exact rather than heuristic,
// because both backends must select identical moves pass after pass:
//
//   - first pass (or n changed): every row active — a full candidate
//     sweep, bit-equal to the DLB-free cpu-pruned engine.
//   - otherwise, exactly the cities whose unordered tour-neighbor pair
//     {prev, succ} changed are re-activated (4 for an applied 2-opt move,
//     6 for a double-bridge kick). A rebuild compares and sets every
//     city's pair; an incremental update only the cities whose pairs the
//     change can alter: the four endpoints of the two edges a 2-opt move
//     replaced, or the six cities at a kick's segment joints.
//   - no pair changed (the same tour searched again, or a no-op move
//     like (i, i+1) or (0, n-1)): every bit is re-armed, so the pass is
//     again a full sweep and search() is idempotent.
//
// Skipping a quiescent row can miss moves whose deltas changed only via
// segment orientation — the standard don't-look approximation; the pruned
// engines are documented as inexact already, and the equivalence suite
// pins all backends to the same approximation.
//
// The active rows come out in ascending position order (gpu-pruned's
// per-block slices depend on it) from a position bitmap rather than a
// comparison sort, so the list costs O(active + n / 64) per pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "solver/simd.hpp"
#include "tsp/instance.hpp"
#include "tsp/soa.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

class PrunedSweep {
 public:
  // Brings the staging up to date for `tour` and applies the reset policy
  // above. Afterwards active_rows() lists the tour positions to sweep this
  // pass, in ascending order. Reuses capacity: steady-state calls
  // allocate nothing.
  void begin_pass(const Instance& instance, const Tour& tour);

  // Route-ordered coordinates: coords().xs()[p] is position p's city.
  const SoaCoords& coords() const { return coords_; }
  // succ_len()[p] == dist_euc2d(position p, position p + 1) — the two
  // removed-edge terms of every candidate delta (see simd::CandRowArgs).
  std::span<const std::int32_t> succ_len() const {
    return {coords_.succ_len(), static_cast<std::size_t>(n_)};
  }
  // positions()[city] == tour position of `city`.
  std::span<const std::int32_t> positions() const { return positions_; }
  // records()[city] == {coords of position + 1, succ_len, position}.
  std::span<const simd::CandRecord> records() const { return records_; }

  std::span<const std::int32_t> active_rows() const { return active_rows_; }
  std::span<const std::uint8_t> dont_look() const { return dont_look_; }

  // The positions whose city the last begin_pass restaged: the reversed
  // arc after one 2-opt move, [p1, p3) after a double bridge, [0, n) after
  // a rebuild, empty when the tour was unchanged. Coordinates change over
  // this arc (and the wrap entry when it holds position 0), successor
  // lengths over the arc and its predecessor, positions() over the arc's
  // cities.
  Tour::Arc dirty() const { return dirty_; }
  // Smallest and largest city id in the dirty arc (lo > hi when empty).
  std::int32_t dirty_city_lo() const { return dirty_city_lo_; }
  std::int32_t dirty_city_hi() const { return dirty_city_hi_; }

  std::uint64_t rows_skipped() const {
    return static_cast<std::uint64_t>(n_) - active_rows_.size();
  }

  // Marks `city`'s row quiescent: skipped on later passes until one of its
  // tour edges changes. Called by the engine when the row's sweep found no
  // improving candidate.
  void set_dont_look(std::int32_t city) {
    dont_look_[static_cast<std::size_t>(city)] = 1;
  }

 private:
  // Rebuilds the staging of the whole tour from the instance's points.
  void restage(std::span<const Point> points,
               std::span<const std::int32_t> route);
  // Apply one 2-opt move's reversal, or one double bridge's rotation, to
  // the staged coordinates and successor lengths, measuring only the
  // edges the change created.
  void reverse(Tour::Arc arc);
  void rotate(Tour::Kick kick);
  // Writes the records and positions of the arc's cities, and the record
  // of its predecessor, from the staged route-ordered arrays; sets the
  // dirty arc and its city span.
  void scatter(std::span<const std::int32_t> route, Tour::Arc arc);
  // Compares and sets the tour-neighbor pair of the city at position `p`,
  // arming its row if the pair changed; returns 1 if it did.
  std::int32_t compare_and_set(std::span<const std::int32_t> route,
                               std::int32_t p);
  void arm(std::int32_t city);

  std::int32_t n_ = 0;
  // Identity of the staged tour state: its lineage version and the
  // instance's point storage.
  std::uint64_t version_ = 0;
  const Point* points_ = nullptr;

  SoaCoords coords_;
  std::vector<std::int32_t> positions_;
  std::vector<simd::CandRecord> records_;
  Tour::Arc dirty_;
  std::int32_t dirty_city_lo_ = 0;
  std::int32_t dirty_city_hi_ = -1;

  // Unordered tour-neighbor pair per city, as (min, max); -1 = unset.
  std::vector<std::int32_t> adj_lo_;
  std::vector<std::int32_t> adj_hi_;
  std::vector<std::uint8_t> dont_look_;
  // Cities whose bit was clear at the start of the last pass (a superset
  // of the armed cities until begin_pass drops those set since).
  std::vector<std::int32_t> armed_;
  std::vector<std::int32_t> active_rows_;
  // One bit per position; all clear between passes.
  std::vector<std::uint64_t> row_bits_;

  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free.
  obs::Counter* positions_restaged_ = nullptr;
  obs::Counter* full_rebuilds_ = nullptr;
};

}  // namespace tspopt
