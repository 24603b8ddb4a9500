// Per-pass staging and don't-look-bit sweep state shared by the pruned
// candidate-list engines (cpu-simd-pruned and gpu-pruned).
//
// Labels. Every per-city array here is keyed by the city's spatial label
// (NeighborLists::labels(), a Hilbert walk of the k-NN grid), not by its
// input id, and the sweep stages the tour as a route of labels. Cities
// near each other along a good tour, and a city's candidates, then have
// nearby labels, so restaging an arc and gathering a row's candidates
// touch a few cache lines instead of one per city: input ids can be in
// any order in the plane. The labels are a fixed permutation, so moves,
// pair indices, don't-look sets and counts are those of id-keyed state.
// Only a full rebuild reads tour.order(), mapping it through the labels;
// every other path reverses or rotates the staged label route with the
// coordinates.
//
// Staging. Both engines read the same route-ordered inputs: SoA
// coordinates (n + 1 entries, the last duplicating position 0), per-
// position successor-edge lengths, the label route, label -> position,
// and the label-indexed candidate records of the SIMD sweep. The paper's
// Optimization 2 rebuilds such a pre-ordering on the host before every
// pass, which is free next to an O(n^2) sweep but dominates a don't-look
// candidate sweep that examines a handful of rows. So this state lives
// across passes and follows the tour's lineage stamp (tsp/tour.hpp),
// changing the staged route-indexed arrays the way the tour changed its
// order:
//
//   - same version as the staged tour: nothing to restage.
//   - the staged tour plus one apply_two_opt(i, j): reverse the staged
//     route and coordinates over the arc (Tour::reverse_arc) and the
//     successor lengths over its interior, then measure the two new
//     edges, into and out of the arc. O(min(j - i, n - (j - i))).
//   - the staged tour plus one double_bridge (p1, p2, p3): rotate the
//     staged route, coordinates and successor lengths over [p1, p3) as
//     the tour did, then measure the three new joint edges. O(p3 - p1). An ILS
//     kick from an accepted incumbent takes this path, because the
//     incumbent is the state the descent left staged.
//   - anything else (first pass, Or-opt, a resumed or restored tour, a
//     kick from an incumbent the staging does not describe, another
//     instance): gather the coordinates over [0, n) from the instance and
//     the label route from tour.order(), and measure every edge.
//
// Each path then scatters the changed positions' records and positions
// to their label-indexed slots in one sequential pass over the arc and
// its predecessor. The incremental paths copy staged floats and reuse
// measured lengths (dist_euc2d is symmetric bit for bit), so their
// staging is bit-identical to a rebuild's.
//
// Don't-look bits. Classic don't-look bits (Bentley; the `dontLook` array
// in SNIPPETS.md Snippet 3's opt2 kernel), one per label: a city whose
// candidate row produced no improving move is marked quiescent and skipped
// on later passes, until one of its own tour edges changes. Under ILS steady state
// almost every row is quiescent, so a pass visits O(active-rows) rows, not
// n; what it sweeps is up to the engine (cpu-simd-pruned re-sweeps only
// the rows whose candidate records changed, see rewrote()). The reset
// policy is exact rather than heuristic, because both backends must select
// identical moves pass after pass:
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
// The armed labels come in no particular order: a pass that reduces its
// rows to the lexmin (delta, pair index) move may walk them as they are.
// The ascending-position list of the same rows (gpu-pruned's per-block
// slices depend on the order) is built only when asked for, from a
// position bitmap rather than a comparison sort, for O(active + n / 64).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "solver/simd.hpp"
#include "tsp/instance.hpp"
#include "tsp/neighbor_lists.hpp"
#include "tsp/soa.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

// The candidate rows of `neighbors` in label space: the row of the city
// with label l occupies [l * stride, (l + 1) * stride) of `ids` and
// `cand_dist`, holds the labels of its k candidates in list order and
// their edge lengths, and repeats its first candidate past k.
void label_rows(const NeighborLists& neighbors, std::int32_t stride,
                std::vector<std::int32_t>& ids,
                std::vector<std::int32_t>& cand_dist);

class PrunedSweep {
 public:
  // Keys the per-city state by `neighbors`' labels; the lists must outlive
  // the sweep and match the instances it stages.
  explicit PrunedSweep(const NeighborLists& neighbors)
      : labels_(neighbors.labels()) {}

  // Brings the staging up to date for `tour` and applies the reset policy
  // above. Afterwards armed() lists the labels whose rows this pass
  // visits. Reuses capacity: steady-state calls allocate nothing.
  void begin_pass(const Instance& instance, const Tour& tour);

  // Route-ordered coordinates: coords().xs()[p] is position p's city.
  const SoaCoords& coords() const { return coords_; }
  // succ_len()[p] == dist_euc2d(position p, position p + 1) — the two
  // removed-edge terms of every candidate delta (see simd::CandRowArgs).
  std::span<const std::int32_t> succ_len() const {
    return {coords_.succ_len(), static_cast<std::size_t>(n_)};
  }
  // route()[p] == label of the city at tour position p.
  std::span<const std::int32_t> route() const { return route_; }
  // positions()[label] == tour position of the city with `label`.
  std::span<const std::int32_t> positions() const { return positions_; }
  // records()[label] == {coords of position + 1, succ_len, position}.
  std::span<const simd::CandRecord> records() const { return records_; }

  // The labels whose rows the current pass visits, in no particular order.
  // Rows marked quiescent during the pass stay listed until the next
  // begin_pass.
  std::span<const std::int32_t> armed() const { return armed_; }
  // The tour positions of armed(), ascending; built on the first call after
  // each begin_pass.
  std::span<const std::int32_t> active_rows() const;
  // dont_look()[label] == 1 when that city's row is quiescent.
  std::span<const std::uint8_t> dont_look() const { return dont_look_; }

  // The positions whose city the last begin_pass restaged: the reversed
  // arc after one 2-opt move, [p1, p3) after a double bridge, [0, n) after
  // a rebuild, empty when the tour was unchanged. Coordinates and route()
  // change over this arc (coordinates also at the wrap entry when it holds
  // position 0), successor lengths over the arc and its predecessor,
  // positions() over the arc's labels.
  Tour::Arc dirty() const { return dirty_; }
  // Smallest and largest label in the dirty arc (lo > hi when empty).
  std::int32_t dirty_label_lo() const { return dirty_label_lo_; }
  std::int32_t dirty_label_hi() const { return dirty_label_hi_; }

  // Whether the last begin_pass may have rewritten the record of a label
  // in [lo, hi]. scatter() is the only writer of records: it writes the
  // dirty arc's labels (every label after a rebuild) and the arc's
  // predecessor. The arc's labels are compared by their span, so a true
  // may be spurious; a false never is.
  bool rewrote(std::int32_t lo, std::int32_t hi) const {
    return (lo <= dirty_label_hi_ && dirty_label_lo_ <= hi) ||
           (lo <= pred_label_ && pred_label_ <= hi);
  }

  std::uint64_t rows_skipped() const {
    return static_cast<std::uint64_t>(n_) - armed_.size();
  }

  // Marks the row of the city with `label` quiescent: skipped on later
  // passes until one of its tour edges changes. Called by the engine when
  // the row's sweep found no improving candidate.
  void set_dont_look(std::int32_t label) {
    dont_look_[static_cast<std::size_t>(label)] = 1;
  }

 private:
  // Rebuilds the staging of the whole tour from its order and the
  // instance's points, mapping the order to labels.
  void restage(std::span<const Point> points,
               std::span<const std::int32_t> order);
  // Apply one 2-opt move's reversal, or one double bridge's rotation, to
  // the staged route, coordinates and successor lengths, measuring only
  // the edges the change created.
  void reverse(Tour::Arc arc);
  void rotate(Tour::Kick kick);
  // Writes the records and positions of the arc's labels, and the record
  // of its predecessor, from the staged route-ordered arrays; sets the
  // dirty arc and its label span.
  void scatter(Tour::Arc arc);
  // Compares and sets the tour-neighbor pair of the city at position `p`,
  // arming its row if the pair changed; returns 1 if it did.
  std::int32_t compare_and_set(std::int32_t p);
  void arm(std::int32_t label);

  std::span<const std::int32_t> labels_;  // city -> label

  std::int32_t n_ = 0;
  // Identity of the staged tour state: its lineage version and the
  // instance's point storage.
  std::uint64_t version_ = 0;
  const Point* points_ = nullptr;

  SoaCoords coords_;
  std::vector<std::int32_t> route_;
  std::vector<std::int32_t> positions_;
  std::vector<simd::CandRecord> records_;
  Tour::Arc dirty_;
  std::int32_t dirty_label_lo_ = 0;
  std::int32_t dirty_label_hi_ = -1;
  // Label of the dirty arc's predecessor, whose record scatter() rewrote
  // too; -1 when none (a rebuild, or an unchanged tour).
  std::int32_t pred_label_ = -1;

  // Unordered tour-neighbor pair per label, as (min, max); -1 = unset.
  std::vector<std::int32_t> adj_lo_;
  std::vector<std::int32_t> adj_hi_;
  std::vector<std::uint8_t> dont_look_;
  // Labels whose bit was clear at the start of the last pass (a superset
  // of the armed labels until begin_pass drops those set since).
  std::vector<std::int32_t> armed_;
  // active_rows() output and its scratch: one bit per position, all clear
  // between calls.
  mutable bool active_rows_built_ = false;
  mutable std::vector<std::int32_t> active_rows_;
  mutable std::vector<std::uint64_t> row_bits_;

  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free.
  obs::Counter* positions_restaged_ = nullptr;
  obs::Counter* full_rebuilds_ = nullptr;
};

}  // namespace tspopt
