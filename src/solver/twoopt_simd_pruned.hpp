// Candidate-list 2-opt with SIMD candidate rows and don't-look bits — the
// paper's §VII neighborhood restriction at full vector speed.
//
// Where cpu-pruned walks each city's k-NN candidates scalar-wise through
// the full two_opt_delta (4 distance evaluations per candidate), this
// engine precomputes everything a candidate shares: the per-position
// successor-edge lengths (kept current across passes by PrunedSweep,
// restaged over the reversed arc after each applied move) and the
// candidate-edge lengths (NeighborLists' SoA export, computed once per
// instance). Each candidate then costs a single distance, and a pass runs
// in two phases:
//
//   1. One batched simd::Kernels::cand_sweep call computes the minimum
//      candidate delta of every active row that cannot reuse its last
//      result (below) from per-city 16-byte candidate records
//      (PrunedSweep staging) — 8 candidates per AVX2 lane-group via
//      register transposes, no gathers, row loop inside the kernel so
//      independent rows' memory traffic overlaps.
//   2. A host loop gates on each row's minimum: only rows that can beat or
//      tie the incumbent best need their best (delta, pair index) move,
//      which cand_row finds once per row result, and fold it through
//      consider_move, preserving the full-sweep engines' exact tie-break;
//      the minimum's sign is the don't-look decision.
//
// Row reuse. A row's minimum and best move are a function of the staged
// records of its own label and its k candidate labels, nothing else, and
// PrunedSweep::scatter is the only writer of records. So a row that was
// active on the previous pass, none of whose labels the sweep rewrote
// since, keeps both: the pass skips its sweep and its cand_row. The test
// is by label span (PrunedSweep::rewrote over the row's fixed [min, max]
// label), a few compares per row. The pass's best move is the lexmin of the
// rows' best moves, the same (delta, pair index) as folding every
// candidate in any order, so the engine walks the armed labels as they
// come rather than in tour order.
//
// Candidate rows are padded to the kernel width at construction time
// (duplicating each row's first candidate), so neither kernel runs a
// scalar tail; the duplicate deltas lose consider_move's pair-index
// tie-break against their originals, leaving selection unchanged. Rows,
// records and the route the kernels read are in PrunedSweep's spatial
// labels, not city ids: the kernels only index with them.
//
// Don't-look bits (solver/pruned_sweep.hpp) drive which city rows are
// visited: quiescent regions of the tour cost nothing, the staging is
// updated over the reversed arc only, and only rows whose records changed
// are swept again, which is what makes a descent pass
// O(min(seg, n - seg) + active-rows + swept-rows * k). Like cpu-pruned the
// move set is restricted to the candidate lists (inexact), and like every
// engine the same (instance, tour) input yields the same best move at
// every SIMD dispatch level — the pruned equivalence suite enforces
// bit-identical selection against cpu-pruned and gpu-pruned.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "solver/engine.hpp"
#include "solver/pruned_sweep.hpp"
#include "solver/simd.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {

class TwoOptSimdPruned : public TwoOptEngine {
 public:
  // `neighbors` must outlive the engine and match the instances searched.
  // `kernels == nullptr` uses the process-wide dispatch (simd::active());
  // tests pin explicit levels to compare them on one host.
  explicit TwoOptSimdPruned(const NeighborLists& neighbors,
                            const simd::Kernels* kernels = nullptr);

  std::string name() const override { return "cpu-simd-pruned"; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

  const simd::Kernels& kernels() const { return kernels_; }

  // The persistent don't-look sweep state (diagnostics / the pruned
  // equivalence suite, which asserts the backends' states stay in
  // lockstep across a descent).
  const PrunedSweep& sweep() const { return sweep_; }

  // What the engine keeps per label between passes.
  struct RowState {
    // Smallest and largest label among the row's own and its padded
    // candidates'; fixed per engine.
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    // The row's minimum candidate delta as of pass `pass`.
    std::int32_t min = 0;
    // Tour position of the partner in the row's best (delta, pair index)
    // move; -1 until cand_row has run on this result.
    std::int32_t q = -1;
    // The last pass that visited the row (swept or reused).
    std::uint32_t pass = 0;
  };
  // Indexed by label (diagnostics / the row-reuse tests).
  std::span<const RowState> rows() const { return rows_; }
  // The labels the last pass swept; the other armed rows reused their
  // state.
  std::span<const std::int32_t> swept() const { return swept_; }

 private:
  const NeighborLists& neighbors_;
  const simd::Kernels& kernels_;
  // Width-padded label_rows() of the neighbor lists: row `label` occupies
  // [label * k_pad_, (label + 1) * k_pad_) and holds candidate labels,
  // entries past k duplicate the row's first candidate. Built once per
  // engine.
  std::int32_t k_pad_ = 0;
  std::vector<std::int32_t> ids_pad_;
  std::vector<std::int32_t> cand_dist_pad_;
  // Staging kept current across passes: coordinates, successor lengths,
  // the label route, positions, candidate records, don't-look bits.
  PrunedSweep sweep_;
  std::vector<RowState> rows_;
  // Counts search() calls; starts past RowState::pass + 1 so that no row
  // counts as visited before the first pass.
  std::uint32_t pass_ = 1;
  // This pass's rows to sweep and the sweep kernel's minima for them.
  std::vector<std::int32_t> swept_;
  std::vector<std::int32_t> row_mins_;
  // k_pad_-sized per-row result buffers the cand_row fold kernel writes
  // into, plus its in-kernel row-minimum delta.
  std::vector<std::int32_t> out_delta_;
  std::vector<std::int32_t> out_q_;
  std::int32_t row_min_ = 0;
  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free.
  obs::Counter* pairs_vectorized_ = nullptr;
  obs::Counter* pairs_scalar_tail_ = nullptr;
  obs::Counter* rows_skipped_ = nullptr;
  obs::Counter* rows_reused_ = nullptr;

  // Folds the row of `label` into `best` and sets its don't-look bit when
  // no candidate improves.
  void fold(std::int32_t label, RowState& row, BestMove& best);
};

}  // namespace tspopt
