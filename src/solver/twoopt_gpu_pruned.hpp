// GPU-style candidate-list 2-opt — the paper's §VII neighborhood
// restriction mapped onto the simt execution model, after Snippet 3's
// `opt2` kernel (GPUBasedACS): NN lists in shared memory, don't-look bits
// on the host.
//
// The pair space is the active city-rows' candidate lists, O(m * k) for m
// active rows instead of the tiled engine's n(n-1)/2. Each block owns a
// contiguous slice of the active-row list and cooperatively stages that
// slice's working set in SharedMemory: the per-row SoA coords it reuses k
// times (successor coordinate, removed successor-edge length, tour
// position) and the slice's rows of the NN lists (neighbor ids +
// precomputed candidate-edge lengths, NeighborLists' flat SoA export).
// Each thread then grid-strides over the slice's row x candidate ordinals
// — thread = candidate pair, the natural SIMT shape for a k-wide row —
// gathering only the candidate-side position/coordinate/edge terms from
// global buffers. Per-thread best moves reduce through the same
// (delta, pair-index) rule as every engine; per-row improved flags are
// written back so the host can set don't-look bits, keeping this engine's
// move selection bit-identical to cpu-simd-pruned pass after pass (the
// shared PrunedSweep policy) and to cpu-pruned on full sweeps.
//
// NN lists are uploaded once at construction (they are per-instance
// constants). The position-indexed arrays stay device-resident too: per
// pass the host ships only what PrunedSweep restaged — the route-indexed
// arrays over the reversed arc after an applied 2-opt move, all of it
// after a rebuild, and the label span of the restaged cities' positions
// (spatial labels, so a few times the arc rather than ~n) — plus the
// active-row list. The NN rows, their ids, the route and the positions
// are all in PrunedSweep's labels; the kernel only indexes with them.
// Launches go through the normal Device plumbing — launch spans, fault
// injection, transfer/read counters — and device buffers are grow-only,
// so steady-state passes do not allocate.
#pragma once

#include <vector>

#include "obs/registry.hpp"
#include "simt/buffer.hpp"
#include "simt/device.hpp"
#include "solver/engine.hpp"
#include "solver/pruned_sweep.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {

class TwoOptGpuPruned : public TwoOptEngine {
 public:
  // `neighbors` must outlive the engine and match the instances searched.
  // `rows_per_block == 0` picks the largest slice the device's shared
  // memory can stage (capped at 256 so small instances still spread over
  // the grid).
  explicit TwoOptGpuPruned(simt::Device& device,
                           const NeighborLists& neighbors,
                           simt::LaunchConfig config = {},
                           std::int32_t rows_per_block = 0);

  std::string name() const override { return "gpu-pruned"; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

  // Largest active-row slice a block can stage for lists of size k.
  static std::int32_t max_rows(const simt::Device& device, std::int32_t k);

  std::int32_t rows_per_block() const { return rows_per_block_; }

  // The persistent don't-look sweep state (diagnostics / the pruned
  // equivalence suite, which asserts the backends' states stay in
  // lockstep across a descent).
  const PrunedSweep& sweep() const { return sweep_; }

  // The device-resident copy of the sweep's staging (route-ordered
  // coordinates with the wrap entry, successor lengths, label-indexed
  // positions, label route),
  // truncated to the current n. After every pass it equals the host
  // staging; the equivalence suite checks that.
  struct DeviceStaging {
    std::span<const float> xs;
    std::span<const float> ys;
    std::span<const std::int32_t> succ_len;
    std::span<const std::int32_t> positions;
    std::span<const std::int32_t> route;
  };
  DeviceStaging device_staging() const;

 private:
  simt::Device& device_;
  const NeighborLists& neighbors_;
  simt::LaunchConfig config_;
  std::int32_t rows_per_block_;
  PrunedSweep sweep_;
  std::vector<BestMove> host_results_;
  std::vector<std::uint8_t> host_flags_;
  // Per-instance constants, uploaded once at construction.
  simt::Buffer<std::int32_t> ids_;
  simt::Buffer<std::int32_t> cand_dist_;
  // Mirror of the sweep's staging, updated over what each pass restaged
  // (grow-only), then the per-pass active rows and results.
  simt::Buffer<float> xs_;
  simt::Buffer<float> ys_;
  simt::Buffer<std::int32_t> succ_len_d_;
  simt::Buffer<std::int32_t> positions_;
  simt::Buffer<std::int32_t> route_;
  simt::Buffer<std::int32_t> active_;
  simt::Buffer<std::uint8_t> flags_;  // per active row: improving seen
  simt::Buffer<BestMove> results_;
  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free.
  obs::Counter* pairs_vectorized_ = nullptr;
  obs::Counter* rows_skipped_ = nullptr;
};

}  // namespace tspopt
