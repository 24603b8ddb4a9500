#include "solver/twoopt_gpu_pruned.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "solver/pair_index.hpp"
#include "tsp/metric.hpp"

namespace tspopt {

namespace {

struct BlockState {
  // Shared-memory staging of the block's active-row slice. Raw pointers
  // into the arena (see twoopt_tiled.cpp's BlockState for the idiom).
  std::int32_t* p;           // slice_len: tour position per row
  float* xp1;                // slice_len: successor coordinate per row
  float* yp1;
  std::int32_t* slp;         // slice_len: removed successor-edge length
  std::int32_t* nbr_ids;     // slice_len * k: staged NN ids
  std::int32_t* cand_dist;   // slice_len * k: staged candidate lengths
  std::int32_t slice_begin;  // index into the active-row list
  std::int32_t slice_len;
  BestMove block_best;
  std::uint64_t block_checks;
  bool active;
};

// Block b of a launch stages active rows [first_row + b * rows_per_block,
// + rows_per_block) and evaluates their candidates, one thread per
// candidate ordinal (grid-stride). flags[slice_begin + r] records whether
// row r saw an improving candidate — the host's don't-look feedback.
class PrunedKernel {
 public:
  PrunedKernel(std::span<const float> xs, std::span<const float> ys,
               std::span<const std::int32_t> succ_len,
               std::span<const std::int32_t> positions,
               std::span<const std::int32_t> route,
               std::span<const std::int32_t> active,
               std::span<const std::int32_t> ids,
               std::span<const std::int32_t> cand_dist,
               std::span<std::uint8_t> flags, std::span<BestMove> results,
               std::int32_t k, std::int64_t first_row,
               std::int32_t rows_per_block)
      : xs_(xs), ys_(ys), succ_len_(succ_len), positions_(positions),
        route_(route), active_(active), ids_(ids), cand_dist_(cand_dist),
        flags_(flags), results_(results), k_(k), first_row_(first_row),
        rows_per_block_(rows_per_block) {}

  void block_begin(simt::BlockCtx& ctx) const {
    auto* state = ctx.shared->alloc<BlockState>(1).data();
    ctx.state = state;
    std::int64_t begin =
        first_row_ + static_cast<std::int64_t>(ctx.block_idx) * rows_per_block_;
    auto total = static_cast<std::int64_t>(active_.size());
    state->block_best = BestMove{};
    state->block_checks = 0;
    state->active = begin < total;
    if (!state->active) return;
    state->slice_begin = static_cast<std::int32_t>(begin);
    state->slice_len = static_cast<std::int32_t>(
        std::min<std::int64_t>(rows_per_block_, total - begin));
    const std::int32_t len = state->slice_len;
    auto rows = static_cast<std::size_t>(len) * static_cast<std::size_t>(k_);
    state->p = ctx.shared->alloc<std::int32_t>(static_cast<std::size_t>(len))
                   .data();
    state->xp1 =
        ctx.shared->alloc<float>(static_cast<std::size_t>(len)).data();
    state->yp1 =
        ctx.shared->alloc<float>(static_cast<std::size_t>(len)).data();
    state->slp = ctx.shared->alloc<std::int32_t>(static_cast<std::size_t>(len))
                     .data();
    state->nbr_ids = ctx.shared->alloc<std::int32_t>(rows).data();
    state->cand_dist = ctx.shared->alloc<std::int32_t>(rows).data();
    for (std::int32_t r = 0; r < len; ++r) {
      std::int32_t p = active_[static_cast<std::size_t>(state->slice_begin + r)];
      std::int32_t label = route_[static_cast<std::size_t>(p)];
      state->p[r] = p;
      state->xp1[r] = xs_[static_cast<std::size_t>(p) + 1];
      state->yp1[r] = ys_[static_cast<std::size_t>(p) + 1];
      state->slp[r] = succ_len_[static_cast<std::size_t>(p)];
      auto src = static_cast<std::size_t>(label) * static_cast<std::size_t>(k_);
      auto dst = static_cast<std::size_t>(r) * static_cast<std::size_t>(k_);
      for (std::int32_t c = 0; c < k_; ++c) {
        state->nbr_ids[dst + static_cast<std::size_t>(c)] =
            ids_[src + static_cast<std::size_t>(c)];
        state->cand_dist[dst + static_cast<std::size_t>(c)] =
            cand_dist_[src + static_cast<std::size_t>(c)];
      }
    }
    // Staged reads: 4 row-side values + the two k-wide list rows per row.
    ctx.counters->global_reads.fetch_add(
        static_cast<std::uint64_t>(len) * (4 + 2 * static_cast<std::uint64_t>(k_)),
        std::memory_order_relaxed);
  }

  void thread(simt::BlockCtx& ctx, std::uint32_t tid) const {
    auto* state = static_cast<BlockState*>(ctx.state);
    if (!state->active) return;
    const auto stride = static_cast<std::int64_t>(ctx.cfg.block_dim);
    const std::int64_t total =
        static_cast<std::int64_t>(state->slice_len) * k_;
    BestMove local;
    std::uint64_t evaluated = 0;
    std::uint64_t gathers = 0;
    for (std::int64_t idx = tid; idx < total; idx += stride) {
      auto r = static_cast<std::int32_t>(idx / k_);
      auto s = static_cast<std::size_t>(idx);
      std::int32_t nb = state->nbr_ids[s];
      std::int32_t q = positions_[static_cast<std::size_t>(nb)];
      // Candidate-side gathers from global memory: position, successor
      // coordinate, removed successor-edge length.
      std::int32_t d =
          (state->cand_dist[s] +
           dist_euc2d(Point{state->xp1[r], state->yp1[r]},
                      Point{xs_[static_cast<std::size_t>(q) + 1],
                            ys_[static_cast<std::size_t>(q) + 1]})) -
          (state->slp[r] + succ_len_[static_cast<std::size_t>(q)]);
      gathers += 4;
      if (d < 0) {
        flags_[static_cast<std::size_t>(state->slice_begin + r)] = 1;
      }
      std::int32_t p = state->p[r];
      std::int32_t i = p < q ? p : q;
      std::int32_t j = p < q ? q : p;
      if (i != j) consider_move(local, d, pair_index(i, j), i, j);
      ++evaluated;
    }
    state->block_checks += evaluated;
    ctx.counters->global_reads.fetch_add(gathers, std::memory_order_relaxed);
    if (local.better_than(state->block_best)) state->block_best = local;
  }

  void block_end(simt::BlockCtx& ctx) const {
    auto* state = static_cast<BlockState*>(ctx.state);
    results_[ctx.block_idx] = state->block_best;
    if (state->active) {
      ctx.counters->checks.fetch_add(state->block_checks,
                                     std::memory_order_relaxed);
    }
  }

 private:
  std::span<const float> xs_;
  std::span<const float> ys_;
  std::span<const std::int32_t> succ_len_;
  std::span<const std::int32_t> positions_;
  std::span<const std::int32_t> route_;
  std::span<const std::int32_t> active_;
  std::span<const std::int32_t> ids_;
  std::span<const std::int32_t> cand_dist_;
  std::span<std::uint8_t> flags_;
  std::span<BestMove> results_;
  std::int32_t k_;
  std::int64_t first_row_;
  std::int32_t rows_per_block_;
};

// Uploads positions arc.first .. arc.first + arc.count - 1 (mod n) of a
// route-indexed host array into the same elements of `buf`: one transfer,
// or two when the arc wraps past n - 1. With `wrap_entry`, the array has
// n + 1 entries whose last duplicates position 0, and it ships along
// whenever the arc holds position 0.
template <typename T>
void upload_arc(simt::Buffer<T>& buf, std::span<const T> host, std::int32_t n,
                Tour::Arc arc, bool wrap_entry) {
  if (arc.count == 0) return;
  const std::int32_t end = arc.first + arc.count;
  const bool holds_zero = arc.first == 0 || end > n;
  std::int32_t head_end = std::min(end, n);
  if (wrap_entry && holds_zero && head_end == n) ++head_end;
  auto first = static_cast<std::size_t>(arc.first);
  buf.copy_from_host(
      host.subspan(first, static_cast<std::size_t>(head_end) - first), first);
  if (end > n) {
    buf.copy_from_host(host.first(static_cast<std::size_t>(end - n)), 0);
  } else if (wrap_entry && arc.first == 0 && end < n) {
    auto wrap = static_cast<std::size_t>(n);
    buf.copy_from_host(host.subspan(wrap, 1), wrap);
  }
}

}  // namespace

TwoOptGpuPruned::TwoOptGpuPruned(simt::Device& device,
                                 const NeighborLists& neighbors,
                                 simt::LaunchConfig config,
                                 std::int32_t rows_per_block)
    : device_(device),
      neighbors_(neighbors),
      config_(config),
      rows_per_block_(rows_per_block),
      sweep_(neighbors),
      ids_(device, neighbors.ids_flat().size()),
      cand_dist_(device, neighbors.cand_dist_flat().size()),
      xs_(device, 0),
      ys_(device, 0),
      succ_len_d_(device, 0),
      positions_(device, 0),
      route_(device, 0),
      active_(device, 0),
      flags_(device, 0),
      results_(device, 0) {
  if (config_.grid_dim == 0 || config_.block_dim == 0) {
    config_ = device_.default_config();
  }
  std::int32_t cap = max_rows(device_, neighbors_.k());
  TSPOPT_CHECK_MSG(cap >= 1, "neighbor lists too wide for shared memory");
  if (rows_per_block_ <= 0) rows_per_block_ = std::min(cap, 256);
  TSPOPT_CHECK_MSG(rows_per_block_ <= cap,
                   "rows_per_block " << rows_per_block_
                                     << " exceeds shared-memory capacity (max "
                                     << cap << ")");
  // The NN lists are per-instance constants: one upload for the lifetime
  // of the engine, exactly like a real implementation would keep them
  // device-resident across ILS iterations. Rows and ids are in the
  // sweep's labels.
  std::vector<std::int32_t> ids;
  std::vector<std::int32_t> cand_dist;
  label_rows(neighbors_, neighbors_.k(), ids, cand_dist);
  ids_.copy_from_host(ids);
  cand_dist_.copy_from_host(cand_dist);
}

TwoOptGpuPruned::DeviceStaging TwoOptGpuPruned::device_staging() const {
  const auto size = static_cast<std::size_t>(sweep_.positions().size());
  return {xs_.device_view().first(size + 1),
          ys_.device_view().first(size + 1),
          succ_len_d_.device_view().first(size),
          positions_.device_view().first(size),
          route_.device_view().first(size)};
}

std::int32_t TwoOptGpuPruned::max_rows(const simt::Device& device,
                                       std::int32_t k) {
  // Per staged row: position + successor coord pair + removed length
  // (16 B) plus two k-wide int rows; the block state record and one
  // alignment pad per arena allocation come off the top.
  auto capacity = static_cast<std::int64_t>(device.spec().shared_mem_bytes);
  std::int64_t overhead = static_cast<std::int64_t>(sizeof(BlockState)) +
                          7 * static_cast<std::int64_t>(alignof(BlockState));
  std::int64_t per_row = 16 + 8 * static_cast<std::int64_t>(k);
  return static_cast<std::int32_t>((capacity - overhead) / per_row);
}

SearchResult TwoOptGpuPruned::search(const Instance& instance,
                                     const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour);
  TSPOPT_CHECK(neighbors_.n() == tour.n());
  const std::int32_t n = tour.n();
  const std::int32_t k = neighbors_.k();

  sweep_.begin_pass(instance, tour);
  std::span<const std::int32_t> route = sweep_.route();
  const auto m = sweep_.active_rows().size();

  // Device state mirrors the sweep's staging: only what the sweep
  // restaged crosses the bus (everything after a rebuild, the reversed
  // arc's route-indexed entries and its cities' label span of positions
  // after an applied move, nothing for an unchanged tour). The NN lists
  // are already resident.
  const Tour::Arc dirty = sweep_.dirty();
  const SoaCoords& coords = sweep_.coords();
  const auto size = static_cast<std::size_t>(n);
  xs_.ensure_size(size + 1);
  ys_.ensure_size(size + 1);
  succ_len_d_.ensure_size(size);
  positions_.ensure_size(size);
  route_.ensure_size(size);
  upload_arc(xs_, {coords.xs(), size + 1}, n, dirty, true);
  upload_arc(ys_, {coords.ys(), size + 1}, n, dirty, true);
  upload_arc(route_, route, n, dirty, false);
  if (dirty.count > 0) {
    // Successor lengths change over the arc and its predecessor.
    Tour::Arc succ = dirty.count < n
                         ? Tour::Arc{(dirty.first + n - 1) % n, dirty.count + 1}
                         : dirty;
    upload_arc(succ_len_d_, sweep_.succ_len(), n, succ, false);
    // positions() is label-indexed: ship the label span of the arc.
    const auto lo = static_cast<std::size_t>(sweep_.dirty_label_lo());
    const auto hi = static_cast<std::size_t>(sweep_.dirty_label_hi());
    positions_.copy_from_host(sweep_.positions().subspan(lo, hi - lo + 1), lo);
  }
  active_.ensure_size(m);
  active_.copy_from_host(sweep_.active_rows());
  host_flags_.assign(m, 0);
  flags_.ensure_size(m);
  flags_.copy_from_host(host_flags_);
  results_.ensure_size(config_.grid_dim);

  BestMove best;
  const auto blocks_needed = static_cast<std::int64_t>(
      (m + static_cast<std::size_t>(rows_per_block_) - 1) /
      static_cast<std::size_t>(rows_per_block_));
  for (std::int64_t first_block = 0; first_block < blocks_needed;
       first_block += config_.grid_dim) {
    // Views are truncated to this pass's logical sizes: the buffers are
    // grow-only (cudaMalloc-once idiom), so after the active set shrinks
    // the raw buffer still holds last pass's tail rows — the kernel sizes
    // its slices from the span, and must never see those stale entries.
    PrunedKernel kernel(xs_.device_view(), ys_.device_view(),
                        succ_len_d_.device_view(), positions_.device_view(),
                        route_.device_view(), active_.device_view().first(m),
                        ids_.device_view(), cand_dist_.device_view(),
                        flags_.device_view_mutable().first(m),
                        results_.device_view_mutable(), k,
                        first_block * rows_per_block_, rows_per_block_);
    device_.launch(config_, kernel);
    host_results_.resize(config_.grid_dim);
    results_.copy_to_host(host_results_);
    auto batch = std::min<std::int64_t>(config_.grid_dim,
                                        blocks_needed - first_block);
    for (std::int64_t b = 0; b < batch; ++b) {
      if (host_results_[static_cast<std::size_t>(b)].better_than(best)) {
        best = host_results_[static_cast<std::size_t>(b)];
      }
    }
  }

  // Don't-look feedback: rows whose candidates were all non-improving go
  // quiescent until one of their tour edges changes.
  flags_.copy_to_host(host_flags_);
  std::span<const std::int32_t> active = sweep_.active_rows();
  for (std::size_t r = 0; r < m; ++r) {
    if (host_flags_[r] == 0) {
      sweep_.set_dont_look(
          route[static_cast<std::size_t>(active[r])]);
    }
  }

  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    rows_skipped_ =
        &obs::Registry::global().counter("pruned.rows_skipped_dlb");
  }
  // Every candidate evaluates in a SIMT lane (thread = candidate pair), so
  // the whole sweep counts as vectorized work — the device analogue of the
  // CPU kernels' lane accounting.
  std::uint64_t checks = static_cast<std::uint64_t>(m) *
                         static_cast<std::uint64_t>(k);
  pairs_vectorized_->add(checks);
  rows_skipped_->add(sweep_.rows_skipped());

  SearchResult result;
  result.best = best;
  result.checks = checks;
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
