#include "solver/twoopt_tiled.hpp"

#include <algorithm>
#include <atomic>

#include "common/timer.hpp"
#include "solver/ordering.hpp"
#include "solver/pair_index.hpp"

namespace tspopt {

// One tile of the pair triangle: i in [a_start, a_start+a_len),
// j in [b_start, b_start+b_len), with the extra constraint i < j when the
// tile sits on the diagonal (a_start == b_start).
struct TileDesc {
  std::int32_t a_start = 0;
  std::int32_t a_len = 0;
  std::int32_t b_start = 0;
  std::int32_t b_len = 0;

  bool diagonal() const { return a_start == b_start; }
  std::int64_t local_pairs() const {
    return diagonal() ? static_cast<std::int64_t>(a_len) * (a_len - 1) / 2
                      : static_cast<std::int64_t>(a_len) * b_len;
  }
};

namespace {

struct BlockState {
  // SoA staging of the two ranges: a_len + 1 / b_len + 1 coordinates
  // (successor included), split into contiguous xs/ys arrays so the row
  // kernels issue W-wide vector loads against them. Raw pointers, not
  // spans: this record lives in shared memory and its size eats into the
  // stageable tile height (lengths are in `tile` already).
  float* xs_a;
  float* ys_a;
  float* xs_b;
  float* ys_b;
  TileDesc tile;
  BestMove block_best;
  std::uint64_t block_checks;
  bool active;
};

// The two-range tiled kernel. Block b of a launch handles tile
// `first_tile + b` of the tile list; surplus blocks idle (Fig. 8: "run as
// few blocks as possible / skip unnecessary computation"). Within a block,
// thread tid owns the tile rows jj ≡ tid (mod block_dim); each row is one
// Listing-2 two-range sweep evaluated W pairs per step by the dispatched
// SIMD row kernel.
class TiledKernel {
 public:
  TiledKernel(std::span<const Point> global_coords,
              std::span<const TileDesc> tiles, std::uint64_t first_tile,
              std::span<BestMove> results, const simd::Kernels& kernels)
      : global_coords_(global_coords),
        tiles_(tiles),
        first_tile_(first_tile),
        results_(results),
        kernels_(kernels) {}

  void block_begin(simt::BlockCtx& ctx) const {
    auto* state = ctx.shared->alloc<BlockState>(1).data();
    ctx.state = state;
    std::uint64_t t = first_tile_ + ctx.block_idx;
    state->active = t < tiles_.size();
    state->block_best = BestMove{};
    state->block_checks = 0;
    if (!state->active) return;
    state->tile = tiles_[t];
    const auto n = static_cast<std::int32_t>(global_coords_.size());
    auto stage = [&](std::int32_t start, std::int32_t len) {
      auto xs = ctx.shared->alloc<float>(static_cast<std::size_t>(len) + 1);
      auto ys = ctx.shared->alloc<float>(static_cast<std::size_t>(len) + 1);
      for (std::int32_t p = 0; p <= len; ++p) {
        // The +1 successor entry wraps to position 0 at the tour end.
        const Point& pt = global_coords_[static_cast<std::size_t>(
            (start + p) % n)];
        xs[static_cast<std::size_t>(p)] = pt.x;
        ys[static_cast<std::size_t>(p)] = pt.y;
      }
      ctx.counters->global_reads.fetch_add(static_cast<std::uint64_t>(len) + 1,
                                           std::memory_order_relaxed);
      return std::pair{xs.data(), ys.data()};
    };
    std::tie(state->xs_a, state->ys_a) =
        stage(state->tile.a_start, state->tile.a_len);
    if (state->tile.diagonal()) {
      state->xs_b = state->xs_a;
      state->ys_b = state->ys_a;
    } else {
      std::tie(state->xs_b, state->ys_b) =
          stage(state->tile.b_start, state->tile.b_len);
    }
  }

  void thread(simt::BlockCtx& ctx, std::uint32_t tid) const {
    auto* state = static_cast<BlockState*>(ctx.state);
    if (!state->active) return;
    const TileDesc& tile = state->tile;
    const auto stride = static_cast<std::int32_t>(ctx.cfg.block_dim);
    // Diagonal tiles have no pairs in row 0 (i < j within the range).
    const std::int32_t first_row = tile.diagonal() ? 1 : 0;
    const float* xs_a = state->xs_a;
    const float* ys_a = state->ys_a;
    const float* xs_b = state->xs_b;
    const float* ys_b = state->ys_b;
    BestMove local;
    std::uint64_t evaluated = 0;
    for (std::int32_t jj = first_row + static_cast<std::int32_t>(tid);
         jj < tile.b_len; jj += stride) {
      const std::int32_t row_len = tile.diagonal() ? jj : tile.a_len;
      // No staged successor lengths or tiles: shared memory holds only
      // the two coordinate ranges, so the kernel's reach filter derives
      // |i, i+1| from them and tests pairs, never whole tiles.
      simd::RowArgs row{xs_a,
                        ys_a,
                        0,
                        row_len,
                        xs_b[jj],
                        ys_b[jj],
                        xs_b[jj + 1],
                        ys_b[jj + 1]};
      simd::RowBest rb = kernels_.row(row);
      if (rb.found()) {
        std::int32_t i = tile.a_start + rb.i;
        std::int32_t j = tile.b_start + jj;
        consider_move(local, rb.delta, pair_index(i, j), i, j);
      }
      evaluated += static_cast<std::uint64_t>(row_len);
    }
    state->block_checks += evaluated;
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
  std::span<const Point> global_coords_;
  std::span<const TileDesc> tiles_;
  std::uint64_t first_tile_;
  std::span<BestMove> results_;
  const simd::Kernels& kernels_;
};

// Rebuilds `out` in place (capacity reused across passes).
void make_tiles(std::int32_t n, std::int32_t tile,
                std::vector<TileDesc>& out) {
  out.clear();
  auto ranges = static_cast<std::int32_t>((n + tile - 1) / tile);
  for (std::int32_t a = 0; a < ranges; ++a) {
    std::int32_t a_start = a * tile;
    std::int32_t a_len = std::min(tile, n - a_start);
    for (std::int32_t b = a; b < ranges; ++b) {
      std::int32_t b_start = b * tile;
      std::int32_t b_len = std::min(tile, n - b_start);
      out.push_back({a_start, a_len, b_start, b_len});
    }
  }
}

}  // namespace

TwoOptGpuTiled::TwoOptGpuTiled(simt::Device& device, std::int32_t tile,
                               simt::LaunchConfig config, std::uint32_t part,
                               std::uint32_t parts,
                               const simd::Kernels* kernels)
    : device_(device), tile_(tile), config_(config), part_(part),
      parts_(parts),
      kernels_(kernels != nullptr ? *kernels : simd::active()),
      coords_(device, 0), results_(device, 0) {
  TSPOPT_CHECK(parts_ >= 1 && part_ < parts_);
  if (config_.grid_dim == 0 || config_.block_dim == 0) {
    config_ = device_.default_config();
  }
  std::int32_t cap = max_tile(device_);
  if (tile_ <= 0) tile_ = cap;
  TSPOPT_CHECK_MSG(tile_ <= cap, "tile " << tile_ << " exceeds shared-memory"
                                         << " capacity (max " << cap << ")");
  TSPOPT_CHECK(tile_ >= 2);
}

TwoOptGpuTiled::~TwoOptGpuTiled() = default;

std::int32_t TwoOptGpuTiled::max_tile(const simt::Device& device) {
  // Two ranges of (tile + 1) coordinates plus the block state must fit.
  auto capacity = static_cast<std::int64_t>(device.spec().shared_mem_bytes);
  std::int64_t overhead = static_cast<std::int64_t>(sizeof(BlockState)) +
                          3 * static_cast<std::int64_t>(alignof(BlockState));
  return static_cast<std::int32_t>((capacity - overhead) / 2 /
                                       static_cast<std::int64_t>(sizeof(Point)) -
                                   1);
}

std::uint64_t TwoOptGpuTiled::launches_for(std::int32_t n) const {
  auto ranges = static_cast<std::uint64_t>((n + tile_ - 1) / tile_);
  std::uint64_t tiles = ranges * (ranges + 1) / 2;
  return (tiles + config_.grid_dim - 1) / config_.grid_dim;
}

SearchResult TwoOptGpuTiled::search(const Instance& instance,
                                    const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour, kernels_.width);
  const std::int32_t n = tour.n();

  order_coordinates(instance, tour, ordered_);
  coords_.ensure_size(ordered_.size());
  coords_.copy_from_host(ordered_);

  make_tiles(n, tile_, tiles_);
  if (parts_ > 1) {
    // Round-robin tile ownership across devices: contiguous tiles differ
    // wildly in size (diagonal triangles vs full rectangles), so striding
    // balances the per-device work without a scheduler. Compacted in
    // place to keep the pass allocation-free.
    std::size_t kept = 0;
    for (std::size_t t = part_; t < tiles_.size(); t += parts_) {
      tiles_[kept++] = tiles_[t];
    }
    tiles_.resize(kept);
  }
  results_.ensure_size(config_.grid_dim);

  BestMove best;
  // 64-bit launch cursor: at small tiles and paper-scale n the tile count
  // overflows 32 bits (n = 744710, tile = 2 -> ~6.9e10 tiles).
  for (std::uint64_t first = 0; first < tiles_.size();
       first += config_.grid_dim) {
    // coords_ is grow-only across searches; truncate the view to this
    // instance's n + 1 staged entries so the kernel's wrap arithmetic
    // (which derives n from the span) never sees a stale larger size
    // after a smaller instance follows a bigger one.
    TiledKernel kernel(coords_.device_view().first(ordered_.size()), tiles_,
                       first, results_.device_view_mutable(), kernels_);
    device_.launch(config_, kernel);
    host_results_.resize(config_.grid_dim);
    results_.copy_to_host(host_results_);
    auto batch =
        std::min<std::uint64_t>(config_.grid_dim, tiles_.size() - first);
    for (std::size_t b = 0; b < batch; ++b) {
      if (host_results_[b].better_than(best)) best = host_results_[b];
    }
  }

  // SIMD coverage accounting, derived analytically from the tile geometry
  // (the kernel sweeps every tile row through the W-wide kernel, so the
  // split is a function of row lengths alone — keeping it out of the
  // kernel keeps BlockState small, and shared memory is tile budget).
  std::uint64_t covered = 0;
  std::uint64_t vectorized = 0;
  for (const TileDesc& t : tiles_) {
    covered += static_cast<std::uint64_t>(t.local_pairs());
    if (t.diagonal()) {
      for (std::int32_t jj = 1; jj < t.a_len; ++jj) {
        vectorized += static_cast<std::uint64_t>(kernels_.vector_pairs(jj));
      }
    } else {
      vectorized += static_cast<std::uint64_t>(t.b_len) *
                    static_cast<std::uint64_t>(kernels_.vector_pairs(t.a_len));
    }
  }
  if (pairs_vectorized_ == nullptr) {
    pairs_vectorized_ =
        &obs::Registry::global().counter("twoopt.pairs_vectorized");
    pairs_scalar_tail_ =
        &obs::Registry::global().counter("twoopt.pairs_scalar_tail");
  }
  pairs_vectorized_->add(vectorized);
  pairs_scalar_tail_->add(covered - vectorized);

  SearchResult result;
  result.best = best;
  result.checks = covered;  // == pair_count(n) when parts == 1
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
