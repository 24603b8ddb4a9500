#include "solver/twoopt_gpu.hpp"

#include <atomic>
#include <cstring>
#include <utility>

#include "common/timer.hpp"
#include "simt/buffer.hpp"
#include "solver/delta.hpp"
#include "solver/ordering.hpp"

namespace tspopt {

namespace {

// Per-block state living in the shared-memory arena: one tour's staged
// coordinates (and its route, indirect variant only) plus the block
// reduction slot. Its size is part of max_cities' budget.
struct BlockState {
  Point* coords;               // staged coordinates, n entries
  std::int32_t* route;         // staged route (indirect variant only)
  BestMove block_best;         // shared-memory reduction slot
  std::uint64_t block_checks;  // pairs evaluated by this block
};

// The block kernel (Algorithm 2 steps 3-5) over T tours x K blocks per
// tour (see twoopt_gpu.hpp). With Preorder the staged coordinates are
// already in route order (Optimization 2, Fig. 6); without it the kernel
// stages route + city-indexed coordinates and dereferences route[p] per
// read (Fig. 5).
template <bool Preorder>
class BlockKernel {
 public:
  BlockKernel(std::span<const Point> global_coords,
              std::span<const std::int32_t> global_route, std::int32_t n,
              std::uint32_t blocks_per_tour, std::span<BestMove> results)
      : global_coords_(global_coords),
        global_route_(global_route),
        n_(n),
        blocks_per_tour_(blocks_per_tour),
        results_(results) {}

  void block_begin(simt::BlockCtx& ctx) const {
    const auto count = static_cast<std::size_t>(n_);
    const std::size_t slice = (ctx.block_idx / blocks_per_tour_) * count;
    auto* state = ctx.shared->alloc<BlockState>(1).data();
    state->coords = ctx.shared->alloc<Point>(count).data();
    state->route = nullptr;
    state->block_best = BestMove{};
    state->block_checks = 0;
    // Cooperative load of this block's tour: one pass over global memory
    // per block (the paper's point — the O(n^2) pair loop then never
    // touches global memory).
    std::span<const Point> coords =
        Preorder ? global_coords_.subspan(slice, count) : global_coords_;
    std::memcpy(state->coords, coords.data(), count * sizeof(Point));
    std::uint64_t loaded = count;
    if constexpr (!Preorder) {
      state->route = ctx.shared->alloc<std::int32_t>(count).data();
      std::memcpy(state->route, global_route_.subspan(slice, count).data(),
                  count * sizeof(std::int32_t));
      loaded += count;
    }
    ctx.counters->global_reads.fetch_add(loaded, std::memory_order_relaxed);
    ctx.state = state;
  }

  void thread(simt::BlockCtx& ctx, std::uint32_t tid) const {
    auto* state = static_cast<BlockState*>(ctx.state);
    const std::span<const Point> coords(state->coords,
                                        static_cast<std::size_t>(n_));
    const std::int32_t* route = state->route;
    const std::int64_t total = pair_count(n_);
    // Grid-stride walk over the linearized triangle within the tour's K
    // blocks, exactly the paper's access pattern when K = gridDim: "each
    // thread checks assigned cell number and then jumps blocks*threads
    // distance iter times". The (i, j) coordinates are advanced
    // incrementally instead of re-running the triangular root at every
    // jump.
    const std::uint64_t stride =
        static_cast<std::uint64_t>(blocks_per_tour_) * ctx.cfg.block_dim;
    const std::uint64_t first =
        static_cast<std::uint64_t>(ctx.block_idx % blocks_per_tour_) *
            ctx.cfg.block_dim +
        tid;
    BestMove local;
    std::uint64_t evaluated = 0;
    if (first < static_cast<std::uint64_t>(total)) {
      PairIJ p = pair_from_index(static_cast<std::int64_t>(first));
      for (std::uint64_t k = first;;) {
        std::int32_t d;
        if constexpr (Preorder) {
          d = two_opt_delta(coords, p.i, p.j);
        } else {
          // Fig. 5: every coordinate read goes through the route array.
          auto at = [&](std::int32_t pos) -> const Point& {
            return coords[static_cast<std::size_t>(route[pos])];
          };
          d = two_opt_delta_two_ranges(at(p.i), at(p.i + 1), at(p.j),
                                       at((p.j + 1) % n_));
        }
        consider_move(local, d, static_cast<std::int64_t>(k), p.i, p.j);
        ++evaluated;
        k += stride;
        if (k >= static_cast<std::uint64_t>(total)) break;
        pair_advance(p, static_cast<std::int64_t>(stride));
      }
    }
    state->block_checks += evaluated;
    // Block-level reduction slot (a shared-memory atomicMin on hardware;
    // tids within a block are serialized here, so a plain update is the
    // same operation).
    if (local.better_than(state->block_best)) state->block_best = local;
  }

  void block_end(simt::BlockCtx& ctx) const {
    auto* state = static_cast<BlockState*>(ctx.state);
    results_[ctx.block_idx] = state->block_best;
    ctx.counters->checks.fetch_add(state->block_checks,
                                   std::memory_order_relaxed);
  }

 private:
  std::span<const Point> global_coords_;
  std::span<const std::int32_t> global_route_;
  std::int32_t n_;
  std::uint32_t blocks_per_tour_;
  std::span<BestMove> results_;
};

}  // namespace

void launch_block_kernel(simt::Device& device, const simt::LaunchConfig& config,
                         std::span<const Point> coords,
                         std::span<const std::int32_t> route, std::int32_t n,
                         std::span<BestMove> best) {
  const auto tours = static_cast<std::uint32_t>(best.size());
  TSPOPT_CHECK(tours > 0 && config.grid_dim % tours == 0);
  const auto count = static_cast<std::size_t>(n);
  TSPOPT_CHECK(route.empty() ? coords.size() == tours * count
                             : coords.size() == count &&
                                   route.size() == tours * count);
  const std::uint32_t blocks_per_tour = config.grid_dim / tours;

  simt::Buffer<Point> device_coords(device, coords.size());
  device_coords.copy_from_host(coords);
  simt::Buffer<BestMove> results(device, config.grid_dim);
  if (route.empty()) {
    BlockKernel<true> kernel(device_coords.device_view(), {}, n,
                             blocks_per_tour, results.device_view_mutable());
    device.launch(config, kernel);
  } else {
    // No pre-ordering: the route ships too (what Opt.-2 benefit #2 saves).
    simt::Buffer<std::int32_t> device_route(device, route.size());
    device_route.copy_from_host(route);
    BlockKernel<false> kernel(device_coords.device_view(),
                              device_route.device_view(), n, blocks_per_tour,
                              results.device_view_mutable());
    device.launch(config, kernel);
  }

  // Host: read back the per-block records and finish each tour's
  // reduction over its K blocks (Algorithm 2 step 6).
  std::vector<BestMove> blocks(config.grid_dim);
  results.copy_to_host(blocks);
  for (std::uint32_t t = 0; t < tours; ++t) {
    BestMove& tour_best = best[t];
    tour_best = BestMove{};
    for (std::uint32_t b = t * blocks_per_tour; b < (t + 1) * blocks_per_tour;
         ++b) {
      if (blocks[b].better_than(tour_best)) tour_best = blocks[b];
    }
  }
}

TwoOptGpuSmall::TwoOptGpuSmall(simt::Device& device, simt::LaunchConfig config,
                               bool preorder_coordinates, std::string name)
    : device_(device),
      config_(config),
      preorder_(preorder_coordinates),
      name_(!name.empty()            ? std::move(name)
            : preorder_coordinates ? "gpu-small"
                                   : "gpu-small-indirect") {
  if (config_.grid_dim == 0 || config_.block_dim == 0) {
    config_ = device_.default_config();
  }
}

std::int32_t TwoOptGpuSmall::max_cities(const simt::Device& device,
                                        bool preorder_coordinates) {
  auto capacity = static_cast<std::int64_t>(device.spec().shared_mem_bytes);
  std::int64_t overhead = static_cast<std::int64_t>(sizeof(BlockState)) +
                          2 * static_cast<std::int64_t>(alignof(BlockState));
  std::int64_t per_city = static_cast<std::int64_t>(sizeof(Point)) +
                          (preorder_coordinates
                               ? 0
                               : static_cast<std::int64_t>(sizeof(std::int32_t)));
  return static_cast<std::int32_t>((capacity - overhead) / per_city);
}

SearchResult TwoOptGpuSmall::search(const Instance& instance,
                                    const Tour& tour) {
  WallTimer timer;
  obs::Span span = pass_span(*this, tour);
  const std::int32_t n = tour.n();
  TSPOPT_CHECK_MSG(n <= max_cities(device_, preorder_),
                   "instance too large for the single-range kernel ("
                       << n << " > " << max_cities(device_, preorder_)
                       << " cities); use TwoOptGpuTiled");
  TSPOPT_CHECK_MSG(instance.has_coordinates() && instance.n() == n,
                   "coordinate instance of matching size required");

  SearchResult result;
  if (preorder_) {
    // Host: Optimization 2, then the explicit H2D copy (Alg. 2 step 1).
    // Benefit #2 of the pre-ordering: no route array ships to the device.
    order_coordinates(instance, tour, ordered_);
    launch_block_kernel(device_, config_, ordered_, {}, n,
                        {&result.best, 1});
  } else {
    launch_block_kernel(device_, config_, instance.points(), tour.order(), n,
                        {&result.best, 1});
  }
  result.checks = static_cast<std::uint64_t>(pair_count(n));
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace tspopt
