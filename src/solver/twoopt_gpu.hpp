// GPU-style 2-opt pass for small instances (paper §IV-A, Algorithm 2).
//
// Host side: pre-order the coordinates into route order (Optimization 2)
// and copy them to the device once per pass. Device side: every block
// cooperatively stages the whole coordinate array in its shared memory
// (Optimization 1), then its threads walk the linearized pair triangle
// with a grid stride — "each thread checks assigned cell number and then
// jumps blocks*threads distance iter times" — keeping a running best that
// is reduced per block and finally on the host.
//
// The shared-memory capacity bounds the instance size exactly as on the
// paper's GTX 680: 48 kB holds ~6136 float2 coordinates plus the block
// reduction record (the paper quotes 6144 ignoring the reduction storage).
// Larger instances must use TwoOptGpuTiled.
//
// The same block kernel also serves batch-gpu (batch_twoopt_gpu.hpp):
// block-per-tour is a launch geometry, not a second kernel. A launch
// covers T tours with K blocks per tour; block b stages tour b / K and its
// threads start at (b % K) * blockDim + tid, striding K * blockDim.
// gpu-small is T = 1, K = gridDim (the paper's grid stride); batch-gpu is
// T = B, K = 1 (a block stride over the block's own tour), which on one
// tour is this engine at grid_dim = 1 (the factory's single-tour
// batch-gpu).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "simt/device.hpp"
#include "solver/engine.hpp"
#include "tsp/point.hpp"

namespace tspopt {

// One launch of the block kernel over T = best.size() tours of n cities
// each, K = config.grid_dim / T blocks per tour. With an empty `route`,
// `coords` holds the T tours' route-ordered coordinates back to back
// (Optimization 2); otherwise it holds the n city-indexed coordinates and
// `route` the T tour orders back to back, read through on every access
// (Fig. 5). Uploads both arrays, launches once, reads back one record per
// block and writes tour t's best move to best[t].
void launch_block_kernel(simt::Device& device, const simt::LaunchConfig& config,
                         std::span<const Point> coords,
                         std::span<const std::int32_t> route, std::int32_t n,
                         std::span<BestMove> best);

class TwoOptGpuSmall : public TwoOptEngine {
 public:
  // `config`: launch geometry override; zero grid/block dims mean "use the
  // device default" (the paper's SM-count x 1024).
  //
  // `preorder_coordinates` toggles Optimization 2. With it OFF the kernel
  // is the paper's Fig. 5 variant: it stages BOTH the route array and the
  // city-indexed coordinate array in shared memory and dereferences
  // route[p] on every read — 12 bytes/city instead of 8, which lowers the
  // shared-memory city limit from ~6136 to ~4090 and adds the extra
  // indirection the paper's four Opt.-2 benefits eliminate. Results are
  // identical either way.
  //
  // `name` is the roster name; empty means "gpu-small" or
  // "gpu-small-indirect" by `preorder_coordinates`.
  explicit TwoOptGpuSmall(simt::Device& device, simt::LaunchConfig config = {},
                          bool preorder_coordinates = true,
                          std::string name = "");

  std::string name() const override { return name_; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

  // Largest per-tour n the block kernel accepts on `device` (shared-memory
  // bound), for gpu-small and batch-gpu alike; the indirect
  // (non-preordered) variant fits fewer cities.
  static std::int32_t max_cities(const simt::Device& device,
                                 bool preorder_coordinates = true);

 private:
  simt::Device& device_;
  simt::LaunchConfig config_;
  bool preorder_;
  std::string name_;
  std::vector<Point> ordered_;
};

}  // namespace tspopt
