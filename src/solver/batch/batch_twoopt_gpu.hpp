// Batched GPU-style 2-opt: one simt launch, block index = tour id.
//
// The `two_opt_kernel(tours, num_tours, n)` shape: the host concatenates
// every active tour's route-ordered coordinates into one device buffer
// (one H2D copy per pass) and launches gpu-small's block kernel
// (twoopt_gpu.hpp) with one block per tour — T = B tours, K = 1 block
// each — so each block stages ITS tour's coordinates in shared memory
// (the paper's Optimization 1+2, per tour instead of per instance) and
// its threads block-stride the tour's pair triangle. Where the paper's
// one-tour launch leaves a small-n device mostly idle (n=1000 is ~500k
// pairs, a fraction of a launch), B tours per launch give the scheduler B
// blocks of independent work and amortize the launch overhead B ways.
//
// Per-tour results are bit-identical to TwoOptGpuSmall on the same tour:
// both fold every pair of the triangle through the shared consider_move /
// better_than lexicographic reduction, which is visit-order independent.
#pragma once

#include <vector>

#include "simt/device.hpp"
#include "solver/batch/batch_engine.hpp"
#include "tsp/point.hpp"

namespace tspopt {

class BatchTwoOptGpu : public BatchTwoOptEngine {
 public:
  // `config`: launch geometry override; a zero block_dim means "use the
  // device default". grid_dim is always the batch's active-tour count
  // (block = tour), so any configured grid_dim is ignored. The per-tour
  // city cap is TwoOptGpuSmall::max_cities.
  explicit BatchTwoOptGpu(simt::Device& device, simt::LaunchConfig config = {});

  std::string name() const override { return "batch-gpu"; }

  BatchSearchResult search(TourBatch& batch) override;

  simt::Device& device() { return device_; }

 private:
  simt::Device& device_;
  simt::LaunchConfig config_;
  std::vector<Point> ordered_;        // concatenated route-ordered coords
  std::vector<std::int32_t> slots_;   // block index -> batch slot
  std::vector<BestMove> best_;        // block index -> best move
};

}  // namespace tspopt
