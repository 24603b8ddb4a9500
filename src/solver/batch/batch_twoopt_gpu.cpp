#include "solver/batch/batch_twoopt_gpu.hpp"

#include "common/timer.hpp"
#include "solver/pair_index.hpp"
#include "solver/twoopt_gpu.hpp"

namespace tspopt {

BatchTwoOptGpu::BatchTwoOptGpu(simt::Device& device, simt::LaunchConfig config)
    : device_(device), config_(config) {
  if (config_.block_dim == 0) {
    config_.block_dim = device_.default_config().block_dim;
  }
}

BatchSearchResult BatchTwoOptGpu::search(TourBatch& batch) {
  WallTimer timer;
  obs::Span span = batch_pass_span(*this, batch);
  const std::int32_t n = batch.n();
  const Instance& instance = batch.instance();
  TSPOPT_CHECK_MSG(n <= TwoOptGpuSmall::max_cities(device_),
                   "tour too large for the batch kernel ("
                       << n << " > " << TwoOptGpuSmall::max_cities(device_)
                       << " cities per block)");
  TSPOPT_CHECK_MSG(instance.has_coordinates(),
                   "batch-gpu requires a coordinate-based instance");

  BatchSearchResult out;
  out.per_tour.resize(static_cast<std::size_t>(batch.size()));

  // Compact the active slots into block order and concatenate their
  // route-ordered coordinates (Optimization 2 per tour, one H2D copy).
  slots_.clear();
  for (std::int32_t b = 0; b < batch.size(); ++b) {
    if (batch.active(b)) slots_.push_back(b);
  }
  if (slots_.empty()) {
    out.wall_seconds = timer.seconds();
    return out;
  }
  ordered_.resize(slots_.size() * static_cast<std::size_t>(n));
  std::span<const Point> pts = instance.points();
  for (std::size_t block = 0; block < slots_.size(); ++block) {
    std::span<const std::int32_t> route = batch.tour(slots_[block]).order();
    Point* dst = ordered_.data() + block * static_cast<std::size_t>(n);
    for (std::size_t p = 0; p < route.size(); ++p) {
      dst[p] = pts[static_cast<std::size_t>(route[p])];
    }
  }

  simt::LaunchConfig cfg = config_;
  cfg.grid_dim = static_cast<std::uint32_t>(slots_.size());  // block = tour
  best_.resize(slots_.size());
  launch_block_kernel(device_, cfg, ordered_, {}, n, best_);

  const auto total = static_cast<std::uint64_t>(pair_count(n));
  for (std::size_t block = 0; block < slots_.size(); ++block) {
    SearchResult& slot =
        out.per_tour[static_cast<std::size_t>(slots_[block])];
    slot.best = best_[block];
    slot.checks = total;
    out.checks += total;
  }
  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace tspopt
