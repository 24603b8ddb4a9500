#include "solver/engine_factory.hpp"

#include "solver/batch/batch_engine.hpp"
#include "solver/batch/batch_twoopt_gpu.hpp"
#include "solver/twoopt_generic.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_gpu_pruned.hpp"
#include "solver/twoopt_lut.hpp"
#include "solver/twoopt_multi.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_simd_pruned.hpp"
#include "solver/twoopt_tiled.hpp"

namespace tspopt {

namespace {

using Lease = EngineFactory::Lease;

// gpu-small and batch-gpu run the one block kernel, which stages a tour
// per block in shared memory (the paper's ~6k-city Optimization 1 cap);
// the indirect variant also stages the route, so it fits fewer cities.
std::int32_t block_kernel_cap(const simt::Device& device) {
  return TwoOptGpuSmall::max_cities(device);
}
std::int32_t indirect_block_kernel_cap(const simt::Device& device) {
  return TwoOptGpuSmall::max_cities(device, /*preorder_coordinates=*/false);
}
std::int32_t lut_cap(const simt::Device& /*device*/) {
  return DistanceMatrix::kMaxCities;
}

}  // namespace

EngineFactory::EngineFactory(const Instance* instance, std::int32_t k,
                             MultiDeviceOptions multi)
    : instance_(instance),
      k_(k),
      multi_(multi),
      device_(simt::gtx680_cuda()),
      second_device_(simt::gtx680_cuda()) {}

const std::vector<EngineFactory::EngineInfo>& EngineFactory::roster() {
  // batch-simd is cpu-simd run per slot, and batch-gpu launches
  // gpu-small's block kernel with one block per tour, folding the same
  // lexicographic-min BestMove: hence the two batch classes.
  static const std::vector<EngineInfo> infos = {
      {.name = "cpu-sequential",
       .description =
           "single-threaded array-form 2-opt (the paper's CPU baseline)"},
      {.name = "cpu-sequential-indirect",
       .description =
           "single-threaded 2-opt reading coordinates through the tour order"},
      {.name = "cpu-generic",
       .description =
           "single-threaded 2-opt for any TSPLIB metric (incl. EXPLICIT)"},
      {.name = "cpu-simd",
       .description =
           "single-threaded 2-opt over SoA staging with AVX2/FMA row kernels",
       .batch_class = "batch-simd"},
      {.name = "cpu-parallel",
       .description =
           "thread-pool 2-opt with SIMD rows (the paper's multi-core CPU run)"},
      {.name = "cpu-lut",
       .description =
           "single-threaded 2-opt over a precomputed n^2 distance matrix",
       .city_cap = lut_cap},
      {.name = "cpu-pruned",
       .description =
           "k-nearest-neighbor pruned 2-opt (inexact: restricted move set)",
       .uses_k = true},
      {.name = "cpu-simd-pruned",
       .description = "k-NN pruned 2-opt with SIMD candidate rows + "
                      "don't-look bits (inexact: restricted move set)",
       .uses_k = true},
      {.name = "gpu-small",
       .description =
           "one-kernel GPU 2-opt, whole instance staged in shared memory",
       .lease = Lease::kOne, .batch_class = "batch-gpu",
       .city_cap = block_kernel_cap},
      {.name = "gpu-small-indirect",
       .description =
           "gpu-small variant reading coordinates through the device tour",
       .lease = Lease::kOne,
       .city_cap = indirect_block_kernel_cap},
      {.name = "gpu-tiled",
       .description =
           "tiled GPU 2-opt for arbitrary n (paper SIV-B problem division)",
       .lease = Lease::kOne},
      {.name = "gpu-pruned",
       .description = "k-NN pruned 2-opt staging NN lists in shared memory "
                      "+ don't-look bits (inexact: restricted move set)",
       .lease = Lease::kOne, .uses_k = true},
      {.name = "gpu-multi",
       .description =
           "fault-tolerant tiled 2-opt across several devices (paper SVI)",
       .lease = Lease::kMany},
      {.name = "batch-simd",
       .description =
           "many-tour 2-opt: cpu-simd's sweep run on each tour of a TourBatch",
       .batch_class = "batch-simd"},
      {.name = "batch-gpu",
       .description = "many-tour GPU 2-opt, one block per tour with coords "
                      "in shared memory",
       .lease = Lease::kOne, .batch_class = "batch-gpu",
       .city_cap = block_kernel_cap},
  };
  return infos;
}

const EngineFactory::EngineInfo* EngineFactory::find(std::string_view name) {
  for (const EngineInfo& info : roster()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const std::vector<std::string>& EngineFactory::available() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const EngineInfo& info : roster()) out.push_back(info.name);
    return out;
  }();
  return names;
}

std::unique_ptr<TwoOptEngine> EngineFactory::create(
    const std::string& name, std::span<simt::Device* const> devices) {
  simt::Device& device = devices.empty() ? device_ : *devices.front();
  if (name == "cpu-sequential") {
    return std::make_unique<TwoOptSequential>(true);
  }
  if (name == "cpu-sequential-indirect") {
    return std::make_unique<TwoOptSequential>(false);
  }
  if (name == "cpu-generic") {
    return std::make_unique<TwoOptGeneric>();
  }
  if (name == "cpu-simd" || name == "batch-simd") {
    return std::make_unique<TwoOptSimd>(nullptr, nullptr, name);
  }
  if (name == "cpu-parallel") {
    return std::make_unique<TwoOptSimd>(nullptr, &ThreadPool::shared(), name);
  }
  if (name == "cpu-lut") {
    TSPOPT_CHECK_MSG(instance_ != nullptr,
                     "cpu-lut needs the factory's instance");
    if (!lut_) lut_ = std::make_unique<DistanceMatrix>(*instance_);
    return std::make_unique<TwoOptLut>(*lut_);
  }
  if (name == "cpu-pruned") {
    TSPOPT_CHECK_MSG(instance_ != nullptr,
                     "cpu-pruned needs the factory's instance");
    return std::make_unique<TwoOptPruned>(neighbor_lists());
  }
  if (name == "cpu-simd-pruned") {
    TSPOPT_CHECK_MSG(instance_ != nullptr,
                     "cpu-simd-pruned needs the factory's instance for its "
                     "neighbor lists");
    return std::make_unique<TwoOptSimdPruned>(neighbor_lists());
  }
  if (name == "gpu-small" || name == "gpu-small-indirect") {
    return std::make_unique<TwoOptGpuSmall>(device, simt::LaunchConfig{},
                                            name == "gpu-small", name);
  }
  if (name == "batch-gpu") {
    // One tour is one block: the batch kernel's geometry at B = 1.
    simt::LaunchConfig one_block{
        .grid_dim = 1, .block_dim = device.default_config().block_dim};
    return std::make_unique<TwoOptGpuSmall>(device, one_block, true, name);
  }
  if (name == "gpu-tiled") {
    return std::make_unique<TwoOptGpuTiled>(device);
  }
  if (name == "gpu-pruned") {
    TSPOPT_CHECK_MSG(instance_ != nullptr,
                     "gpu-pruned needs the factory's instance for its "
                     "neighbor lists");
    return std::make_unique<TwoOptGpuPruned>(device, neighbor_lists());
  }
  if (name == "gpu-multi") {
    std::vector<simt::Device*> spanned(devices.begin(), devices.end());
    if (spanned.empty()) spanned = {&device_, &second_device_};
    return std::make_unique<TwoOptMultiDevice>(std::move(spanned), 0, multi_);
  }
  TSPOPT_CHECK_MSG(false, "unknown engine: " << name);
  return nullptr;  // unreachable
}

std::unique_ptr<BatchTwoOptEngine> EngineFactory::create_batch(
    const std::string& name, std::span<simt::Device* const> devices) {
  const EngineInfo* info = find(name);
  if (info != nullptr && info->batch_class == name &&
      info->lease != Lease::kNone) {
    return std::make_unique<BatchTwoOptGpu>(devices.empty() ? device_
                                                            : *devices.front());
  }
  return std::make_unique<PerSlotBatchEngine>(create(name, devices));
}

const NeighborLists& EngineFactory::neighbor_lists() {
  TSPOPT_CHECK_MSG(instance_ != nullptr,
                   "neighbor lists need the factory's instance");
  if (!neighbors_) {
    neighbors_ = std::make_unique<NeighborLists>(*instance_, k_);
  }
  return *neighbors_;
}

}  // namespace tspopt
