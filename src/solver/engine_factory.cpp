#include "solver/engine_factory.hpp"

#include "solver/batch/batch_engine.hpp"
#include "solver/batch/batch_twoopt_gpu.hpp"
#include "solver/twoopt_generic.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_gpu_pruned.hpp"
#include "solver/twoopt_lut.hpp"
#include "solver/twoopt_multi.hpp"
#include "solver/twoopt_parallel.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_simd_pruned.hpp"
#include "solver/twoopt_tiled.hpp"

namespace tspopt {

namespace {

// batch-simd is cpu-simd run on each slot of a batch, under its own
// roster name.
class BatchSimd : public TwoOptSimd {
 public:
  std::string name() const override { return "batch-simd"; }
};

}  // namespace

EngineFactory::EngineFactory(const Instance* instance, std::int32_t k,
                             MultiDeviceOptions multi)
    : instance_(instance),
      k_(k),
      multi_(multi),
      device_(simt::gtx680_cuda()),
      second_device_(simt::gtx680_cuda()) {}

const std::vector<EngineFactory::EngineInfo>& EngineFactory::roster() {
  static const std::vector<EngineInfo> infos = {
      {"cpu-sequential",
       "single-threaded array-form 2-opt (the paper's CPU baseline)"},
      {"cpu-sequential-indirect",
       "single-threaded 2-opt reading coordinates through the tour order"},
      {"cpu-generic",
       "single-threaded 2-opt for any TSPLIB metric (incl. EXPLICIT)"},
      {"cpu-simd",
       "single-threaded 2-opt over SoA staging with AVX2/FMA row kernels"},
      {"cpu-parallel",
       "thread-pool 2-opt with SIMD rows (the paper's multi-core CPU run)"},
      {"cpu-lut",
       "single-threaded 2-opt over a precomputed n^2 distance matrix"},
      {"cpu-pruned",
       "k-nearest-neighbor pruned 2-opt (inexact: restricted move set)"},
      {"cpu-simd-pruned",
       "k-NN pruned 2-opt with SIMD candidate rows + don't-look bits "
       "(inexact: restricted move set)"},
      {"gpu-small",
       "one-kernel GPU 2-opt, whole instance staged in shared memory"},
      {"gpu-small-indirect",
       "gpu-small variant reading coordinates through the device tour"},
      {"gpu-tiled",
       "tiled GPU 2-opt for arbitrary n (paper SIV-B problem division)"},
      {"gpu-pruned",
       "k-NN pruned 2-opt staging NN lists in shared memory + don't-look "
       "bits (inexact: restricted move set)"},
      {"gpu-multi",
       "fault-tolerant tiled 2-opt across several devices (paper SVI)"},
      {"batch-simd",
       "many-tour 2-opt: cpu-simd's sweep run on each tour of a TourBatch"},
      {"batch-gpu",
       "many-tour GPU 2-opt, one block per tour with coords in shared "
       "memory"},
  };
  return infos;
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
  if (name == "cpu-simd") {
    return std::make_unique<TwoOptSimd>();
  }
  if (name == "batch-simd") {
    return std::make_unique<BatchSimd>();
  }
  if (name == "cpu-parallel") {
    return std::make_unique<TwoOptCpuParallel>();
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
  if (name == "gpu-small") {
    return std::make_unique<TwoOptGpuSmall>(device);
  }
  if (name == "gpu-small-indirect") {
    return std::make_unique<TwoOptGpuSmall>(device, simt::LaunchConfig{},
                                            false);
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
  if (name == "batch-gpu") {
    return std::make_unique<BatchSingleTourAdapter>(create_batch(name, devices));
  }
  TSPOPT_CHECK_MSG(false, "unknown engine: " << name);
  return nullptr;  // unreachable
}

bool EngineFactory::is_batch_engine(const std::string& name) {
  return name == "batch-simd" || name == "batch-gpu";
}

std::unique_ptr<BatchTwoOptEngine> EngineFactory::create_batch(
    const std::string& name, std::span<simt::Device* const> devices) {
  if (name == "batch-gpu") {
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
