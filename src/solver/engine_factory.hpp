// Creation of 2-opt engines by name, and the one table of engine facts.
//
// Examples and tools select engines from the command line; the factory
// owns the resources the engines borrow (simulated devices, distance LUT,
// neighbor lists) so callers manage one object. Engines remain valid as
// long as the factory lives.
//
// roster() is the engine table: one row per name, carrying everything a
// caller decides about an engine without constructing it — its device
// lease, whether a job's k applies, its batch class and its per-tour city
// cap. The serve scheduler admits, leases and batches from these rows;
// nothing else tests engine names for those facts.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simt/device.hpp"
#include "solver/engine.hpp"
#include "solver/twoopt_multi.hpp"
#include "tsp/distance_matrix.hpp"
#include "tsp/instance.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {

class BatchTwoOptEngine;

class EngineFactory {
 public:
  // Default neighbor-list size for the pruned engines: two full AVX2
  // lane-groups, so the vectorized sweep runs no partially-useful
  // iterations — a candidate count between 9 and 16 costs exactly the
  // same vector work, so take the full move set the hardware pays for.
  static constexpr std::int32_t kDefaultNeighbors = 16;

  // `instance` is needed by the instance-bound engines (cpu-lut and the
  // pruned cpu-pruned, cpu-simd-pruned, gpu-pruned) and by
  // neighbor_lists(); pass nullptr when none is used. `k` sizes the
  // neighbor lists; `multi` is gpu-multi's fault policy.
  explicit EngineFactory(const Instance* instance = nullptr,
                         std::int32_t k = kDefaultNeighbors,
                         MultiDeviceOptions multi = {});

  // Known names, in roster() order (the order help text prints them).
  static const std::vector<std::string>& available();

  // The devices a run of an engine leases: none (CPU engines), one, or
  // many (gpu-multi: the job's `devices`, at least two).
  enum class Lease { kNone, kOne, kMany };

  // One roster row. name and description are what tsplib_tool
  // --list-engines prints and the serve daemon's "engines" verb returns,
  // so wire clients can discover valid `engine` values without reading
  // the source; the other fields are the engine's facts.
  struct EngineInfo {
    std::string name;
    std::string description;
    Lease lease = Lease::kNone;
    // True for the k-NN pruned engines, the ones a job's `k` sizes.
    bool uses_k = false;
    // The batch engine ("batch-simd" or "batch-gpu") that runs this
    // engine's class when the serve micro-batcher coalesces jobs; empty
    // when the class has no batch implementation. Pairs are bit-identical
    // per tour (the batch == solo pins hold them).
    std::string batch_class = "";
    // Largest per-tour n the engine accepts on `device`; nullptr = no cap.
    std::int32_t (*city_cap)(const simt::Device& device) = nullptr;
  };
  // Every engine, in the order help text prints them.
  static const std::vector<EngineInfo>& roster();
  // The row named `name`; nullptr for unknown names.
  static const EngineInfo* find(std::string_view name);

  // Throws CheckError for unknown names or when a required resource is
  // missing (e.g. cpu-lut without an instance). Each name is a
  // configuration of the one class that runs its kernel, constructed under
  // the roster name: cpu-simd and batch-simd are a TwoOptSimd on the
  // calling thread, cpu-parallel one on the shared pool; gpu-small,
  // gpu-small-indirect and batch-gpu are a TwoOptGpuSmall, batch-gpu with
  // one block (a batch of one tour).
  //
  // `devices` are the devices the gpu engines run on — the serve
  // scheduler passes its lease. The single-device classes take the first,
  // gpu-multi spans them all; empty = the factory's own simulated GPUs.
  std::unique_ptr<TwoOptEngine> create(
      const std::string& name, std::span<simt::Device* const> devices = {});

  // Many-tour engines for TourBatch users (PopulationIls, the serve
  // scheduler). A batch engine that leases a device (batch-gpu) builds its
  // native block-per-tour engine; every other name, batch-simd included,
  // builds create(name, devices) behind a PerSlotBatchEngine, which
  // searches each slot with it in turn. `devices` as for create().
  std::unique_ptr<BatchTwoOptEngine> create_batch(
      const std::string& name, std::span<simt::Device* const> devices = {});

  // The simulated device behind the gpu-* engines (for counters/models).
  simt::Device& device() { return device_; }

  // The factory's k-NN candidate lists, built lazily from the factory's
  // instance with list size k (CheckError without an instance). The one
  // list build per instance: shared by every pruned engine the factory
  // creates and by the multiple-fragment start, which reads each row's
  // first min(12, k) entries.
  const NeighborLists& neighbor_lists();

 private:
  const Instance* instance_;
  std::int32_t k_;
  MultiDeviceOptions multi_;
  simt::Device device_;
  simt::Device second_device_;  // gpu-multi's second GPU
  std::unique_ptr<DistanceMatrix> lut_;
  std::unique_ptr<NeighborLists> neighbors_;
};

}  // namespace tspopt
