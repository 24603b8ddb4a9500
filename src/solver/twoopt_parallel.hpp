// Multi-threaded CPU 2-opt pass — the paper's parallel CPU baseline (the
// OpenCL CPU implementation of the abstract's "6 cores" comparison), now
// vectorized: each worker's chunk of the linearized pair space decomposes
// into row segments (for_each_row_segment) evaluated by the runtime-
// dispatched SIMD row kernels over a shared SoA coordinate staging, with
// its successor lengths for the kernels' reach filter.
//
// The linearized pair space [0, n(n-1)/2) is statically partitioned across
// the pool workers; each worker keeps a private best and the results are
// merged with the canonical (delta, index) order, so the outcome is
// identical to the sequential engine regardless of thread count or lane
// width. Staging and per-worker buffers are engine members reused across
// passes: steady-state search() calls do not allocate on the host.
#pragma once

#include <vector>

#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/engine.hpp"
#include "solver/simd.hpp"
#include "tsp/soa.hpp"

namespace tspopt {

class TwoOptCpuParallel : public TwoOptEngine {
 public:
  // `pool == nullptr` uses the process-wide shared pool; `kernels ==
  // nullptr` uses the process-wide SIMD dispatch (simd::active()).
  explicit TwoOptCpuParallel(ThreadPool* pool = nullptr,
                             const simd::Kernels* kernels = nullptr)
      : pool_(pool != nullptr ? pool : &ThreadPool::shared()),
        kernels_(kernels != nullptr ? *kernels : simd::active()) {}

  std::string name() const override { return "cpu-parallel"; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

 private:
  ThreadPool* pool_;
  const simd::Kernels& kernels_;
  SoaCoords soa_;
  std::vector<BestMove> partial_;
  std::vector<std::uint64_t> worker_vectorized_;
  std::vector<std::uint64_t> worker_scalar_tail_;
  std::vector<std::uint64_t> worker_reach_skipped_;
  obs::Counter* pairs_vectorized_ = nullptr;
  obs::Counter* pairs_scalar_tail_ = nullptr;
  obs::Counter* pairs_reach_skipped_ = nullptr;
};

}  // namespace tspopt
