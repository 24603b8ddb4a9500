// Vectorized 2-opt pass over SoA route-ordered coordinates, on the
// caller's thread or split across a thread pool.
//
// The direct CPU translation of the paper's optimized kernel: Optimization
// 2's host-side route ordering feeds a structure-of-arrays coordinate
// split (tsp/soa.hpp), and the W-wide row kernels (solver/simd.hpp) sweep
// the pair triangle row by row — W candidate pairs per step, lane-local
// best-move records, horizontal reduction at row end. Bit-identical to
// TwoOptSequential at every dispatch level; on an AVX2 host it replaces
// ~4 scalar sqrt calls per pair with 8-lane vector sqrts plus a hoisted
// row-constant removed-edge term. Each pass also stages every position's
// successor length once (SoaCoords::succ_len), so the rows' reach filter
// decides a block whose pairs provably have delta > 0 with one vector
// distance instead of three (twoopt.pairs_reach_skipped counts them).
//
// One class serves three roster names. Without a pool it is cpu-simd (and
// batch-simd, cpu-simd run per slot): the whole pair range [0, n(n-1)/2)
// is one chunk swept on the calling thread. With a pool it is
// cpu-parallel, the paper's multi-core CPU baseline (the OpenCL CPU run of
// the abstract's "6 cores" comparison): the range is statically
// partitioned across the pool's workers. Either way a chunk decomposes
// into row segments (for_each_row_segment) through the same row kernel.
// Each chunk keeps its own best and the chunks merge under the
// canonical (delta, pair index) order, so the outcome is identical to the
// sequential engine regardless of thread count or lane width. Staging and
// per-worker buffers are engine members reused across passes:
// steady-state search() calls do not allocate on the host.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/engine.hpp"
#include "solver/simd.hpp"
#include "tsp/soa.hpp"

namespace tspopt {

class TwoOptSimd : public TwoOptEngine {
 public:
  // `kernels == nullptr` uses the process-wide dispatch (simd::active());
  // tests pin explicit levels to compare them on one host. `pool ==
  // nullptr` sweeps on the calling thread. `name` is the roster name; empty
  // means "cpu-parallel" with a pool and "cpu-simd" without.
  explicit TwoOptSimd(const simd::Kernels* kernels = nullptr,
                      ThreadPool* pool = nullptr, std::string name = "")
      : kernels_(kernels != nullptr ? *kernels : simd::active()),
        pool_(pool),
        name_(!name.empty()         ? std::move(name)
              : pool != nullptr ? "cpu-parallel"
                                : "cpu-simd") {}

  std::string name() const override { return name_; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

  const simd::Kernels& kernels() const { return kernels_; }

 private:
  // One chunk's share of a pass: its best move and its counter terms.
  struct Sweep {
    BestMove best;
    std::uint64_t vectorized = 0;
    std::uint64_t scalar_tail = 0;
    std::uint64_t reach_skipped = 0;
  };
  // Sweeps pair indices [lo, hi) over the staged soa_.
  Sweep sweep(std::int64_t lo, std::int64_t hi) const;

  const simd::Kernels& kernels_;
  ThreadPool* pool_;
  std::string name_;
  SoaCoords soa_;
  std::vector<Sweep> partial_;  // per pool worker
  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free (same pattern as simt::Device::launch_latency).
  obs::Counter* pairs_vectorized_ = nullptr;
  obs::Counter* pairs_scalar_tail_ = nullptr;
  obs::Counter* pairs_reach_skipped_ = nullptr;
};

}  // namespace tspopt
