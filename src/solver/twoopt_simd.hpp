// Single-thread vectorized 2-opt pass over SoA route-ordered coordinates.
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
#pragma once

#include "obs/registry.hpp"
#include "solver/engine.hpp"
#include "solver/simd.hpp"
#include "tsp/soa.hpp"

namespace tspopt {

class TwoOptSimd : public TwoOptEngine {
 public:
  // `kernels == nullptr` uses the process-wide dispatch (simd::active());
  // tests pin explicit levels to compare them on one host.
  explicit TwoOptSimd(const simd::Kernels* kernels = nullptr)
      : kernels_(kernels != nullptr ? *kernels : simd::active()) {}

  std::string name() const override { return "cpu-simd"; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

  const simd::Kernels& kernels() const { return kernels_; }

 private:
  const simd::Kernels& kernels_;
  SoaCoords soa_;
  // Registry instruments, resolved lazily so steady-state passes are
  // allocation-free (same pattern as simt::Device::launch_latency).
  obs::Counter* pairs_vectorized_ = nullptr;
  obs::Counter* pairs_scalar_tail_ = nullptr;
  obs::Counter* pairs_reach_skipped_ = nullptr;
};

}  // namespace tspopt
