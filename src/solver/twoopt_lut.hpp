// Sequential 2-opt pass reading a precomputed O(n^2) distance LUT — the
// approach the paper's §II-B rules out for GPUs on memory grounds
// (Table I). Results are identical to the coordinate engines (the LUT is
// built from the same metric); the ablation bench contrasts its memory
// footprint and cache behaviour with coordinate recomputation. search()
// is cpu-generic's triangle sweep reading the LUT (twoopt_generic.cpp).
#pragma once

#include "solver/engine.hpp"
#include "tsp/distance_matrix.hpp"

namespace tspopt {

class TwoOptLut : public TwoOptEngine {
 public:
  // `lut` must outlive the engine and match the searched instance.
  explicit TwoOptLut(const DistanceMatrix& lut) : lut_(lut) {}

  std::string name() const override { return "cpu-lut"; }

  SearchResult search(const Instance& instance, const Tour& tour) override;

 private:
  const DistanceMatrix& lut_;
};

}  // namespace tspopt
