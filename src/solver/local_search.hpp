// The 2-opt local-search driver: repeat full passes, applying the best
// improving move, until a local minimum (or a pass/time budget) is reached.
// This is lines 3/6 of the paper's Algorithm 1 — the part the GPU
// accelerates — factored out of ILS so Table II's "time to first minimum"
// column can be measured in isolation. The loop itself is
// batch_local_search's (solver/batch/batch_local_search.hpp); a solo
// descent runs it on a batch of one.
#pragma once

#include <cstdint>

#include "solver/engine.hpp"
#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

struct LocalSearchOptions {
  std::int64_t max_passes = -1;   // -1 = until local minimum
  double time_limit_seconds = -1.0;  // <0 = no limit
};

struct LocalSearchStats {
  std::int64_t passes = 0;          // engine searches performed
  std::int64_t moves_applied = 0;   // improving moves taken
  std::uint64_t checks = 0;         // total pair evaluations
  std::int64_t improvement = 0;     // total tour-length reduction
  double wall_seconds = 0.0;
  bool reached_local_minimum = false;
};

LocalSearchStats local_search(TwoOptEngine& engine, const Instance& instance,
                              Tour& tour,
                              const LocalSearchOptions& options = {});

}  // namespace tspopt
