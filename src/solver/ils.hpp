// Iterated Local Search (the paper's Algorithm 1) for a single tour.
//
//   s* <- 2optLocalSearch(s0)
//   while not done: s' <- Perturbation(s*); s' <- 2optLocalSearch(s');
//                   s* <- AcceptanceCriterion(s*, s')
//
// The perturbation is the paper's double-bridge move; the acceptance
// criterion keeps the better tour. The convergence trace (best length vs
// wall time) is what Fig. 11 plots. The loop itself lives in
// population_ils (batch/population_ils.hpp): a solo run is a population of
// one, so this entry point and the batched multi-start share every line
// of it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/engine.hpp"
#include "solver/local_search.hpp"
#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

// Algorithm 1's AcceptanceCriterion(s*, s') is a pluggable component; the
// classic choices are provided. kBetter is what the paper's evaluation
// uses; kEpsilonWorse (accept small regressions) and kRandomWalk (always
// accept) trade intensification for diversification.
enum class IlsAcceptance {
  kBetter,        // accept only strict improvements
  kEpsilonWorse,  // accept if within (1 + epsilon) of the incumbent
  kRandomWalk,    // always accept the new local minimum
};

// Per-round progress snapshot handed to IlsOptions::on_progress. The
// serve scheduler streams these into per-job status/RunReport state.
struct IlsProgress {
  std::int64_t iteration = 0;
  std::int64_t best_length = 0;
  double seconds = 0.0;    // wall time, including any checkpointed portion
  bool improved = false;   // this round found a new best
};

struct IlsOptions {
  double time_limit_seconds = 1.0;
  std::int64_t max_iterations = -1;  // perturbation rounds; -1 = unlimited
  std::uint64_t seed = 1;
  LocalSearchOptions local_search;  // per-descent budget (defaults: none)
  IlsAcceptance acceptance = IlsAcceptance::kBetter;
  double epsilon = 0.02;  // kEpsilonWorse tolerance

  // Periodic checkpointing: every `checkpoint_every` completed iterations
  // (and once after the initial descent) the full loop state is written
  // atomically to `checkpoint_path` as a one-member population checkpoint
  // (checkpoint.hpp), so a killed run can resume bit-identically via
  // population_ils_resume. Empty path = off.
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 16;

  // Cooperative control hooks for embedding the loop in long-lived hosts
  // (the serve scheduler, signal-driven drains). `should_stop` is polled
  // before every perturbation round and between the local-search passes
  // inside a round; returning true ends the run cleanly with the best tour
  // so far (IlsResult::stopped is set). `on_progress` fires after every
  // completed round. Both run on the solver thread and must be cheap.
  std::function<bool()> should_stop;
  std::function<void(const IlsProgress&)> on_progress;
};

struct IlsTracePoint {
  double seconds = 0.0;       // wall time at which this best was found
  std::int64_t length = 0;    // best tour length so far
  std::int64_t iteration = 0; // 0 = initial descent
  // Cumulative work when this best was found — lets a device performance
  // model re-time the (deterministic) trajectory for any hardware, which
  // is how bench_fig11 draws the paper's GPU-vs-CPU convergence curves.
  std::uint64_t checks = 0;   // pair evaluations so far
  std::int64_t passes = 0;    // full 2-opt passes (= kernel launches) so far
};

struct IlsResult {
  Tour best;
  std::int64_t best_length = 0;
  std::int64_t iterations = 0;      // perturbation rounds completed
  std::int64_t improvements = 0;    // accepted (better) rounds
  std::uint64_t checks = 0;         // total pair evaluations
  double wall_seconds = 0.0;
  bool stopped = false;             // ended early by should_stop
  std::vector<IlsTracePoint> trace;
};

IlsResult iterated_local_search(TwoOptEngine& engine, const Instance& instance,
                                const Tour& initial, const IlsOptions& options);

}  // namespace tspopt
