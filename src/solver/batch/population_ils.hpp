// Population ILS: the one implementation of the paper's Algorithm 1,
// B members at a time, driven by one batch engine pass per round.
//
//   s* <- 2optLocalSearch(s0)
//   while not done: s' <- Perturbation(s*); s' <- 2optLocalSearch(s');
//                   s* <- AcceptanceCriterion(s*, s')
//
// Every round each live member perturbs its incumbent (double bridge on
// its own RNG stream) and all candidates descend together through
// batch_local_search — so a B-member population pays one batched launch
// sequence per round where B independent ILS runs would pay B. A solo run
// is a population of one: iterated_local_search (ils.hpp) runs any
// single-tour engine here through PerSlotBatchEngine, and the serve
// scheduler runs a solo job as a batch of one.
//
// With migrate_every == 0 the members are fully independent multi-starts
// (a member with seed S is bit-identical to the solo run with seed S — the
// determinism tests pin this), and with migrate_every > 0 the population
// periodically copies the best member's best tour over the worst member's
// incumbent, trading independence for intensification.
//
// Per-member budgets (time, iterations, stop hooks) exist because the
// serve-side micro-batcher runs jobs with individual deadlines through
// this same loop: a member that exhausts its budget finishes and drops
// out while the rest of the population keeps iterating.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "solver/batch/batch_engine.hpp"
#include "solver/ils.hpp"
#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

struct PopulationCheckpoint;

struct PopulationMemberOptions {
  std::uint64_t seed = 1;
  // Member wall budget measured from the run's start; -1 = global only.
  double time_limit_seconds = -1.0;
  std::int64_t max_iterations = -1;  // member perturbation rounds
  // Per-member cooperative stop, polled between rounds and between the
  // passes of a descent. The member ends with IlsResult::stopped set.
  std::function<bool()> should_stop;
  std::function<void(const IlsProgress&)> on_progress;
};

struct PopulationIlsOptions {
  double time_limit_seconds = 1.0;   // global wall budget; -1 = unlimited
  std::int64_t max_iterations = -1;  // global rounds; -1 = unlimited
  // Rounds between best-replaces-worst migrations; 0 = independent
  // multi-start (no cross-member coupling).
  std::int64_t migrate_every = 0;
  IlsAcceptance acceptance = IlsAcceptance::kBetter;
  double epsilon = 0.02;
  LocalSearchOptions local_search;  // per-descent budget (defaults: none)
  // Whole-population checkpoint (checkpoint.hpp) every `checkpoint_every`
  // completed rounds and once after the initial descent, so a killed run
  // can resume bit-identically via population_ils_resume; empty path = off.
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 16;
  // Global cooperative stop, polled before every round and between the
  // passes of a descent; ends the run with PopulationIlsResult::stopped
  // and every unfinished member's IlsResult::stopped set.
  std::function<bool()> should_stop;
};

struct PopulationIlsResult {
  // One full IlsResult per member, convergence trace included — the
  // per-tour curves the run report renders.
  std::vector<IlsResult> members;
  std::int32_t best_member = 0;  // argmin best_length, ties to lower slot
  std::int64_t rounds = 0;       // completed population rounds
  std::int64_t migrations = 0;
  double wall_seconds = 0.0;
  bool stopped = false;  // ended early via the global stop hook

  const IlsResult& best() const {
    return members[static_cast<std::size_t>(best_member)];
  }
};

// `initial` and `members` must have equal size >= 1; tours are consumed
// as the members' starting points (slot order preserved).
PopulationIlsResult population_ils(
    BatchTwoOptEngine& engine, const Instance& instance,
    std::vector<Tour> initial, const std::vector<PopulationMemberOptions>& members,
    const PopulationIlsOptions& options);

// Continue a checkpointed population. The checkpoint is validated against
// the instance and each member resumes its own RNG stream and counters;
// under iteration-bounded options the outcome is bit-identical to the
// uninterrupted run. `members` supplies the budgets/hooks (seeds are
// ignored — RNG positions come from the checkpoint) and must match the
// checkpoint's member count.
PopulationIlsResult population_ils_resume(
    BatchTwoOptEngine& engine, const Instance& instance,
    const PopulationCheckpoint& checkpoint,
    const std::vector<PopulationMemberOptions>& members,
    const PopulationIlsOptions& options);

// The population-wide part of a solo run's options (everything but the
// seed and progress hook, which are the member's): how a population of
// one runs, or resumes, exactly as iterated_local_search would.
PopulationIlsOptions population_options(const IlsOptions& options);

// Convenience roster: `count` members with consecutive seeds
// (seed, seed + 1, ...) and no individual budgets.
std::vector<PopulationMemberOptions> population_members(std::int32_t count,
                                                        std::uint64_t seed);

}  // namespace tspopt
