// Baseline comparison the paper makes in §III: Iterated Local Search
// (perturb-the-incumbent, the paper's choice) vs O'Neil et al.'s
// iterative hill climbing with random restarts (IHC), both driving the
// SAME 2-opt engine.
//
// "In our opinion and based on our results, an algorithm performing
// iterative refinement such as ours ... is a much better solution."
// The bench gives each algorithm the same wall-time budget on the same
// instance and reports best length, descents completed and checks spent.
#include <iostream>

#include "benchsup/table.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "solver/constructive.hpp"
#include "solver/ihc.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/generator.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  const auto n = static_cast<std::int32_t>(
      env_long_or("REPRO_IHC_N", full_scale() ? 5000 : 1000));
  const double budget = full_scale() ? 120.0 : 6.0;
  Instance inst = generate_clustered("cmp" + std::to_string(n), n,
                                     std::max(4, n / 250), 17);

  std::cout << "=== Baseline: ILS (paper) vs random-restart hill climbing "
               "(O'Neil et al.), same 2-opt engine, " << budget
            << " s each, n = " << n << " ===\n\n";

  TwoOptSimd engine(nullptr, &ThreadPool::shared());

  IhcOptions ihc_opts;
  ihc_opts.time_limit_seconds = budget;
  ihc_opts.seed = 3;
  IhcResult ihc = random_restart_hill_climbing(engine, inst, ihc_opts);

  IlsOptions ils_opts;
  ils_opts.time_limit_seconds = budget;
  ils_opts.seed = 3;
  IlsResult ils =
      iterated_local_search(engine, inst, multiple_fragment(inst), ils_opts);

  Table table({"Algorithm", "Best length", "Descents", "Checks",
               "Checks/descent", "Improvements"});
  table.add_row({"IHC (random restart)", std::to_string(ihc.best_length),
                 std::to_string(ihc.restarts),
                 fmt_count(static_cast<double>(ihc.checks), 1),
                 fmt_count(ihc.restarts > 0
                               ? static_cast<double>(ihc.checks) /
                                     static_cast<double>(ihc.restarts)
                               : 0.0,
                           1),
                 std::to_string(ihc.improvements)});
  table.add_row({"ILS (double bridge)", std::to_string(ils.best_length),
                 std::to_string(ils.iterations + 1),
                 fmt_count(static_cast<double>(ils.checks), 1),
                 fmt_count(ils.iterations > 0
                               ? static_cast<double>(ils.checks) /
                                     static_cast<double>(ils.iterations + 1)
                               : 0.0,
                           1),
                 std::to_string(ils.improvements)});
  table.print(std::cout);

  double gap = 100.0 *
               (static_cast<double>(ihc.best_length) -
                static_cast<double>(ils.best_length)) /
               static_cast<double>(ils.best_length);
  std::cout << "\nILS tour is " << fmt_fixed(gap, 2)
            << "% shorter. A perturbed incumbent re-optimizes in a handful "
               "of passes, so ILS completes ~"
            << (ihc.restarts > 0
                    ? fmt_fixed(static_cast<double>(ils.iterations + 1) /
                                    static_cast<double>(ihc.restarts),
                                0)
                    : std::string("-"))
            << "x more descents in the same time — the paper's §III "
               "argument for keeping ILS and accelerating its 2-opt.\n";
  return 0;
}
