// Ablation: the local-search neighborhood ladder of the paper's §VII —
// what each richer neighborhood buys on top of GPU-style 2-opt.
//
//   2-opt  ->  2-opt + Or-opt (2.5-opt)  ->  2-opt + 3-opt
//
// Same starting tour (Multiple Fragment), descend each pipeline to its
// joint local minimum, report final length, gap closed relative to plain
// 2-opt, work spent. "The solutions to this problem are more
// sophisticated algorithms such as 3-opt, k-opt or LK" (§V).
#include <iostream>

#include "benchsup/table.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "solver/constructive.hpp"
#include "solver/local_search.hpp"
#include "solver/or_opt.hpp"
#include "solver/three_opt.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  std::cout << "=== Ablation: neighborhood ladder (2-opt / +Or-opt / "
               "+3-opt), Multiple-Fragment start ===\n\n";

  Table table({"Problem", "n", "Pipeline", "Final len", "vs 2-opt", "Moves",
               "Checks", "Wall"});

  std::vector<const char*> names{"kroE100", "pr439", "vm1084"};
  if (full_scale()) names.push_back("pr2392");
  for (const char* name : names) {
    auto entry = *find_catalog_entry(name);
    Instance inst = make_catalog_instance(entry);
    NeighborLists nl(inst, 10);
    Tour initial = multiple_fragment(inst);
    TwoOptSimd two_opt(nullptr, &ThreadPool::shared());

    // Alternate the neighborhoods until the joint fixpoint.
    auto run = [&](bool use_or_opt, bool use_three_opt) {
      Tour tour = initial;
      WallTimer timer;
      std::int64_t moves = 0;
      std::uint64_t checks = 0;
      for (int round = 0; round < 16; ++round) {
        LocalSearchStats ls = local_search(two_opt, inst, tour);
        moves += ls.moves_applied;
        checks += ls.checks;
        std::int64_t extra_moves = 0;
        if (use_or_opt) {
          OrOptStats o = or_opt_descend(inst, tour, nl);
          extra_moves += o.moves_applied;
          checks += o.checks;
        }
        if (use_three_opt) {
          ThreeOptStats t = three_opt_descend(inst, tour, nl);
          extra_moves += t.moves_applied;
          checks += t.checks;
        }
        moves += extra_moves;
        if (extra_moves == 0) break;  // joint local minimum
      }
      struct Out {
        std::int64_t len;
        std::int64_t moves;
        std::uint64_t checks;
        double wall;
      };
      return Out{tour.length(inst), moves, checks, timer.seconds()};
    };

    auto plain = run(false, false);
    auto with_or = run(true, false);
    auto with_three = run(false, true);

    auto row = [&](const char* label, auto& r) {
      table.add_row({entry.name, std::to_string(entry.n), label,
                     std::to_string(r.len),
                     fmt_fixed(100.0 * static_cast<double>(r.len) /
                                   static_cast<double>(plain.len),
                               2) +
                         "%",
                     std::to_string(r.moves),
                     fmt_count(static_cast<double>(r.checks), 1),
                     fmt_us(r.wall * 1e6)});
    };
    row("2-opt", plain);
    row("2-opt + Or-opt", with_or);
    row("2-opt + 3-opt", with_three);
  }
  table.print(std::cout);
  std::cout << "\nRicher neighborhoods shave a further fraction of a "
               "percent to a few percent off the 2-opt minimum for modest "
               "extra checks — the quality head-room §VII targets.\n";
  return 0;
}
