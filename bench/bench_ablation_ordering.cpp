// Ablation for Optimization 2 (paper §IV-A, Figs. 5/6): pre-ordering the
// coordinate array into route order on the host vs. reading coordinates
// through the route[] indirection on every access.
//
// Both variants return identical best moves (equivalence is asserted);
// the bench measures the real host-side cost difference of the two access
// patterns across instance sizes, plus the memory the ordered layout
// saves (no route array on the device: the paper's benefit #2).
#include <iostream>

#include "benchsup/table.hpp"
#include "benchsup/workloads.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "simt/device.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_sequential.hpp"
#include "tsp/catalog.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  std::cout << "=== Ablation: route-ordered coordinates (Optimization 2) "
               "===\n"
            << "ordered: ordered[p] staged once per pass on the host "
               "(O(n)).\nindirect: coords[route[p]] on every access.\n\n";

  Table table({"Problem", "n", "ordered", "indirect", "Slowdown",
               "Device bytes saved"});

  TwoOptSequential ordered(true);
  TwoOptSequential indirect(false);

  for (const CatalogEntry& e : sweep_entries()) {
    if (e.n > 6000) break;
    Instance inst = make_catalog_instance(e);
    Pcg32 rng(4);
    Tour tour = Tour::random(e.n, rng);

    const int reps = e.n <= 500 ? 5 : 2;
    RunningStats t_ordered, t_indirect;
    for (int r = 0; r < reps; ++r) {
      SearchResult a = ordered.search(inst, tour);
      SearchResult b = indirect.search(inst, tour);
      if (a.best.index != b.best.index || a.best.delta != b.best.delta) {
        std::cerr << "ordering ablation: engines diverged on " << e.name
                  << "\n";
        return 1;
      }
      t_ordered.add(a.wall_seconds * 1e6);
      t_indirect.add(b.wall_seconds * 1e6);
    }
    // Benefit #2: the route array (n int32) need not ship to the device.
    std::size_t saved = static_cast<std::size_t>(e.n) * sizeof(std::int32_t);
    table.add_row({e.name, std::to_string(e.n), fmt_us(t_ordered.min()),
                   fmt_us(t_indirect.min()),
                   fmt_fixed(t_indirect.min() / t_ordered.min(), 2) + "x",
                   fmt_bytes(saved)});
  }
  table.print(std::cout);

  // The same ablation on the simulated GPU kernel: the Fig.-5 (indirect)
  // variant ships and stages the route array as well, and its 12 B/city
  // shared footprint lowers the instance limit from ~6136 to ~4090.
  std::cout << "\n--- on the simulated GTX 680 kernel ---\n";
  simt::Device probe(simt::gtx680_cuda());
  std::cout << "city limit: ordered "
            << TwoOptGpuSmall::max_cities(probe, true) << ", indirect "
            << TwoOptGpuSmall::max_cities(probe, false) << "\n";
  Table gpu_table({"Problem", "n", "H2D bytes (ord)", "H2D bytes (ind)",
                   "Staged/block (ord)", "Staged/block (ind)"});
  for (const CatalogEntry& e : sweep_entries()) {
    if (e.n > 4000) break;  // indirect variant's capacity
    Instance inst = make_catalog_instance(e);
    Pcg32 rng(4);
    Tour tour = Tour::random(e.n, rng);
    simt::Device ordered_dev(simt::gtx680_cuda());
    simt::Device indirect_dev(simt::gtx680_cuda());
    TwoOptGpuSmall ordered_engine(ordered_dev);
    TwoOptGpuSmall indirect_engine(indirect_dev, simt::LaunchConfig{}, false);
    SearchResult a = ordered_engine.search(inst, tour);
    SearchResult b = indirect_engine.search(inst, tour);
    if (a.best.index != b.best.index) {
      std::cerr << "GPU ordering ablation diverged on " << e.name << "\n";
      return 1;
    }
    auto aw = ordered_dev.counters().snapshot();
    auto bw = indirect_dev.counters().snapshot();
    gpu_table.add_row(
        {e.name, std::to_string(e.n), fmt_bytes(aw.h2d_bytes),
         fmt_bytes(bw.h2d_bytes),
         fmt_count(static_cast<double>(aw.global_reads) / 28.0, 1),
         fmt_count(static_cast<double>(bw.global_reads) / 28.0, 1)});
  }
  gpu_table.print(std::cout);

  std::cout << "\nThe ordered layout also makes the staged reads sequential "
               "(no shared-memory bank conflicts on real hardware, paper "
               "benefit #3) and is what enables the tiled division scheme "
               "(benefit #4, see bench_ablation_tiling).\n";
  return 0;
}
