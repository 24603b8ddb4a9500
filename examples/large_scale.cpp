// Large-instance workflow — the scenario the paper's division scheme
// exists for ("the problem division scheme which allows to solve
// arbitrarily big problem instances using GPU"):
//
//   1. generate (or load) an instance far beyond the 6144-city
//      shared-memory limit,
//   2. construct a Multiple Fragment tour,
//   3. warm-start with cheap pruned descents (first-improvement + DLB),
//   4. polish with exact full-scan passes on the *tiled* simulated-GPU
//      kernel under a time budget,
//   5. write the tour (.tour) and a picture (.svg) to /tmp.
//
//   $ ./examples/large_scale --n 20000 --seconds 20
#include <iostream>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "simt/device.hpp"
#include "simt/perf_model.hpp"
#include "solver/constructive.hpp"
#include "solver/first_improvement.hpp"
#include "solver/local_search.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/generator.hpp"
#include "tsp/svg.hpp"
#include "tsp/tour_io.hpp"

int main(int argc, char** argv) {
  using namespace tspopt;

  CliParser cli("large_scale",
                "tiled-kernel workflow for instances beyond the "
                "shared-memory limit");
  cli.add_option("n", "city count", "20000");
  cli.add_option("seconds", "polish budget (s)", "15");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("k", "neighbor-list size for the warm start", "10");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  auto n = static_cast<std::int32_t>(cli.get_int("n", 20000));
  double seconds = cli.get_double("seconds", 15.0);
  auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto k = static_cast<std::int32_t>(cli.get_int("k", 10));
  if (n < 8) {
    std::cerr << cli.usage();
    return 2;
  }

  WallTimer total;
  Instance inst = generate_clustered("large" + std::to_string(n), n,
                                     std::max(8, n / 400), seed);
  std::cout << "instance: " << inst.name() << " (" << n << " cities, "
            << pair_count(n) << " 2-opt pairs per pass)\n";

  NeighborLists nl(inst, k);
  Tour tour = multiple_fragment(inst, nl);
  std::cout << "multiple fragment: " << tour.length(inst) << "  ["
            << total.seconds() << " s]\n";

  FirstImprovementStats warm = first_improvement_descent(inst, tour, nl);
  std::cout << "pruned warm start:  " << tour.length(inst) << "  ("
            << warm.moves_applied << " moves, " << warm.checks
            << " checks)  [" << total.seconds() << " s]\n";

  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuTiled engine(device);
  std::cout << "polishing with the tiled kernel (tile " << engine.tile()
            << ", " << engine.launches_for(n) << " launches/pass, budget "
            << seconds << " s)...\n";
  LocalSearchOptions opts;
  opts.time_limit_seconds = seconds;
  LocalSearchStats polish = local_search(engine, inst, tour, opts);
  std::cout << "after "
            << (polish.reached_local_minimum ? "reaching the local minimum"
                                             : "the time budget")
            << ": " << tour.length(inst) << "  (" << polish.moves_applied
            << " exact moves over " << polish.passes << " passes)\n";

  simt::PerfModel model(device.spec());
  std::cout << "that polish would have cost a real GTX 680 ~"
            << model.price(device.counters().snapshot()).total_us() / 1e3
            << " ms\n";

  std::string stem = "/tmp/" + inst.name();
  save_tsplib_tour(stem + ".tour", tour, inst.name(), tour.length(inst));
  SvgStyle style;
  style.point_radius = 0.0;  // too many cities for dots
  save_svg(stem + ".svg", inst, &tour, style);
  std::cout << "wrote " << stem << ".tour and " << stem << ".svg  ["
            << total.seconds() << " s total]\n";
  return 0;
}
