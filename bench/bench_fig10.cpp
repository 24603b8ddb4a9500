// Reproduces Fig. 10: "Speedup of the algorithm compared to the OpenCL
// parallel CPU implementation running on Intel Xeon E5-2667 (2 x 6 = 16
// cores)" — one full 2-opt pass, transfers included, vs problem size, for
// the figure's four GPU configurations.
//
// Also prints the abstract's other claim: speedup vs the 6-core i7-3960X
// ("approximately 5 to 45 times"), and a *measured* column — the real
// ratio between this host's single thread and its thread pool, which is
// the strong-scaling sanity check available without 2013 hardware.
#include <iostream>
#include <thread>
#include <vector>

#include "benchsup/table.hpp"
#include "benchsup/workloads.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "simt/perf_model.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"
#include "tsp/point.hpp"

namespace {

// One full pass, transfers included, under a device model.
double pass_total_us(const tspopt::simt::PerfModel& m, std::int32_t n) {
  auto checks = static_cast<std::uint64_t>(tspopt::pair_count(n));
  double t = m.kernel_time_us(checks, 1);
  t += m.h2d_time_us(static_cast<std::uint64_t>(n) * sizeof(tspopt::Point), 1);
  t += m.d2h_time_us(28 * 24, 1);  // per-block best-move records
  return t;
}

}  // namespace

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  std::cout << "=== Fig 10: speedup vs the 16-core Xeon E5-2667 OpenCL CPU "
               "baseline (one 2-opt pass incl. transfers) ===\n\n";

  simt::PerfModel xeon(simt::xeon_e5_2667_x2());
  simt::PerfModel i7(simt::corei7_3960x());
  std::vector<std::pair<std::string, simt::PerfModel>> gpus = {
      {"7970GHz OpenCL", simt::PerfModel(simt::radeon7970_ghz())},
      {"GTX680 CUDA", simt::PerfModel(simt::gtx680_cuda())},
      {"GTX680 OpenCL", simt::PerfModel(simt::gtx680_opencl())},
      {"6990 OpenCL", simt::PerfModel(simt::radeon6990())},
  };

  std::vector<std::string> headers{"Problem", "n"};
  for (const auto& [name, model] : gpus) headers.push_back(name);
  headers.push_back("GTX680 vs i7-6core");
  Table table(headers);

  double band_min = 1e30, band_max = 0.0;
  for (const CatalogEntry& e : sweep_entries()) {
    std::vector<std::string> row{e.name, std::to_string(e.n)};
    double cpu_us = pass_total_us(xeon, e.n);
    for (const auto& [name, model] : gpus) {
      row.push_back(fmt_fixed(cpu_us / pass_total_us(model, e.n), 1) + "x");
    }
    double vs6 = pass_total_us(i7, e.n) /
                 pass_total_us(gpus[1].second, e.n);  // GTX 680 CUDA
    if (e.n >= 200) {  // the paper notes sub-200 instances gain nothing
      band_min = std::min(band_min, vs6);
      band_max = std::max(band_max, vs6);
    }
    row.push_back(fmt_fixed(vs6, 1) + "x");
    table.add_row(row);
  }
  table.print(std::cout);
  maybe_export_csv(table, "fig10_modeled");
  std::cout << "\nGTX 680 vs 6-core i7 band over n >= 200: "
            << fmt_fixed(band_min, 1) << "x .. " << fmt_fixed(band_max, 1)
            << "x  (paper abstract: ~5x to 45x across its GPUs)\n";

  // Measured strong-scaling on this host: sequential vs thread pool.
  std::cout << "\n--- measured on this host: cpu-parallel vs cpu-sequential "
               "(real wall clock, "
            << std::thread::hardware_concurrency()
            << " hardware threads available) ---\n";
  obs::RunReport report;
  report.set_config("bench", "fig10");
  report.set_config("baseline", "Xeon E5-2667 x2 (OpenCL)");
  report.set_summary("band_min_vs_i7_6core", band_min);
  report.set_summary("band_max_vs_i7_6core", band_max);
  Table measured({"Problem", "n", "seq wall", "par wall", "speedup"});
  TwoOptSequential seq;
  TwoOptSimd par(nullptr, &ThreadPool::shared());
  for (const CatalogEntry& e : sweep_entries()) {
    if (e.n < 200 || e.n > 6000) continue;
    Instance inst = make_catalog_instance(e);
    Pcg32 rng(2);
    Tour tour = Tour::random(e.n, rng);
    SearchResult s = seq.search(inst, tour);
    SearchResult p = par.search(inst, tour);
    measured.add_row({e.name, std::to_string(e.n),
                      fmt_us(s.wall_seconds * 1e6),
                      fmt_us(p.wall_seconds * 1e6),
                      fmt_fixed(s.wall_seconds / p.wall_seconds, 2) + "x"});
    report.set_summary("measured_speedup." + e.name,
                       s.wall_seconds / p.wall_seconds);
  }
  measured.print(std::cout);
  maybe_export_csv(measured, "fig10_measured");
  report.set_metrics(obs::Registry::global());
  std::string report_path = report.write_if_requested();
  if (!report_path.empty()) {
    std::cout << "\nwrote run report to " << report_path << "\n";
  }
  return 0;
}
