// Reproduces Fig. 9: "GFLOP/s (distance calculation) observed during the
// run using CUDA and OpenCL" — achieved GFLOP/s vs problem size for the
// paper's 8 device configurations.
//
// Each series comes from the calibrated device model driven by the exact
// check counts of the catalog sizes (one series column per device); the
// paper's qualitative shape is: all curves rise with problem size (launch
// overhead and occupancy amortize), GPUs saturate at 300-900 GFLOP/s,
// CPUs below ~50 GFLOP/s. As a grounding row, the bench also *measures*
// the host's real CPU engines (sequential and thread-pool parallel) and
// prints their true GFLOP/s on this machine.
#include <iostream>
#include <vector>

#include "benchsup/table.hpp"
#include "benchsup/workloads.hpp"
#include "common/rng.hpp"
#include "simt/perf_model.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  std::cout << "=== Fig 9: achieved GFLOP/s of the distance calculation vs "
               "problem size ===\n"
            << "(" << simt::DeviceSpec::kFlopsPerCheck
            << " FLOP per 2-opt check; modeled devices calibrated in "
               "src/simt/device_spec.cpp)\n\n";

  std::vector<simt::PerfModel> models;
  std::vector<std::string> headers{"Problem", "n"};
  for (const simt::DeviceSpec& spec : simt::fig9_devices()) {
    models.emplace_back(spec);
    std::string label = spec.name + " " + spec.api;
    // Compact the long names for column headers.
    if (label.size() > 26) label = label.substr(0, 26);
    headers.push_back(label);
  }
  Table table(headers);

  for (const CatalogEntry& e : sweep_entries()) {
    auto checks = static_cast<std::uint64_t>(pair_count(e.n));
    std::vector<std::string> row{e.name, std::to_string(e.n)};
    for (const auto& m : models) {
      row.push_back(fmt_fixed(m.achieved_gflops(checks), 1));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  maybe_export_csv(table, "fig9_modeled");

  // Measured grounding: the real CPU engines on this host.
  std::cout << "\n--- measured on this host (real wall clock) ---\n";
  Table measured({"Problem", "n", "seq GFLOP/s", "par GFLOP/s",
                  "seq checks/s", "par checks/s"});
  TwoOptSequential seq;
  TwoOptSimd par(nullptr, &ThreadPool::shared());
  for (const CatalogEntry& e : sweep_entries()) {
    if (e.n > 6000) break;  // keep the measured sweep quick
    Instance inst = make_catalog_instance(e);
    Pcg32 rng(1);
    Tour tour = Tour::random(e.n, rng);
    SearchResult s = seq.search(inst, tour);
    SearchResult p = par.search(inst, tour);
    auto gflops = [](const SearchResult& r) {
      return static_cast<double>(r.checks) *
             simt::DeviceSpec::kFlopsPerCheck / r.wall_seconds / 1e9;
    };
    auto rate = [](const SearchResult& r) {
      return static_cast<double>(r.checks) / r.wall_seconds;
    };
    measured.add_row({e.name, std::to_string(e.n), fmt_fixed(gflops(s), 2),
                      fmt_fixed(gflops(p), 2), fmt_count(rate(s), 1) + "/s",
                      fmt_count(rate(p), 1) + "/s"});
  }
  measured.print(std::cout);
  maybe_export_csv(measured, "fig9_measured");
  return 0;
}
