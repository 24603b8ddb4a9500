// TSPLIB workbench: parse any TSPLIB .tsp file (or materialize a named
// catalog instance), report its properties, and optionally solve it with
// any of the library's 2-opt engines.
//
//   $ ./examples/tsplib_tool                                # demo: berlin52
//   $ ./examples/tsplib_tool path/to/file.tsp --solve
//   $ ./examples/tsplib_tool pr2392 --solve --engine gpu-tiled
//   $ ./examples/tsplib_tool kroA200 --solve --svg /tmp/kroA200.svg
//   $ TSPOPT_REPORT=/tmp/r.json ./examples/tsplib_tool vm1084 --solve
//
// Exercises the full TSPLIB substrate (parser, writer, metrics, catalog,
// tour files, SVG) plus the engine factory. Telemetry is env-driven as in
// every binary: TSPOPT_REPORT=<file> writes the run report,
// TSPOPT_SAMPLE_MS=<ms> adds its timeseries section, TSPOPT_LOG and
// TSPOPT_TRACE as in README "Observability".
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/runinfo.hpp"
#include "obs/sampler.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/local_search.hpp"
#include "solver/obs_adapters.hpp"
#include "solver/simd.hpp"
#include "solver/twoopt_generic.hpp"
#include "tsp/catalog.hpp"
#include "tsp/svg.hpp"
#include "tsp/tour_io.hpp"
#include "tsp/tsplib.hpp"

int main(int argc, char** argv) {
  using namespace tspopt;

  CliParser cli("tsplib_tool", "inspect and solve TSPLIB instances");
  cli.add_positional("instance", "TSPLIB file path or catalog name");
  cli.add_flag("solve", "descend to the 2-opt local minimum");
  cli.add_option("engine", "2-opt engine (see --engines)", "cpu-parallel");
  cli.add_option("seconds", "solve time budget", "30");
  cli.add_option("svg", "write the tour as SVG to this path");
  cli.add_option("tour", "write the tour in TSPLIB format to this path");
  cli.add_flag("engines", "list available engine names and exit");
  cli.add_flag("list-engines",
               "list engines with one-line descriptions and exit");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.has("engines")) {
    for (const std::string& name : EngineFactory::available()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (cli.has("list-engines")) {
    std::size_t width = 0;
    for (const auto& info : EngineFactory::roster()) {
      width = std::max(width, info.name.size());
    }
    for (const auto& info : EngineFactory::roster()) {
      std::cout << info.name << std::string(width - info.name.size() + 2, ' ')
                << info.description << "\n";
    }
    return 0;
  }

  // Live telemetry, all env-driven: TSPOPT_LOG (JSONL event log),
  // TSPOPT_SAMPLE_MS (registry time series for the report).
  obs::Log::global();
  obs::Sampler* sampler = obs::Sampler::global_from_env();

  std::string target = cli.positional(0).value_or("berlin52");
  bool solve = cli.has("solve") || !cli.positional(0).has_value();

  WallTimer parse_timer;
  Instance instance = [&]() {
    std::ifstream probe(target);
    if (probe.good()) {
      std::cout << "parsing TSPLIB file: " << target << "\n";
      try {
        return load_tsplib(target);
      } catch (const CheckError& e) {
        std::cerr << "parse error in " << target << ": " << e.what() << "\n";
        std::exit(2);
      }
    }
    auto entry = find_catalog_entry(target);
    if (!entry) {
      std::cerr << "not a readable file and not a catalog name: " << target
                << "\ncatalog names: ";
      for (const auto& e : paper_catalog()) std::cerr << e.name << " ";
      std::cerr << "\n";
      std::exit(2);
    }
    std::cout << "materializing catalog instance: " << target
              << (target == "berlin52" ? " (real TSPLIB data)"
                                       : " (synthetic stand-in)")
              << "\n";
    return make_catalog_instance(*entry);
  }();
  double parse_seconds = parse_timer.seconds();

  std::cout << "name:      " << instance.name() << "\n"
            << "cities:    " << instance.n() << "\n"
            << "metric:    " << to_string(instance.metric()) << "\n"
            << "parsed in: " << parse_seconds * 1e3 << " ms\n";
  if (instance.has_coordinates()) {
    auto [lo, hi] = instance.bounding_box();
    std::cout << "bounds:    [" << lo.x << ", " << lo.y << "] .. [" << hi.x
              << ", " << hi.y << "]\n";
  }
  std::cout << "2-opt pairs per pass: " << pair_count(instance.n()) << "\n"
            << "run id:    " << obs::run_id() << "\n"
            << "started:   " << obs::rfc3339_utc_now_ms() << "\n"
            << "simd:      " << simd::active().name << " (width "
            << simd::active().width << ")\n"
            << "threads:   " << ThreadPool::shared().size() << "\n"
            << "git:       " << obs::git_describe() << "\n";

  obs::RunReport report;
  describe_environment(report);
  report.set_instance(instance.name(), instance.n(),
                      to_string(instance.metric()));
  report.set_config("source", target);
  report.set_summary("parse_seconds", parse_seconds);

  // The factory's k-NN lists seed the MF start and any pruned engine.
  EngineFactory factory(&instance);
  Tour tour = instance.metric() == Metric::kExplicit
                  ? nearest_neighbor(instance)
                  : multiple_fragment(instance, factory.neighbor_lists());
  std::cout << "constructive tour: " << tour.length(instance) << "\n";
  report.set_summary("constructive_length",
                     static_cast<double>(tour.length(instance)));

  if (solve) {
    std::unique_ptr<TwoOptEngine> engine;
    if (instance.euclidean_like()) {
      engine = factory.create(cli.get("engine"));
    } else {
      std::cout << "(non-EUC_2D metric: using the metric-generic engine)\n";
      engine = std::make_unique<TwoOptGeneric>();
    }
    LocalSearchOptions opts;
    opts.time_limit_seconds = cli.get_double("seconds", 30.0);
    LocalSearchStats stats = local_search(*engine, instance, tour, opts);
    std::cout << "2-opt [" << engine->name() << "] "
              << (stats.reached_local_minimum ? "local minimum"
                                              : "(time-capped)")
              << ": " << tour.length(instance) << "  in "
              << stats.wall_seconds << " s, " << stats.moves_applied
              << " moves, " << stats.checks << " checks\n";
    report.set_engine(engine->name());
    report.set_summary("optimized_length",
                       static_cast<double>(tour.length(instance)));
    report.set_summary("solve_seconds", stats.wall_seconds);
    report.set_summary("moves_applied",
                       static_cast<double>(stats.moves_applied));
    report.set_summary("checks", static_cast<double>(stats.checks));
    if (stats.wall_seconds > 0.0) {
      report.set_summary("checks_per_sec", static_cast<double>(stats.checks) /
                                               stats.wall_seconds);
    }
  }

  if (cli.has("tour")) {
    save_tsplib_tour(cli.get("tour"), tour, instance.name(),
                     tour.length(instance));
    std::cout << "wrote tour to " << cli.get("tour") << "\n";
  }
  if (cli.has("svg") && instance.has_coordinates()) {
    save_svg(cli.get("svg"), instance, &tour);
    std::cout << "wrote SVG to " << cli.get("svg") << "\n";
  }

  // Round-trip demonstration: write the instance back out as TSPLIB.
  if (instance.metric() != Metric::kExplicit) {
    std::string out_path = "/tmp/" + instance.name() + "_roundtrip.tsp";
    save_tsplib(out_path, instance);
    std::cout << "wrote TSPLIB copy to " << out_path << "\n";
  }

  // Machine-readable run report when TSPOPT_REPORT is set.
  if (sampler != nullptr) {
    sampler->stop();
    sampler->sample_now();  // final state closes every series
    report.set_timeseries(*sampler);
  }
  report.set_metrics(obs::Registry::global());
  std::string report_path = report.write_if_requested();
  if (!report_path.empty()) {
    std::cout << "wrote run report to " << report_path << "\n";
  }
  return 0;
}
