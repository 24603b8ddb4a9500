// A complete TSP solver: Iterated Local Search (the paper's Algorithm 1)
// over the accelerated 2-opt, with the Or-opt extension as a finishing
// pass. This is the "downstream user" workload the paper motivates —
// solve a large instance to good quality, fast.
//
//   $ ./examples/ils_solver [n] [seconds] [seed] [engine] [iters]
//
// Defaults: n=2000 clustered cities, 10 s budget, seed 1, the
// cpu-parallel engine, unbounded iterations. `engine` is any
// EngineFactory roster name — the pruned engines (cpu-pruned,
// cpu-simd-pruned, gpu-pruned) make n >= 100k runs routine; `iters`
// bounds the ILS perturbation loop (-1 = until the time budget).
//
// Observability: set TSPOPT_TRACE=<file> for a Chrome/Perfetto trace of
// the run, TSPOPT_REPORT=<file> for a machine-readable run report
// (summary, convergence curve, metrics snapshot, time series, CPU
// profile attribution), TSPOPT_LOG=<level>[,path] for the structured
// JSONL event log, TSPOPT_SAMPLE_MS=<ms> for registry time-series
// sampling, TSPOPT_PROM=<file>[,ms] for a Prometheus exposition file
// (refreshed on SIGUSR1 too), and TSPOPT_PROFILE=<file>[,hz] for a
// span-attributed sampling CPU profile written as collapsed stacks. See
// README "Observability", "Live telemetry" and "Profiling".
#include <cstdlib>
#include <iostream>

#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/runinfo.hpp"
#include "obs/sampler.hpp"
#include "simt/device.hpp"
#include "solver/obs_adapters.hpp"
#include "solver/constructive.hpp"
#include "solver/ils.hpp"
#include "solver/engine_factory.hpp"
#include "solver/or_opt.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbor_lists.hpp"
#include "tsp/svg.hpp"
#include "tsp/tour_io.hpp"

int main(int argc, char** argv) {
  using namespace tspopt;

  std::int32_t n = argc > 1 ? std::atoi(argv[1]) : 2000;
  double seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
  std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  std::string engine_name = argc > 4 ? argv[4] : "cpu-parallel";
  std::int64_t iters = argc > 5 ? std::atoll(argv[5]) : -1;
  if (n < 8) {
    std::cerr << "usage: ils_solver [n>=8] [seconds] [seed] [engine] "
                 "[iters]\n";
    return 2;
  }

  // Live telemetry, all env-driven (see header comment).
  obs::Log::global();
  obs::Sampler* sampler = obs::Sampler::global_from_env();
  obs::PromExporter::global_from_env();
  obs::Profiler* profiler = obs::Profiler::global_from_env();

  Instance instance =
      generate_clustered("demo" + std::to_string(n), n,
                         std::max(4, n / 250), seed);
  std::cout << "solving " << instance.name() << " (" << n << " cities), "
            << seconds << " s budget  [run " << obs::run_id() << "]\n";

  // Any roster engine by name: the parallel-CPU 2-opt by default, the
  // candidate-list engines for large n, the gpu-* classes to run on the
  // SIMT simulator. The factory's k-NN lists also seed the MF start.
  EngineFactory factory(&instance);
  Tour initial = multiple_fragment(instance, factory.neighbor_lists());
  std::cout << "multiple-fragment start: " << initial.length(instance)
            << "\n";

  std::unique_ptr<TwoOptEngine> engine = factory.create(engine_name);
  std::cout << "engine: " << engine->name() << "\n";
  IlsOptions opts;
  opts.time_limit_seconds = seconds;
  opts.max_iterations = iters;
  opts.seed = seed;
  IlsResult result = iterated_local_search(*engine, instance, initial, opts);

  std::cout << "ILS: " << result.best_length << " after "
            << result.iterations << " iterations ("
            << result.improvements << " accepted), "
            << static_cast<double>(result.checks) / 1e6 << " M checks\n";
  std::cout << "convergence trace (" << result.trace.size() << " points):\n";
  for (const IlsTracePoint& p : result.trace) {
    std::cout << "  t=" << p.seconds << "s  len=" << p.length
              << "  iter=" << p.iteration << "\n";
  }

  // Finishing pass: Or-opt segment relocation (paper §VII).
  Tour best = result.best;
  OrOptStats or_stats =
      or_opt_descend(instance, best, factory.neighbor_lists());
  std::cout << "after Or-opt finishing: " << best.length(instance) << "  (-"
            << or_stats.improvement << " from " << or_stats.moves_applied
            << " relocations)\n";

  // Machine-readable run report when TSPOPT_REPORT is set.
  obs::RunReport report;
  describe_environment(report);
  report.set_instance(instance.name(), n, "EUC_2D");
  report.set_engine(engine->name());
  report.set_config("seed", std::to_string(seed));
  report.set_config("time_limit_seconds", std::to_string(seconds));
  report_ils(report, result);
  report.set_summary("initial_length",
                     static_cast<double>(initial.length(instance)));
  report.set_summary("or_opt_length",
                     static_cast<double>(best.length(instance)));
  report.set_summary("or_opt_moves",
                     static_cast<double>(or_stats.moves_applied));
  if (sampler != nullptr) {
    sampler->stop();
    sampler->sample_now();  // final state closes every series
    report.set_timeseries(*sampler);
  }
  if (profiler != nullptr) {
    // Stop before reading: the final drain folds the last ring contents,
    // so the attribution table covers the whole solve. The flush hooks
    // write the collapsed stacks and the Chrome sampler track at exit.
    profiler->stop();
    report.set_profile(*profiler);
  }
  report.set_metrics(obs::Registry::global());
  std::string report_path = report.write_if_requested();
  if (!report_path.empty()) {
    std::cout << "wrote run report to " << report_path << "\n";
  }

  // Persist the result in standard TSPLIB tour format plus a picture.
  std::string stem = "/tmp/" + instance.name();
  save_tsplib_tour(stem + ".tour", best, instance.name(),
                   best.length(instance));
  save_svg(stem + ".svg", instance, &best);
  std::cout << "wrote " << stem << ".tour and " << stem << ".svg\n";
  return 0;
}
