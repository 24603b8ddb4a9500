// Fault-tolerant multi-device ILS with checkpoint/resume.
//
// Runs the paper's Algorithm 1 on a simulated multi-GPU host where one
// card is flaky (seeded random launch failures and hangs) and another
// dies outright mid-run. The solver retries transient faults with
// exponential backoff, quarantines the dead card and re-deals its tiles
// to the survivors, and — because every pass merges with the canonical
// (delta, index) order — still produces the exact tours a fault-free run
// would. Midway we also "kill" the process and resume from the periodic
// checkpoint to show the continuation is bit-identical.
//
//   $ ./examples/fault_tolerant_ils [n] [iterations] [seed]
//
// Defaults: n=1200 clustered cities, 24 perturbation rounds, seed 1.
// Live telemetry (all env-driven): TSPOPT_LOG=<level>[,path] streams the
// retry/quarantine/fault decisions as JSONL events, TSPOPT_SAMPLE_MS=<ms>
// samples the metrics registry into the report's timeseries section, and
// TSPOPT_PROM=<file>[,ms] keeps a Prometheus exposition file fresh.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "obs/flush.hpp"
#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/runinfo.hpp"
#include "obs/sampler.hpp"
#include "serve/shutdown.hpp"
#include "simt/device.hpp"
#include "simt/fault.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/checkpoint.hpp"
#include "solver/constructive.hpp"
#include "solver/ils.hpp"
#include "solver/obs_adapters.hpp"
#include "solver/twoopt_multi.hpp"
#include "tsp/generator.hpp"

int main(int argc, char** argv) {
  using namespace tspopt;

  std::int32_t n = argc > 1 ? std::atoi(argv[1]) : 1200;
  std::int64_t iterations = argc > 2 ? std::atoll(argv[2]) : 24;
  std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  if (n < 8 || iterations < 1) {
    std::cerr << "usage: fault_tolerant_ils [n>=8] [iterations>=1] [seed]\n";
    return 2;
  }

  obs::Log::global();
  obs::Sampler* sampler = obs::Sampler::global_from_env();
  obs::PromExporter::global_from_env();
  obs::install_flush_hooks();

  // SIGINT/SIGTERM drain instead of killing the run mid-pass: the latch
  // feeds every ILS loop's should_stop hook, so the solver stops at the
  // next poll with the best tour so far (and the checkpoint already on
  // disk), telemetry flushes, and the process exits 128+signo.
  serve::ShutdownSignal& shutdown = serve::ShutdownSignal::global();
  shutdown.install();
  auto drain_requested = [&shutdown] { return shutdown.requested(); };
  auto drained_exit = [&shutdown](const IlsResult& at) {
    std::cout << "\ndrained on signal " << shutdown.signal() << " after "
              << at.iterations << " iterations (best " << at.best_length
              << "); telemetry flushed\n";
    obs::flush_all_telemetry();
    return shutdown.exit_code();
  };

  Instance instance = generate_clustered("flaky" + std::to_string(n), n,
                                         std::max(4, n / 250), seed);
  Tour initial = multiple_fragment(instance);
  std::cout << "solving " << instance.name() << " (" << n
            << " cities) on 3 simulated GPUs, one flaky, one dying  [run "
            << obs::run_id() << "]\n";

  // A three-card host: gpu1 drops ~10% of launches (transient — retries
  // clear it), gpu2 fails permanently from its 6th launch onward.
  simt::FaultPlan plan(seed);
  plan.inject_random("gpu1", simt::FaultKind::kLaunchFailure, 0.08);
  plan.inject_random("gpu1", simt::FaultKind::kHang, 0.02);
  plan.inject({.device = "gpu2",
               .kind = simt::FaultKind::kLaunchFailure,
               .first_launch = 6,
               .count = simt::FaultSpec::kForever});
  simt::FaultInjector injector(plan);

  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  for (int d = 0; d < 3; ++d) {
    owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
    owned.back()->set_label("gpu" + std::to_string(d));
    owned.back()->set_fault_injector(&injector);
    devices.push_back(owned.back().get());
  }

  MultiDeviceOptions mopts;
  mopts.backoff_initial_ms = 0.1;  // simulator faults clear instantly
  mopts.validate = true;           // cross-check accepted moves
  // A small tile forces a multi-tile deal so every card actually gets
  // work (tile=0 would fit these n in one tile on one card).
  std::int32_t tile = std::max<std::int32_t>(64, n / 8);
  TwoOptMultiDevice engine(devices, tile, mopts);

  const std::string ckpt = "/tmp/" + instance.name() + ".ckpt";
  IlsOptions opts;
  opts.time_limit_seconds = -1.0;  // iteration-bounded, for reproducibility
  opts.max_iterations = iterations;
  opts.seed = seed;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every = 4;
  opts.should_stop = drain_requested;

  // Leg 1: run halfway, then pretend the process was killed.
  IlsOptions half = opts;
  half.max_iterations = iterations / 2;
  IlsResult partial = iterated_local_search(engine, instance, initial, half);
  if (partial.stopped) return drained_exit(partial);
  std::cout << "\n-- process 'killed' after " << partial.iterations
            << " iterations, best " << partial.best_length << " --\n";

  // Leg 2: a fresh process loads the checkpoint and finishes the job. The
  // solo run checkpointed as a population of one and resumes as one.
  PopulationCheckpoint resume_from = load_population_checkpoint(ckpt);
  const IlsCheckpoint& at = resume_from.members.front();
  std::cout << "resuming from " << ckpt << " (iteration " << at.iterations
            << ", best " << at.best_length << ")\n";
  PerSlotBatchEngine slots(engine);
  IlsResult resumed =
      population_ils_resume(slots, instance, resume_from,
                            population_members(1, seed),
                            population_options(opts))
          .members.front();
  if (resumed.stopped) return drained_exit(resumed);

  // Reference: the same job never interrupted, on a healthy single device.
  simt::Device healthy(simt::gtx680_cuda());
  TwoOptMultiDevice ref_engine({&healthy}, tile);
  IlsOptions ref = opts;
  ref.checkpoint_path.clear();
  IlsResult straight =
      iterated_local_search(ref_engine, instance, initial, ref);
  if (straight.stopped) return drained_exit(straight);

  std::cout << "\nresumed run : " << resumed.best_length << " after "
            << resumed.iterations << " iterations\n";
  std::cout << "uninterrupted: " << straight.best_length << " after "
            << straight.iterations << " iterations\n";
  auto a = resumed.best.order();
  auto b = straight.best.order();
  std::cout << (resumed.best_length == straight.best_length &&
                        std::equal(a.begin(), a.end(), b.begin(), b.end())
                    ? "tours are BIT-IDENTICAL despite faults + kill/resume\n"
                    : "MISMATCH (bug!)\n");

  std::cout << "\nper-device health:\n";
  for (std::size_t d = 0; d < engine.device_count(); ++d) {
    const DeviceHealth& h = engine.health(d);
    auto snap = devices[d]->counters().snapshot();
    std::cout << "  " << h.label << ": " << h.failures << " failures, "
              << h.retries << " retries"
              << (h.quarantined ? ", QUARANTINED" : "") << "  (device: "
              << snap.launch_failures << " launch failures, " << snap.hangs
              << " hangs, " << snap.corrupted_results << " corruptions)\n";
  }
  std::cout << "tile re-deals: " << engine.redeals()
            << ", host fallback used: "
            << (engine.used_host_fallback() ? "yes" : "no") << "\n";

  // Machine-readable run report when TSPOPT_REPORT is set.
  obs::RunReport report;
  describe_environment(report);
  report.set_instance(instance.name(), n, "EUC_2D");
  report.set_engine(engine.name());
  report.set_config("seed", std::to_string(seed));
  report.set_config("max_iterations", std::to_string(iterations));
  report_ils(report, resumed);
  report_multi_device(report, engine);
  for (simt::Device* d : devices) describe_device(report, *d, -1.0);
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

  std::remove(ckpt.c_str());
  return 0;
}
