// Solve-service benchmarks: scheduler scaling, the micro-batcher's
// batched-vs-per-job throughput, and population ILS vs single-start.
//
// Three sections:
//   1. Worker scaling — job completion rate and queue wait vs scheduler
//      worker count when many small jobs share one device pool.
//   2. Micro-batcher burst — the same 32-job burst of identical-shape
//      n=1000 jobs run twice: per-job (batcher off, each job its own
//      gpu-small descent) and coalesced (one batch-gpu pass drives all
//      tours per launch). The host is a simulator, so the win is priced
//      with the analytic device model from the counted work (launches,
//      checks, transfers) — exactly how bench_table2 reproduces the
//      paper's timing columns. Per-job results must be bit-identical
//      across the two paths, and the modeled aggregate search throughput
//      must be >= 3x batched over per-job (the launch overhead + occupancy
//      ramp amortization the batch subsystem exists for).
//   3. Population ILS — B-way population_ils (batch-gpu, best-replaces-
//      worst migration) vs a single-start ILS given the same modeled
//      device wall-clock; the population best must be no worse.
//
// With --out-dir the run also emits BENCH_serve.json (tspopt.bench_report
// v1) for scripts/bench_compare.py: best_length metrics are exact,
// *_per_sec metrics are modeled from deterministic counters so they gate
// cleanly on any machine.
//
// Environment: REPRO_SERVE_JOBS overrides the jobs-per-configuration
// count for section 1; REPRO_SCALE=full scales everything up (--smoke
// forces the reduced matrix). REPRO_ARTIFACTS exports tables as CSV.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchsup/report.hpp"
#include "benchsup/table.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"
#include "simt/perf_model.hpp"
#include "solver/batch/batch_local_search.hpp"
#include "solver/batch/batch_twoopt_gpu.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/constructive.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_gpu.hpp"
#include "tsp/generator.hpp"

namespace {

using namespace tspopt;
using namespace tspopt::benchsup;

// Section 1: job throughput and queue wait vs scheduler workers.
int bench_worker_scaling(int jobs) {
  std::cout << "=== Solve-service throughput vs scheduler workers ("
            << jobs << " jobs, 4 devices, berlin52 @ 1 ILS iteration) ===\n\n";

  Table table({"Workers", "Wall", "Jobs/s", "Mean wait", "Mean run",
               "Finished", "Rejected"});

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::unique_ptr<simt::Device>> owned;
    std::vector<simt::Device*> devices;
    for (int d = 0; d < 4; ++d) {
      owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
      owned.back()->set_label("gpu" + std::to_string(d));
      devices.push_back(owned.back().get());
    }
    simt::DevicePool pool(devices);

    serve::SchedulerOptions options;
    options.workers = workers;
    options.queue_capacity = static_cast<std::size_t>(jobs);
    serve::Scheduler scheduler(pool, options);

    serve::JobSpec spec;
    spec.catalog = "berlin52";
    spec.engine = "gpu-small";
    spec.max_iterations = 1;
    spec.time_limit_seconds = 10.0;  // iteration-bounded

    WallTimer timer;
    std::vector<std::uint64_t> ids;
    std::uint64_t rejected = 0;
    for (int j = 0; j < jobs; ++j) {
      spec.seed = static_cast<std::uint64_t>(j + 1);
      serve::Scheduler::Admission a = scheduler.submit(spec);
      if (a.accepted) {
        ids.push_back(a.id);
      } else {
        ++rejected;  // capacity sized to `jobs`, so normally zero
      }
    }
    scheduler.drain();
    double wall = timer.seconds();

    double wait_sum = 0.0, run_sum = 0.0;
    for (std::uint64_t id : ids) {
      std::shared_ptr<const serve::Job> job = scheduler.find(id);
      wait_sum += job->phase_seconds(serve::JobPhase::kWait);
      run_sum += job->phase_seconds(serve::JobPhase::kRun);
    }
    serve::Scheduler::Stats stats = scheduler.stats();
    double denom = ids.empty() ? 1.0 : static_cast<double>(ids.size());
    table.add_row({std::to_string(workers), fmt_us(wall * 1e6),
                   fmt_fixed(static_cast<double>(stats.finished) / wall, 1),
                   fmt_us(wait_sum / denom * 1e6),
                   fmt_us(run_sum / denom * 1e6),
                   std::to_string(stats.finished),
                   std::to_string(rejected)});
    if (stats.finished != ids.size()) {
      std::cerr << "lost jobs at workers=" << workers << ": accepted "
                << ids.size() << ", finished " << stats.finished << "\n";
      return 1;
    }
  }

  table.print(std::cout);
  std::string csv = maybe_export_csv(table, "serve_throughput");
  if (!csv.empty()) std::cout << "\nwrote " << csv << "\n";
  return 0;
}

// Section 2 helper: run one burst of identical-shape batchable jobs
// through a fresh scheduler and return the host wall, the device work
// counted during the run, and every job's result in submit (seed) order.
struct BurstOutcome {
  double wall_seconds = 0.0;
  simt::PerfCounters::Snapshot work{};
  std::vector<serve::JobResult> results;
  std::uint64_t batches = 0;
  std::uint64_t batched_jobs = 0;
};

BurstOutcome run_burst(const Instance& instance, int jobs,
                       std::int64_t iterations, std::size_t max_batch) {
  auto device = std::make_unique<simt::Device>(simt::gtx680_cuda());
  device->set_label("gpu0");
  std::vector<simt::Device*> devices{device.get()};
  simt::DevicePool pool(devices);

  serve::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = static_cast<std::size_t>(jobs);
  options.batcher.max_batch = max_batch;
  // A generous linger: the lead returns the moment the batch is full, so
  // this only bounds how long it would wait for a straggling submit.
  options.batcher.max_wait_ms = 1000.0;
  serve::Scheduler scheduler(pool, options);

  serve::JobSpec spec;
  spec.instance_name = instance.name();
  spec.points.assign(instance.points().begin(), instance.points().end());
  spec.engine = "gpu-small";
  spec.max_iterations = iterations;  // iteration-bounded: deterministic
  spec.time_limit_seconds = 600.0;
  spec.batchable = true;

  WallTimer timer;
  std::vector<std::uint64_t> ids;
  for (int j = 0; j < jobs; ++j) {
    spec.seed = static_cast<std::uint64_t>(j + 1);
    serve::Scheduler::Admission a = scheduler.submit(spec);
    TSPOPT_CHECK_MSG(a.accepted, "burst submit rejected: " << a.error);
    ids.push_back(a.id);
  }
  scheduler.drain();

  BurstOutcome out;
  out.wall_seconds = timer.seconds();
  out.work = device->counters().snapshot();
  for (std::uint64_t id : ids) {
    std::shared_ptr<const serve::Job> job = scheduler.find(id);
    TSPOPT_CHECK_MSG(job != nullptr && job->state() == serve::JobState::kFinished,
                     "burst job " << id << " did not finish");
    out.results.push_back(job->result());
  }
  serve::Scheduler::Stats stats = scheduler.stats();
  out.batches = stats.batches;
  out.batched_jobs = stats.batched_jobs;
  return out;
}

// Section 2: the micro-batcher's aggregate throughput on a burst of
// identical-shape jobs, priced with the analytic device model.
int bench_batcher_burst(bool smoke, std::vector<BenchResult>& report) {
  const std::int32_t n = smoke ? 300 : 1000;
  const int jobs = 32;
  const std::int64_t iterations = smoke ? 1 : 2;

  Instance instance = generate_uniform("burst" + std::to_string(n), n, 5);
  // Every 2-opt pass sweeps the same fixed pair count, so one probe search
  // converts counted checks into searches (tour-passes) exactly.
  std::uint64_t checks_per_search = 0;
  {
    simt::Device probe(simt::gtx680_cuda());
    TwoOptGpuSmall probe_engine(probe);
    Tour probe_tour = multiple_fragment(instance);
    checks_per_search = probe_engine.search(instance, probe_tour).checks;
  }
  TSPOPT_CHECK(checks_per_search > 0);

  std::cout << "\n=== Micro-batcher: " << jobs << "-job burst, n=" << n
            << ", " << iterations << " ILS iteration(s), 1 worker, 1 device"
            << " ===\n\n";

  BurstOutcome per_job = run_burst(instance, jobs, iterations, 1);
  BurstOutcome batched = run_burst(instance, jobs, iterations, jobs);

  // The batched path must answer every job exactly like the per-job path.
  TSPOPT_CHECK(per_job.results.size() == batched.results.size());
  for (std::size_t j = 0; j < per_job.results.size(); ++j) {
    const serve::JobResult& a = per_job.results[j];
    const serve::JobResult& b = batched.results[j];
    TSPOPT_CHECK_MSG(a.best_length == b.best_length &&
                         a.iterations == b.iterations &&
                         a.improvements == b.improvements &&
                         a.checks == b.checks && a.order == b.order,
                     "batched result diverges from per-job at job " << j);
  }
  TSPOPT_CHECK_MSG(batched.batches >= 1 &&
                       batched.batched_jobs == static_cast<std::uint64_t>(jobs),
                   "burst was not coalesced: " << batched.batches
                                               << " batches, "
                                               << batched.batched_jobs
                                               << " batched jobs");

  simt::PerfModel model(simt::gtx680_cuda());
  Table table({"Path", "Batches", "Launches", "Searches", "Modeled device",
               "Searches/s (modeled)", "Wall (host)"});
  auto add = [&](const std::string& label, const BurstOutcome& o,
                 double* searches_per_sec) {
    double searches = static_cast<double>(o.work.checks) /
                      static_cast<double>(checks_per_search);
    double modeled_seconds = model.price(o.work).total_us() / 1e6;
    double rate = modeled_seconds > 0.0 ? searches / modeled_seconds : 0.0;
    *searches_per_sec = rate;
    table.add_row({label, std::to_string(o.batches),
                   std::to_string(o.work.kernel_launches),
                   fmt_fixed(searches, 0), fmt_us(modeled_seconds * 1e6),
                   fmt_fixed(rate, 0), fmt_us(o.wall_seconds * 1e6)});
    return searches;
  };
  double per_job_rate = 0.0, batched_rate = 0.0;
  add("per-job", per_job, &per_job_rate);
  add("batched", batched, &batched_rate);
  table.print(std::cout);
  std::string csv = maybe_export_csv(table, "serve_batcher");
  if (!csv.empty()) std::cout << "\nwrote " << csv << "\n";

  double speedup = per_job_rate > 0.0 ? batched_rate / per_job_rate : 0.0;
  std::cout << "\nmodeled aggregate speedup (batched / per-job): "
            << fmt_fixed(speedup, 2) << "x\n";
  if (speedup < 3.0) {
    std::cerr << "micro-batcher speedup " << speedup << "x is below the 3x "
              << "acceptance bar\n";
    return 1;
  }

  const std::string suffix =
      "/n" + std::to_string(n) + "x" + std::to_string(jobs);
  report.push_back(
      {"serve/burst_perjob" + suffix,
       {{"searches_per_sec", per_job_rate},
        {"best_length", static_cast<double>(per_job.results[0].best_length)},
        {"wall_seconds", per_job.wall_seconds}}});
  report.push_back(
      {"serve/burst_batched" + suffix,
       {{"searches_per_sec", batched_rate},
        {"best_length", static_cast<double>(batched.results[0].best_length)},
        {"batch_speedup", speedup},
        {"wall_seconds", batched.wall_seconds}}});
  return 0;
}

// Section 3: B-way population ILS vs a single-start ILS holding the same
// modeled device wall-clock. The population rides the batch engine (its
// whole round is a handful of launches), so at equal modeled time it
// sweeps several times more candidate tours; migration then concentrates
// that extra coverage on the best basin.
int bench_population(bool smoke, std::vector<BenchResult>& report) {
  const std::int32_t n = smoke ? 300 : 1000;
  const std::int32_t population = smoke ? 16 : 64;
  const std::int64_t rounds = smoke ? 6 : 8;

  Instance instance = generate_uniform("pop" + std::to_string(n), n, 11);
  simt::PerfModel model(simt::gtx680_cuda());

  simt::Device pop_device(simt::gtx680_cuda());
  TSPOPT_CHECK(n <= TwoOptGpuSmall::max_cities(pop_device));
  BatchTwoOptGpu pop_engine(pop_device);

  // Both strategies start from the same 2-opt local minimum (constructive
  // + one descent, priced against the population's budget). Without this
  // the population would pay for B identical copies of the same initial
  // descent — pure waste that says nothing about either strategy.
  Tour initial = multiple_fragment(instance);
  {
    TourBatch seed_batch(instance, std::vector<Tour>{initial});
    batch_local_search(pop_engine, seed_batch);
    initial = seed_batch.tour(0);
  }
  std::vector<PopulationMemberOptions> members =
      population_members(population, /*seed=*/1);
  for (PopulationMemberOptions& m : members) m.max_iterations = rounds;
  PopulationIlsOptions popts;
  popts.time_limit_seconds = -1.0;
  popts.migrate_every = 4;
  PopulationIlsResult pop =
      population_ils(pop_engine, instance,
                     std::vector<Tour>(static_cast<std::size_t>(population),
                                       initial),
                     members, popts);
  const double pop_modeled_us =
      model.price(pop_device.counters().snapshot()).total_us();

  // Single start, same engine class solo, stopped by the model's clock at
  // the population's modeled budget. The stop hook is polled between
  // iterations, so the single start gets the full budget and then some.
  simt::Device solo_device(simt::gtx680_cuda());
  TwoOptGpuSmall solo_engine(solo_device);
  IlsOptions opts;
  opts.seed = 1;
  opts.time_limit_seconds = -1.0;
  opts.max_iterations = -1;
  opts.should_stop = [&] {
    return model.price(solo_device.counters().snapshot()).total_us() >=
           pop_modeled_us;
  };
  IlsResult single = iterated_local_search(solo_engine, instance, initial,
                                           opts);
  const double single_modeled_us =
      model.price(solo_device.counters().snapshot()).total_us();

  std::cout << "\n=== Population ILS (B=" << population << ", " << rounds
            << " rounds, migrate every " << popts.migrate_every
            << ") vs single start at equal modeled wall-clock, n=" << n
            << " ===\n\n";
  Table table({"Strategy", "Trajectories", "Iterations", "Modeled device",
               "Best length"});
  std::int64_t pop_iterations = 0;
  for (const IlsResult& m : pop.members) pop_iterations += m.iterations;
  table.add_row({"population", std::to_string(population),
                 std::to_string(pop_iterations), fmt_us(pop_modeled_us),
                 std::to_string(pop.best().best_length)});
  table.add_row({"single-start", "1", std::to_string(single.iterations),
                 fmt_us(single_modeled_us),
                 std::to_string(single.best_length)});
  table.print(std::cout);
  std::string csv = maybe_export_csv(table, "serve_population");
  if (!csv.empty()) std::cout << "\nwrote " << csv << "\n";

  if (pop.best().best_length > single.best_length) {
    std::cerr << "population best " << pop.best().best_length
              << " is worse than single-start best " << single.best_length
              << " at equal modeled wall-clock\n";
    return 1;
  }

  report.push_back(
      {"serve/population_b" + std::to_string(population) + "/n" +
           std::to_string(n),
       {{"best_length", static_cast<double>(pop.best().best_length)},
        {"iterations", static_cast<double>(pop_iterations)},
        {"modeled_us", pop_modeled_us}}});
  report.push_back(
      {"serve/single_start/n" + std::to_string(n),
       {{"best_length", static_cast<double>(single.best_length)},
        {"iterations", static_cast<double>(single.iterations)},
        {"modeled_us", single_modeled_us}}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serve",
                "solve-service benchmarks: worker scaling, micro-batcher "
                "burst throughput, population ILS");
  cli.add_option("out-dir",
                 "also write BENCH_serve.json here for bench_compare.py");
  cli.add_flag("smoke", "reduced matrix for CI smoke runs");
  cli.add_option("only",
                 "run only the sections whose name contains this substring "
                 "(workers | burst | population)");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  const bool smoke = cli.has("smoke") || !full_scale();
  const auto jobs = static_cast<int>(
      env_long_or("REPRO_SERVE_JOBS", smoke ? 32 : 128));
  const std::string only = cli.has("only") ? cli.get("only") : "";
  auto selected = [&only](const std::string& section) {
    return only.empty() || section.find(only) != std::string::npos;
  };

  int rc = 0;
  if (selected("workers")) rc = bench_worker_scaling(jobs);
  if (rc != 0) return rc;

  std::vector<BenchResult> report;
  if (selected("burst")) rc = bench_batcher_burst(smoke, report);
  if (rc != 0) return rc;
  if (selected("population")) rc = bench_population(smoke, report);
  if (rc != 0) return rc;

  if (cli.has("out-dir")) {
    write_report(cli.get("out-dir") + "/BENCH_serve.json", "serve", smoke,
                 report);
  }
  return 0;
}
