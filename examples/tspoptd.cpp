// tspoptd — the solve-service daemon.
//
// Serves the line-delimited-JSON solve protocol (see serve/daemon.hpp) on
// 127.0.0.1 over a pool of simulated SIMT devices:
//
//   $ ./examples/tspoptd --port 7878 --devices 3 --workers 4
//   tspoptd listening on 127.0.0.1:7878 (4 workers, 3 devices) run <id>
//
// `--port 0` binds an ephemeral port (printed on the first line and, with
// `--port-file`, written to a file — the race-free startup handshake
// ci.sh uses). `--flaky` makes one card drop a fraction of launches, so
// the per-job fault quarantine/retry machinery is observable in the
// telemetry of a live server.
//
// `--admin-port N` (0 = ephemeral, `--admin-port-file` for the handshake)
// additionally serves the HTTP admin plane on 127.0.0.1: /metrics
// (Prometheus text), /healthz, /readyz (503 while draining or when the
// journal is unhealthy), /statusz and /tracez. The admin listener stays
// up through a SIGTERM drain so probes observe the drain.
//
// Signals: SIGTERM drains (stops admission, finishes every queued and
// running job, then exits 143); SIGINT cancels the backlog and stops
// running jobs at their next hook poll (exits 130). Both paths flush all
// telemetry sinks (JSONL log, trace, sampler dump) before exiting.
// Telemetry is env-driven as everywhere else: TSPOPT_LOG,
// TSPOPT_SAMPLE_MS, TSPOPT_TRACE, TSPOPT_PROFILE (whole-lifetime CPU
// profile; for an on-demand window on a live daemon use GET
// /profilez?seconds=N instead). Metrics are served live at /metrics.
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "obs/flush.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/runinfo.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/shutdown.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"
#include "simt/fault.hpp"

int main(int argc, char** argv) {
  using namespace tspopt;

  CliParser cli("tspoptd", "TSP solve-service daemon (line-delimited JSON)");
  cli.add_option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "7878");
  cli.add_option("port-file", "write the bound port to this file");
  cli.add_option("admin-port",
                 "HTTP admin plane port: /metrics /healthz /readyz /statusz "
                 "/tracez /profilez (0 = ephemeral; omit to disable)");
  cli.add_option("admin-port-file", "write the bound admin port to this file");
  cli.add_option("profilez-max-seconds",
                 "longest /profilez capture honored (0 = disable the "
                 "endpoint)",
                 "60");
  cli.add_option("devices", "simulated devices in the pool", "2");
  cli.add_option("workers", "scheduler worker threads", "2");
  cli.add_option("queue", "queued-job capacity (backpressure bound)", "16");
  cli.add_option("journal-dir",
                 "write-ahead job journal directory (crash-safe restart "
                 "recovery; empty = in-memory only)");
  cli.add_option("checkpoint-every",
                 "ILS iterations between per-job spool checkpoints "
                 "(needs --journal-dir; 0 = off)",
                 "64");
  cli.add_option("max-batch",
                 "micro-batcher: most batchable same-key jobs one worker "
                 "coalesces into a single batch pass (1 = off)",
                 "8");
  cli.add_option("batch-wait-ms",
                 "micro-batcher: how long a batchable lead job lingers for "
                 "followers (0 = take only what is already queued)",
                 "2");
  cli.add_flag("flaky", "inject transient launch faults on one device");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }

  obs::Log::global();
  obs::Sampler::global_from_env();
  obs::Profiler::global_from_env();
  // Label this process's track in the Chrome trace export, so a client
  // export concatenated with ours reads as two named process lanes.
  obs::Tracer::global().set_process_name("tspoptd");
  obs::install_flush_hooks();
  serve::ShutdownSignal& shutdown = serve::ShutdownSignal::global();
  shutdown.install();

  auto device_count = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("devices", 2)));
  simt::FaultPlan plan(1);
  if (cli.has("flaky")) {
    plan.inject_random("gpu0", simt::FaultKind::kLaunchFailure, 0.05);
  }
  simt::FaultInjector injector(plan);
  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  for (std::size_t d = 0; d < device_count; ++d) {
    owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
    owned.back()->set_label("gpu" + std::to_string(d));
    if (cli.has("flaky")) owned.back()->set_fault_injector(&injector);
    devices.push_back(owned.back().get());
  }
  simt::DevicePool pool(devices);

  serve::DaemonOptions options;
  options.port = static_cast<std::uint16_t>(cli.get_int("port", 7878));
  options.scheduler.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("workers", 2)));
  options.scheduler.queue_capacity = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("queue", 16)));
  if (cli.has("journal-dir")) {
    options.scheduler.journal_dir = cli.get("journal-dir");
    options.scheduler.checkpoint_every_iterations =
        cli.get_int("checkpoint-every", 64);
  }
  options.scheduler.batcher.max_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("max-batch", 8)));
  options.scheduler.batcher.max_wait_ms =
      std::max(0.0, cli.get_double("batch-wait-ms", 2.0));
  if (cli.has("admin-port")) {
    options.admin_port = static_cast<int>(cli.get_int("admin-port", 0));
  }
  options.profilez_max_seconds =
      static_cast<double>(cli.get_int("profilez-max-seconds", 60));

  serve::Daemon daemon(pool, options);
  try {
    daemon.start();
  } catch (const CheckError& e) {
    std::cerr << "tspoptd: " << e.what() << "\n";
    return 2;
  }
  std::cout << "tspoptd listening on 127.0.0.1:" << daemon.port() << " ("
            << options.scheduler.workers << " workers, " << device_count
            << " devices) run " << obs::run_id() << std::endl;
  if (!options.scheduler.journal_dir.empty()) {
    std::cout << "tspoptd: journal " << options.scheduler.journal_dir
              << ", recovered " << daemon.scheduler().stats().recovered
              << " job(s)" << std::endl;
  }
  if (daemon.admin_port() != 0) {
    std::cout << "tspoptd: admin on 127.0.0.1:" << daemon.admin_port()
              << " (/metrics /healthz /readyz /statusz /tracez /profilez)"
              << std::endl;
  }
  if (cli.has("port-file")) {
    std::ofstream out(cli.get("port-file"));
    out << daemon.port() << "\n";
  }
  if (cli.has("admin-port-file") && daemon.admin_port() != 0) {
    std::ofstream out(cli.get("admin-port-file"));
    out << daemon.admin_port() << "\n";
  }

  while (!shutdown.requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // SIGTERM = graceful drain (queued + running jobs finish); SIGINT =
  // fast stop (backlog cancelled, running jobs stop at the next poll).
  bool drain = shutdown.signal() == SIGTERM;
  std::cout << "tspoptd: caught " << (drain ? "SIGTERM" : "SIGINT")
            << (drain ? ", draining " : ", cancelling ")
            << daemon.scheduler().stats().queue_depth +
                   daemon.scheduler().stats().active_jobs
            << " live job(s)" << std::endl;
  daemon.stop(drain);
  pool.close();

  serve::Scheduler::Stats stats = daemon.scheduler().stats();
  std::cout << "tspoptd: done — " << stats.finished << " finished, "
            << stats.cancelled << " cancelled, " << stats.expired
            << " expired, " << stats.failed << " failed ("
            << stats.retries << " retries)" << std::endl;
  obs::flush_all_telemetry();
  return shutdown.exit_code();
}
