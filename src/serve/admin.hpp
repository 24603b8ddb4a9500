// The tspoptd HTTP admin plane: /metrics, /healthz, /readyz, /statusz,
// /tracez.
//
// mount_admin() registers the five operational endpoints on an
// obs::HttpServer over a running Scheduler. The split of the three probe
// endpoints follows the usual orchestration contract:
//
//   /healthz  — liveness: the process is up and its admin loop answers.
//               Always 200 while the server runs.
//   /readyz   — readiness: the service can accept, durably record and
//               eventually run a job. 503 with the failing leg named in
//               the body when the daemon is draining (SIGTERM), the
//               journal's last append/fsync failed, or the device pool is
//               closed. A load balancer stops routing here first.
//   /statusz  — the human/debug view: run identity, uptime, queue depth
//               and oldest-age, scheduler counters, per-phase latency
//               quantiles (count/p50/p99 from the serve.job_phase_us
//               histograms), journal segment stats, and every active job
//               (with its distributed trace id) as JSON.
//   /tracez   — the slowest settled jobs (the scheduler's tracez ring)
//               with their per-phase wait/lease/run/settle breakdown;
//               `?n=` limits the count.
//   /metrics  — the live Prometheus text exposition of the global
//               registry, pull-based and always current.
//   /profilez — on-demand CPU profile of the live daemon:
//               `?seconds=N[&hz=H]` runs a sampling-profiler capture
//               (obs/profiler) and answers with collapsed stacks,
//               flamegraph.pl-ready. Deferred on the admin loop, so
//               /healthz and /readyz stay live during the capture; at
//               most one capture runs at a time (the second asks get
//               503); a dropped connection cancels the capture.
//
// Handlers run on the HTTP server's thread and only read scheduler state
// through its thread-safe accessors; everything referenced by the
// AdminContext must outlive the server.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "obs/http.hpp"
#include "serve/scheduler.hpp"

namespace tspopt::serve {

struct AdminContext {
  Scheduler* scheduler = nullptr;  // required; must outlive the server

  // Optional extra not-ready signal (the daemon flips this the moment
  // stop() begins, before the queue is closed, so probes see the drain
  // with no window). Null = rely on scheduler->readiness() alone.
  std::function<bool()> draining;

  // Daemon start time, for /statusz uptime and started_at.
  std::chrono::system_clock::time_point started_at{};
  std::chrono::steady_clock::time_point started_steady{};

  std::uint16_t serve_port = 0;  // the JSON protocol port, for /statusz

  // Longest capture /profilez?seconds=N will honor (requests are clamped
  // to it); <= 0 disables the endpoint entirely (it answers 404).
  double profilez_max_seconds = 60.0;
};

void mount_admin(obs::HttpServer& server, AdminContext context);

}  // namespace tspopt::serve
