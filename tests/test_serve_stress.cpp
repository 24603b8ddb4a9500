// Concurrent-load stress test for the solve scheduler (ISSUE satellite):
// N submitter threads race mixed-priority jobs, cancellations and
// deadline expiries against a small worker pool, then we assert the
// queue invariants (no lost jobs, every accepted job terminal, counts
// reconcile) and that the metrics registry and the JSONL lifecycle log
// agree with the scheduler's own accounting.
//
// This file is its own test binary on purpose: it reconfigures the
// process-global obs::Log to a private JSONL file (with the rate limiter
// disabled, so reconciliation is exact) and reads global registry
// counters as before/after deltas.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"

namespace tspopt::serve {
namespace {

struct CounterSnapshot {
  std::uint64_t accepted = 0, rejected_full = 0, rejected_invalid = 0,
                started = 0, finished = 0, failed = 0, cancelled = 0,
                expired = 0;
  std::uint64_t wait_observations = 0;

  static CounterSnapshot take() {
    obs::Registry& r = obs::Registry::global();
    CounterSnapshot s;
    s.accepted = r.counter("serve.jobs_accepted").value();
    s.rejected_full =
        r.counter("serve.jobs_rejected", {{"reason", "full"}}).value();
    s.rejected_invalid =
        r.counter("serve.jobs_rejected", {{"reason", "invalid"}}).value();
    s.started = r.counter("serve.jobs_started").value();
    s.finished = r.counter("serve.jobs_finished").value();
    s.failed = r.counter("serve.jobs_failed").value();
    s.cancelled = r.counter("serve.jobs_cancelled").value();
    s.expired = r.counter("serve.jobs_expired").value();
    // Bounds only apply on first registration; the scheduler registers
    // this histogram first, so the re-resolve bounds are irrelevant.
    s.wait_observations =
        r.histogram("serve.job_phase_us", {1.0},
                    {{"phase", to_string(JobPhase::kWait)}})
            .count();
    return s;
  }
};

TEST(ServeStress, ConcurrentLoadKeepsEveryInvariant) {
  const std::string log_path =
      "/tmp/tspopt_serve_stress_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  obs::Log::global().configure({.level = obs::LogLevel::kInfo,
                                .path = log_path,
                                .max_events_per_sec = 0.0});  // no limiter

  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  for (int d = 0; d < 2; ++d) {
    owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
    owned.back()->set_label("gpu" + std::to_string(d));
    devices.push_back(owned.back().get());
  }
  simt::DevicePool pool(devices);

  const CounterSnapshot before = CounterSnapshot::take();

  SchedulerOptions options;
  options.workers = 3;
  options.queue_capacity = 12;
  options.min_retry_after_ms = 1.0;
  Scheduler scheduler(pool, options);

  constexpr int kThreads = 6;
  constexpr int kJobsPerThread = 10;
  const char* kEngines[] = {"cpu-sequential", "cpu-parallel", "gpu-tiled",
                            "gpu-multi"};

  std::mutex mu;
  std::vector<std::uint64_t> accepted_ids;
  std::uint64_t rejected_seen = 0;
  std::uint64_t cancels_issued = 0;

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        JobSpec spec;
        spec.catalog = j % 2 == 0 ? "berlin52" : "kroA200";
        spec.engine = kEngines[(t + j) % 4];
        spec.devices = spec.engine == std::string("gpu-multi") ? 2 : 1;
        spec.priority = (t + j) % 4;
        spec.time_limit_seconds = 0.01 + 0.005 * (j % 3);
        spec.seed = static_cast<std::uint64_t>(t * 100 + j + 1);
        // Every 5th job carries a deadline so tight it usually expires
        // while queued behind the others.
        if (j % 5 == 4) spec.deadline_ms = 1.0;

        Scheduler::Admission a = scheduler.submit(spec);
        std::lock_guard lock(mu);
        if (!a.accepted) {
          // Capacity rejection: must carry the backpressure hint.
          EXPECT_GT(a.retry_after_ms, 0.0) << a.error;
          ++rejected_seen;
          continue;
        }
        accepted_ids.push_back(a.id);
        // Every 4th accepted job is cancelled right away — sometimes
        // still queued, sometimes already running, both paths must hold.
        if (j % 4 == 3) {
          scheduler.cancel(a.id);
          ++cancels_issued;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  scheduler.drain();

  // --- scheduler-level invariants: no job lost, everything terminal ---
  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.accepted, accepted_ids.size());
  EXPECT_EQ(stats.rejected_full, rejected_seen);
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.accepted, stats.finished + stats.failed + stats.cancelled +
                                stats.expired);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_GT(stats.finished, 0u);

  std::set<std::uint64_t> unique_ids(accepted_ids.begin(),
                                     accepted_ids.end());
  EXPECT_EQ(unique_ids.size(), accepted_ids.size());  // ids never reused
  for (std::uint64_t id : accepted_ids) {
    std::shared_ptr<const Job> job = scheduler.find(id);
    ASSERT_NE(job, nullptr) << "job " << id << " lost";
    EXPECT_TRUE(is_terminal(job->state())) << "job " << id << " not settled";
    if (job->state() == JobState::kFinished) {
      EXPECT_GT(job->result().best_length, 0);
    }
  }

  // --- registry reconciliation: counter deltas match the scheduler ---
  const CounterSnapshot after = CounterSnapshot::take();
  EXPECT_EQ(after.accepted - before.accepted, stats.accepted);
  EXPECT_EQ(after.rejected_full - before.rejected_full, stats.rejected_full);
  EXPECT_EQ(after.rejected_invalid - before.rejected_invalid, 0u);
  EXPECT_EQ(after.finished - before.finished, stats.finished);
  EXPECT_EQ(after.failed - before.failed, stats.failed);
  EXPECT_EQ(after.cancelled - before.cancelled, stats.cancelled);
  EXPECT_EQ(after.expired - before.expired, stats.expired);
  // Every started job observed exactly one wait-latency sample.
  EXPECT_EQ(after.wait_observations - before.wait_observations,
            after.started - before.started);

  // --- JSONL reconciliation: the lifecycle log tells the same story ---
  obs::Log::global().flush();
  std::uint64_t logged_accepted = 0;
  std::map<std::uint64_t, int> terminal_events;  // id -> count
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::JsonValue event = obs::json_parse(line);  // throws on bad line
    const std::string& name = event.at("event").string;
    if (name == "job.accepted") {
      ++logged_accepted;
    } else if (name == "job.finished" || name == "job.cancelled" ||
               name == "job.expired" || name == "job.failed") {
      terminal_events[static_cast<std::uint64_t>(event.at("id").number)]++;
    }
  }
  EXPECT_EQ(logged_accepted, stats.accepted);
  EXPECT_EQ(terminal_events.size(), unique_ids.size());
  for (std::uint64_t id : unique_ids) {
    EXPECT_EQ(terminal_events[id], 1) << "job " << id;
  }
  EXPECT_EQ(obs::Log::global().dropped(), 0u);

  obs::Log::global().configure({});  // back to off for any later tests
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace tspopt::serve
