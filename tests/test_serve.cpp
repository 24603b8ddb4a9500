// Solve-service suite: job wire schema, queue admission/priority,
// scheduler lifecycle (finish, cancel, expire, retry-on-fault, drain),
// the line-JSON protocol, and the ISSUE's end-to-end acceptance demo
// (tspoptd serving >= 8 concurrent jobs from >= 4 client threads on a
// 1000+ city instance, with backpressure and an injected device fault).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"
#include "simt/fault.hpp"
#include "solver/twoopt_gpu.hpp"
#include "tsp/distance_matrix.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<Job> make_job(std::uint64_t id, std::int32_t priority,
                              double deadline_ms = -1.0) {
  JobSpec spec;
  spec.catalog = "berlin52";
  spec.priority = priority;
  spec.deadline_ms = deadline_ms;
  return std::make_shared<Job>(id, std::move(spec));
}

// Poll until the job is terminal (the scheduler settles asynchronously).
JobState wait_terminal(const Scheduler& scheduler, std::uint64_t id,
                       double timeout_seconds = 10.0) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    std::shared_ptr<const Job> job = scheduler.find(id);
    if (job == nullptr) return JobState::kFailed;
    if (is_terminal(job->state())) return job->state();
    if (std::chrono::steady_clock::now() >= deadline) return job->state();
    std::this_thread::sleep_for(2ms);
  }
}

struct PoolFixture {
  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  std::unique_ptr<simt::DevicePool> pool;

  explicit PoolFixture(std::size_t count,
                       simt::FaultInjector* injector = nullptr) {
    for (std::size_t d = 0; d < count; ++d) {
      owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
      owned.back()->set_label("gpu" + std::to_string(d));
      if (injector != nullptr) owned.back()->set_fault_injector(injector);
      devices.push_back(owned.back().get());
    }
    pool = std::make_unique<simt::DevicePool>(devices);
  }
};

// ---------------------------------------------------------------- wire --

TEST(ServeJob, WireRoundTripCatalog) {
  JobSpec spec;
  spec.catalog = "kroA200";
  spec.engine = "gpu-tiled";
  spec.priority = 0;
  spec.time_limit_seconds = 0.25;
  spec.max_iterations = 42;
  spec.deadline_ms = 1500.0;
  spec.seed = 9;
  spec.devices = 2;

  JobSpec back = job_spec_from_json(obs::json_parse(job_spec_to_json(spec)));
  EXPECT_EQ(back.catalog, "kroA200");
  EXPECT_TRUE(back.points.empty());
  EXPECT_EQ(back.engine, "gpu-tiled");
  EXPECT_EQ(back.priority, 0);
  EXPECT_DOUBLE_EQ(back.time_limit_seconds, 0.25);
  EXPECT_EQ(back.max_iterations, 42);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 1500.0);
  EXPECT_EQ(back.seed, 9u);
  EXPECT_EQ(back.devices, 2);
}

TEST(ServeJob, WireRoundTripInlinePayload) {
  JobSpec spec;
  spec.instance_name = "tiny";
  spec.points = {{0.0f, 0.0f}, {3.0f, 0.0f}, {3.0f, 4.0f}, {0.0f, 4.0f}};

  JobSpec back = job_spec_from_json(obs::json_parse(job_spec_to_json(spec)));
  EXPECT_TRUE(back.inline_payload());
  EXPECT_EQ(back.instance_name, "tiny");
  ASSERT_EQ(back.points.size(), 4u);
  EXPECT_FLOAT_EQ(back.points[2].x, 3.0f);
  EXPECT_FLOAT_EQ(back.points[2].y, 4.0f);
}

TEST(ServeJob, WireRejectsMalformedSpecs) {
  auto parse = [](const std::string& text) {
    return job_spec_from_json(obs::json_parse(text));
  };
  // Unknown field (typo of deadline_ms) must not silently default.
  EXPECT_THROW(
      parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
            "\"catalog\":\"berlin52\",\"dedline_ms\":5}"),
      CheckError);
  // Wrong schema version.
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":2,"
                     "\"catalog\":\"berlin52\"}"),
               CheckError);
  // Catalog AND inline points.
  EXPECT_THROW(
      parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
            "\"catalog\":\"berlin52\",\"points\":[[0,0],[1,0],[0,1]]}"),
      CheckError);
  // Too few points.
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
                     "\"points\":[[0,0],[1,0]]}"),
               CheckError);
  // Priority out of range.
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
                     "\"catalog\":\"berlin52\",\"priority\":11}"),
               CheckError);
  // Non-string inline instance name must not silently yield a garbage name.
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
                     "\"points\":[[0,0],[1,0],[0,1]],\"name\":7}"),
               CheckError);
  // Integer fields that do not survive the JSON double round-trip are
  // rejected instead of silently truncated.
  EXPECT_THROW(
      parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
            "\"catalog\":\"berlin52\",\"seed\":18446744073709551615}"),
      CheckError);
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
                     "\"catalog\":\"berlin52\",\"seed\":-3}"),
               CheckError);
  EXPECT_THROW(parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
                     "\"catalog\":\"berlin52\",\"max_iterations\":1.5}"),
               CheckError);
  // int32 fields are range-checked before they are narrowed: values that
  // would wrap into range are rejected, and the message quotes the value
  // as sent.
  auto rejection = [&](const std::string& field, const std::string& number) {
    try {
      parse("{\"schema\":\"tspopt.job\",\"schema_version\":1,"
            "\"catalog\":\"berlin52\",\"" +
            field + "\":" + number + "}");
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const char* field : {"k", "priority", "devices"}) {
    for (const char* number :
         {"4294967301", "-4294967295", "2147483648", "-2147483649"}) {
      const std::string message = rejection(field, number);
      EXPECT_NE(message.find(std::string("got ") + number), std::string::npos)
          << field << "=" << number << ": " << message;
    }
  }
  EXPECT_EQ(rejection("k", "2147483647"), "accepted");
  EXPECT_EQ(rejection("k", "0"), "accepted");
}

// --------------------------------------------------------------- queue --

TEST(ServeQueue, StrictPriorityThenFifo) {
  JobQueue queue(8);
  EXPECT_EQ(queue.push(make_job(1, 2)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(2, 0)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(3, 2)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(4, 1)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(5, 0)), JobQueue::PushResult::kOk);

  std::vector<std::uint64_t> order;
  for (int i = 0; i < 5; ++i) order.push_back(queue.pop().job->id());
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 5, 4, 1, 3}));
}

TEST(ServeQueue, RejectsWhenFullOrClosed) {
  JobQueue queue(2);
  EXPECT_EQ(queue.push(make_job(1, 1)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(2, 1)), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.push(make_job(3, 1)), JobQueue::PushResult::kFull);
  EXPECT_EQ(queue.depth(), 2u);

  queue.close();
  EXPECT_EQ(queue.push(make_job(4, 1)), JobQueue::PushResult::kClosed);
  // close() still drains the backlog...
  EXPECT_EQ(queue.pop().job->id(), 1u);
  EXPECT_EQ(queue.pop().job->id(), 2u);
  // ...then reports empty.
  JobQueue::PopOutcome end = queue.pop();
  EXPECT_EQ(end.job, nullptr);
  EXPECT_EQ(end.discarded, nullptr);
}

TEST(ServeQueue, PopDiscardsCancelledAndExpiredJobs) {
  JobQueue queue(8);
  std::shared_ptr<Job> cancelled = make_job(1, 1);
  std::shared_ptr<Job> expired = make_job(2, 1, /*deadline_ms=*/0.0);
  std::shared_ptr<Job> live = make_job(3, 1);
  ASSERT_EQ(queue.push(cancelled), JobQueue::PushResult::kOk);
  ASSERT_EQ(queue.push(expired), JobQueue::PushResult::kOk);
  ASSERT_EQ(queue.push(live), JobQueue::PushResult::kOk);
  cancelled->request_cancel();
  std::this_thread::sleep_for(1ms);  // let the deadline pass

  JobQueue::PopOutcome first = queue.pop();
  EXPECT_EQ(first.job, nullptr);
  ASSERT_NE(first.discarded, nullptr);
  EXPECT_EQ(first.discarded->id(), 1u);
  EXPECT_EQ(first.discarded->state(), JobState::kCancelled);

  JobQueue::PopOutcome second = queue.pop();
  EXPECT_EQ(second.job, nullptr);
  ASSERT_NE(second.discarded, nullptr);
  EXPECT_EQ(second.discarded->state(), JobState::kExpired);

  JobQueue::PopOutcome third = queue.pop();
  ASSERT_NE(third.job, nullptr);
  EXPECT_EQ(third.job->id(), 3u);
}

// ----------------------------------------------------------- scheduler --

TEST(ServeScheduler, FinishesCpuJobWithReport) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 2;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-parallel";
  spec.time_limit_seconds = 0.05;
  Scheduler::Admission admission = scheduler.submit(spec);
  ASSERT_TRUE(admission.accepted) << admission.error;

  EXPECT_EQ(wait_terminal(scheduler, admission.id), JobState::kFinished);
  std::shared_ptr<const Job> job = scheduler.find(admission.id);
  ASSERT_NE(job, nullptr);
  JobResult result = job->result();
  EXPECT_EQ(result.order.size(), 52u);
  EXPECT_GT(result.best_length, 0);
  EXPECT_LE(result.best_length, result.constructive_length);
  EXPECT_FALSE(result.report_json.empty());
  // The per-job report is a parseable run-report document.
  obs::JsonValue report = obs::json_parse(result.report_json);
  EXPECT_EQ(report.at("run").at("job_id").string,
            std::to_string(admission.id));

  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.finished, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(job->phase_seconds(JobPhase::kWait), 0.0);
  EXPECT_GT(job->phase_seconds(JobPhase::kRun), 0.0);

  EXPECT_TRUE(scheduler.forget(admission.id));
  EXPECT_EQ(scheduler.find(admission.id), nullptr);
}

TEST(ServeScheduler, RejectsInvalidSpecs) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);

  JobSpec bad_engine;
  bad_engine.catalog = "berlin52";
  bad_engine.engine = "tpu-warp";
  Scheduler::Admission a = scheduler.submit(bad_engine);
  EXPECT_FALSE(a.accepted);
  EXPECT_NE(a.error.find("tpu-warp"), std::string::npos);

  JobSpec bad_catalog;
  bad_catalog.catalog = "atlantis9000";
  Scheduler::Admission b = scheduler.submit(bad_catalog);
  EXPECT_FALSE(b.accepted);
  EXPECT_NE(b.error.find("atlantis9000"), std::string::npos);

  EXPECT_EQ(scheduler.stats().rejected_invalid, 2u);
  EXPECT_EQ(scheduler.stats().accepted, 0u);
}

TEST(ServeJob, WireRoundTripPrunedK) {
  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-simd-pruned";
  spec.k = 12;
  JobSpec back = job_spec_from_json(obs::json_parse(job_spec_to_json(spec)));
  EXPECT_EQ(back.engine, "cpu-simd-pruned");
  EXPECT_EQ(back.k, 12);

  // k == 0 means "engine default" and stays off the wire entirely.
  JobSpec defaulted;
  defaulted.catalog = "berlin52";
  defaulted.engine = "gpu-pruned";
  EXPECT_EQ(job_spec_to_json(defaulted).find("\"k\""), std::string::npos);
  EXPECT_EQ(job_spec_from_json(obs::json_parse(job_spec_to_json(defaulted))).k,
            0);

  // Parsing enforces k >= 1 when the field is present.
  EXPECT_THROW(
      job_spec_from_json(obs::json_parse(
          "{\"schema\":\"tspopt.job\",\"schema_version\":1,"
          "\"catalog\":\"berlin52\",\"engine\":\"cpu-pruned\",\"k\":-3}")),
      CheckError);
}

TEST(ServeScheduler, PrunedKAdmissionRules) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);

  // k on a non-pruned engine is a spec error, not a silent ignore.
  JobSpec full_sweep;
  full_sweep.catalog = "berlin52";
  full_sweep.engine = "cpu-parallel";
  full_sweep.k = 8;
  Scheduler::Admission a = scheduler.submit(full_sweep);
  EXPECT_FALSE(a.accepted);
  EXPECT_NE(a.error.find("pruned"), std::string::npos);

  // k below 1 (a hand-built spec can carry what the wire parser rejects).
  JobSpec negative;
  negative.catalog = "berlin52";
  negative.engine = "cpu-pruned";
  negative.k = -2;
  Scheduler::Admission b = scheduler.submit(negative);
  EXPECT_FALSE(b.accepted);
  EXPECT_NE(b.error.find(">= 1"), std::string::npos);

  // A candidate list cannot reach the instance size (berlin52: n = 52).
  JobSpec too_wide;
  too_wide.catalog = "berlin52";
  too_wide.engine = "cpu-simd-pruned";
  too_wide.k = 52;
  Scheduler::Admission c = scheduler.submit(too_wide);
  EXPECT_FALSE(c.accepted);
  EXPECT_NE(c.error.find("52"), std::string::npos);

  // A valid k on a pruned engine runs to completion.
  JobSpec good;
  good.catalog = "berlin52";
  good.engine = "cpu-simd-pruned";
  good.k = 8;
  good.time_limit_seconds = 0.05;
  Scheduler::Admission d = scheduler.submit(good);
  ASSERT_TRUE(d.accepted) << d.error;
  EXPECT_EQ(wait_terminal(scheduler, d.id), JobState::kFinished);
}

// A solo job over its engine's per-tour city cap is refused at submit
// with the engine and its cap named, rather than accepted, leased,
// constructed and failed by the engine's own check on every attempt.
TEST(ServeScheduler, SoloJobOverItsEngineCityCapIsRejectedAtAdmission) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(*fixture.pool, options);

  auto inline_spec = [](const std::string& engine, std::int32_t n) {
    Instance instance = generate_uniform("cap-probe", n, 11);
    JobSpec spec;
    spec.instance_name = instance.name();
    spec.points.assign(instance.points().begin(), instance.points().end());
    spec.engine = engine;
    spec.time_limit_seconds = 0.05;
    return spec;
  };
  const simt::Device probe(simt::gtx680_cuda());
  const std::int32_t block_cap = TwoOptGpuSmall::max_cities(probe);
  const std::int32_t indirect_cap = TwoOptGpuSmall::max_cities(probe, false);
  const struct {
    const char* engine;
    std::int32_t cap;
  } over[] = {{"gpu-small", block_cap},
              {"gpu-small-indirect", indirect_cap},
              {"cpu-lut", DistanceMatrix::kMaxCities}};
  for (const auto& c : over) {
    Scheduler::Admission a = scheduler.submit(inline_spec(c.engine, c.cap + 1));
    EXPECT_FALSE(a.accepted) << c.engine;
    EXPECT_NE(a.error.find(std::string("\"") + c.engine + "\""),
              std::string::npos)
        << a.error;
    EXPECT_NE(a.error.find(std::to_string(c.cap)), std::string::npos)
        << a.error;
  }
  EXPECT_EQ(scheduler.stats().rejected_invalid, 3u);
  EXPECT_EQ(scheduler.stats().accepted, 0u);
  EXPECT_EQ(scheduler.stats().queue_depth, 0u);

  // At the cap the job is admitted. Holding the only device keeps it from
  // running; closing the pool then releases the worker.
  simt::DevicePool::Lease held = fixture.pool->acquire(1);
  ASSERT_TRUE(held);
  Scheduler::Admission at_cap =
      scheduler.submit(inline_spec("gpu-small", block_cap));
  ASSERT_TRUE(at_cap.accepted) << at_cap.error;
  EXPECT_TRUE(scheduler.cancel(at_cap.id));
  fixture.pool->close();
  EXPECT_TRUE(is_terminal(wait_terminal(scheduler, at_cap.id)));
  scheduler.shutdown(/*drain_first=*/false);
}

TEST(ServeScheduler, EachJobBuildsOneSetOfNeighborLists) {
  // The MF start reads the engine factory's k-NN lists, so a job runs one
  // list build whether its engine prunes or sweeps every pair.
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(*fixture.pool, options);
  obs::Tracer& tracer = obs::Tracer::global();
  for (const char* engine : {"cpu-simd-pruned", "cpu-simd"}) {
    tracer.clear();
    tracer.enable(true);
    JobSpec spec;
    spec.catalog = "kroA200";
    spec.engine = engine;
    spec.max_iterations = 2;
    Scheduler::Admission a = scheduler.submit(spec);
    ASSERT_TRUE(a.accepted) << a.error;
    EXPECT_EQ(wait_terminal(scheduler, a.id), JobState::kFinished);
    tracer.enable(false);
    int builds = 0;
    for (const obs::TraceEvent& e : tracer.events()) {
      if (std::strcmp(e.name, "tsp.neighbor_lists") == 0) ++builds;
    }
    EXPECT_EQ(builds, 1) << engine;
  }
  tracer.clear();
}

TEST(ServeScheduler, FullQueueRejectsWithRetryAfter) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec slow;
  slow.catalog = "berlin52";
  slow.engine = "cpu-sequential";
  slow.time_limit_seconds = 0.5;

  Scheduler::Admission running = scheduler.submit(slow);
  ASSERT_TRUE(running.accepted);
  // Queue one more behind the running job, then overflow.
  Scheduler::Admission queued;
  Scheduler::Admission rejected;
  for (int attempt = 0; attempt < 100; ++attempt) {
    Scheduler::Admission a = scheduler.submit(slow);
    if (a.accepted && queued.id == 0) {
      queued = a;
    } else if (!a.accepted) {
      rejected = a;
      break;
    }
  }
  ASSERT_FALSE(rejected.accepted);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  EXPECT_GE(scheduler.stats().rejected_full, 1u);

  scheduler.cancel(running.id);
  if (queued.id != 0) scheduler.cancel(queued.id);
  scheduler.drain();
}

TEST(ServeScheduler, CancelsQueuedAndRunningJobs) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec slow;
  slow.catalog = "berlin52";
  slow.engine = "cpu-sequential";
  slow.time_limit_seconds = 5.0;  // cancel will cut this short

  Scheduler::Admission running = scheduler.submit(slow);
  Scheduler::Admission queued = scheduler.submit(slow);
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(queued.accepted);

  // The queued job cancels synchronously (it never starts).
  EXPECT_TRUE(scheduler.cancel(queued.id));
  EXPECT_EQ(wait_terminal(scheduler, queued.id), JobState::kCancelled);

  // The running job stops at its next should_stop poll.
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(scheduler.cancel(running.id));
  EXPECT_EQ(wait_terminal(scheduler, running.id), JobState::kCancelled);
  std::shared_ptr<const Job> job = scheduler.find(running.id);
  ASSERT_NE(job, nullptr);
  EXPECT_LT(job->phase_seconds(JobPhase::kRun), 5.0);

  EXPECT_FALSE(scheduler.cancel(999999));  // unknown id
}

TEST(ServeScheduler, DeadlineExpiresARunningJob) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);

  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-sequential";
  spec.time_limit_seconds = 10.0;
  spec.deadline_ms = 60.0;  // far shorter than the time budget
  Scheduler::Admission admission = scheduler.submit(spec);
  ASSERT_TRUE(admission.accepted);

  EXPECT_EQ(wait_terminal(scheduler, admission.id), JobState::kExpired);
  std::shared_ptr<const Job> job = scheduler.find(admission.id);
  ASSERT_NE(job, nullptr);
  EXPECT_LT(job->phase_seconds(JobPhase::kRun), 2.0);
  EXPECT_EQ(scheduler.stats().expired, 1u);
}

TEST(ServeScheduler, SurvivesInjectedDeviceFault) {
  // gpu0 permanently fails from its 3rd launch on. The per-job
  // TwoOptMultiDevice quarantines it and re-deals to gpu1, so the job
  // finishes; the fault is absorbed inside the job, not the process.
  simt::FaultPlan plan(7);
  plan.inject({.device = "gpu0",
               .kind = simt::FaultKind::kLaunchFailure,
               .first_launch = 3,
               .count = simt::FaultSpec::kForever});
  simt::FaultInjector injector(plan);
  PoolFixture fixture(2, &injector);

  SchedulerOptions options;
  options.workers = 1;
  options.multi.backoff_initial_ms = 0.1;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "gpu-multi";
  spec.devices = 2;
  spec.time_limit_seconds = 0.2;
  Scheduler::Admission admission = scheduler.submit(spec);
  ASSERT_TRUE(admission.accepted);

  EXPECT_EQ(wait_terminal(scheduler, admission.id), JobState::kFinished);
  std::shared_ptr<const Job> job = scheduler.find(admission.id);
  ASSERT_NE(job, nullptr);
  EXPECT_GT(job->result().best_length, 0);
  EXPECT_EQ(scheduler.stats().failed, 0u);
  // The fault genuinely fired.
  EXPECT_GE(
      fixture.devices[0]->counters().snapshot().launch_failures, 1u);
}

TEST(ServeScheduler, DrainFinishesEveryAcceptedJob) {
  PoolFixture fixture(2);
  SchedulerOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  Scheduler scheduler(*fixture.pool, options);

  std::vector<std::uint64_t> ids;
  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-parallel";
  spec.time_limit_seconds = 0.02;
  for (int j = 0; j < 6; ++j) {
    Scheduler::Admission a = scheduler.submit(spec);
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.id);
  }
  scheduler.drain();

  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.finished, 6u);
  for (std::uint64_t id : ids) {
    EXPECT_EQ(scheduler.find(id)->state(), JobState::kFinished);
  }
  // New submissions are refused while drained.
  EXPECT_FALSE(scheduler.submit(spec).accepted);
}

TEST(ServeScheduler, EvictsOldestTerminalJobsBeyondRetentionCap) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  options.max_retained_jobs = 3;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-sequential";
  spec.time_limit_seconds = 0.01;
  std::vector<std::uint64_t> ids;
  for (int j = 0; j < 5; ++j) {
    Scheduler::Admission a = scheduler.submit(spec);
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.id);
  }
  scheduler.drain();

  // One worker settles in submit order, so the two oldest-settled jobs
  // were evicted and the newest three remain retrievable.
  EXPECT_EQ(scheduler.find(ids[0]), nullptr);
  EXPECT_EQ(scheduler.find(ids[1]), nullptr);
  for (int j = 2; j < 5; ++j) EXPECT_NE(scheduler.find(ids[j]), nullptr);

  // forget() drops a retained terminal job exactly once.
  EXPECT_TRUE(scheduler.forget(ids[4]));
  EXPECT_EQ(scheduler.find(ids[4]), nullptr);
  EXPECT_FALSE(scheduler.forget(ids[4]));
}

TEST(ServeScheduler, HonorsRequestedGpuEngineClass) {
  PoolFixture fixture(1);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(*fixture.pool, options);

  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "gpu-small";
  spec.time_limit_seconds = 0.05;
  Scheduler::Admission a = scheduler.submit(spec);
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(wait_terminal(scheduler, a.id), JobState::kFinished);
  std::shared_ptr<const Job> job = scheduler.find(a.id);
  ASSERT_NE(job, nullptr);
  // The engine that actually ran is the one the client requested, not a
  // multi-device substitution.
  obs::JsonValue report = obs::json_parse(job->result().report_json);
  EXPECT_EQ(report.at("engine").at("name").string, "gpu-small");

  // A single-device engine class cannot span a multi-device lease.
  spec.engine = "gpu-tiled";
  spec.devices = 2;
  Scheduler::Admission rejected = scheduler.submit(spec);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(rejected.error.empty());
}

// ------------------------------------------------------------ protocol --

TEST(ServeProtocol, HandleRequestCoversTheVerbSet) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);

  auto parse = [&](const std::string& line) {
    return obs::json_parse(handle_request(scheduler, line));
  };

  EXPECT_TRUE(parse("{\"verb\":\"ping\"}").at("ok").boolean);
  EXPECT_FALSE(parse("not json at all").at("ok").boolean);
  EXPECT_FALSE(parse("{\"verb\":\"warp\"}").at("ok").boolean);
  EXPECT_FALSE(parse("{\"no_verb\":1}").at("ok").boolean);

  obs::JsonValue engines = parse("{\"verb\":\"engines\"}");
  EXPECT_TRUE(engines.at("ok").boolean);
  EXPECT_GE(engines.at("engines").array.size(), 10u);
  EXPECT_FALSE(
      engines.at("engines").array[0].at("description").string.empty());

  obs::JsonValue submit = parse(
      "{\"verb\":\"submit\",\"job\":{\"schema\":\"tspopt.job\","
      "\"schema_version\":1,\"catalog\":\"berlin52\","
      "\"engine\":\"cpu-sequential\",\"time_limit_seconds\":0.02}}");
  ASSERT_TRUE(submit.at("ok").boolean)
      << handle_request(scheduler, "{\"verb\":\"stats\"}");
  auto id = static_cast<std::uint64_t>(submit.at("id").number);

  obs::JsonValue status =
      parse("{\"verb\":\"status\",\"id\":" + std::to_string(id) + "}");
  EXPECT_TRUE(status.at("ok").boolean);
  EXPECT_EQ(status.at("job").at("instance").string, "berlin52");

  wait_terminal(scheduler, id);
  obs::JsonValue result =
      parse("{\"verb\":\"result\",\"id\":" + std::to_string(id) + "}");
  EXPECT_TRUE(result.at("ok").boolean);
  EXPECT_EQ(result.at("result").at("order").array.size(), 52u);

  // forget drops the retained result exactly once.
  obs::JsonValue forgotten =
      parse("{\"verb\":\"forget\",\"id\":" + std::to_string(id) + "}");
  EXPECT_TRUE(forgotten.at("ok").boolean);
  EXPECT_TRUE(forgotten.at("forgotten").boolean);
  EXPECT_FALSE(parse("{\"verb\":\"status\",\"id\":" + std::to_string(id) + "}")
                   .at("ok")
                   .boolean);
  EXPECT_FALSE(parse("{\"verb\":\"forget\",\"id\":" + std::to_string(id) + "}")
                   .at("forgotten")
                   .boolean);

  EXPECT_FALSE(parse("{\"verb\":\"status\",\"id\":424242}").at("ok").boolean);
  // Submit rejections surface the scheduler's error.
  obs::JsonValue bad = parse(
      "{\"verb\":\"submit\",\"job\":{\"schema\":\"tspopt.job\","
      "\"schema_version\":1,\"catalog\":\"nowhere\"}}");
  EXPECT_FALSE(bad.at("ok").boolean);
  EXPECT_FALSE(bad.at("error").string.empty());

  obs::JsonValue stats = parse("{\"verb\":\"stats\"}");
  EXPECT_TRUE(stats.at("ok").boolean);
  EXPECT_EQ(static_cast<std::uint64_t>(
                stats.at("stats").at("accepted").number),
            scheduler.stats().accepted);
}

TEST(ServeProtocol, IdVerbsRejectNonIntegralAndOutOfRangeIds) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);
  auto parse = [&](const std::string& line) {
    return obs::json_parse(handle_request(scheduler, line));
  };
  obs::JsonValue submit = parse(
      "{\"verb\":\"submit\",\"job\":{\"schema\":\"tspopt.job\","
      "\"schema_version\":1,\"catalog\":\"berlin52\","
      "\"engine\":\"cpu-sequential\",\"time_limit_seconds\":0.02}}");
  ASSERT_TRUE(submit.at("ok").boolean);
  // Job 1 exists, so an id that truncated to 1 would act on it.
  ASSERT_EQ(submit.at("id").number, 1.0);
  wait_terminal(scheduler, 1);

  // Each id is rejected before any cast, and the error quotes it.
  const std::pair<const char*, const char*> ids[] = {
      {"1.5", "got 1.5"},
      {"0", "got 0"},
      {"-1", "got -1"},
      {"1e300", "got 1e+300"},
      {"\"7\"", "got \"7\""}};
  for (const char* verb : {"status", "result", "cancel", "forget"}) {
    for (const auto& [id, quoted] : ids) {
      const std::string line = std::string("{\"verb\":\"") + verb +
                               "\",\"id\":" + id + "}";
      obs::JsonValue reply = parse(line);
      EXPECT_FALSE(reply.at("ok").boolean) << line;
      const obs::JsonValue* error = reply.find("error");
      ASSERT_NE(error, nullptr) << line;
      EXPECT_NE(error->string.find(quoted), std::string::npos)
          << line << ": " << error->string;
    }
  }
  // Nothing above reached job 1: it is still there and still finished.
  obs::JsonValue status = parse("{\"verb\":\"status\",\"id\":1}");
  ASSERT_TRUE(status.at("ok").boolean);
  EXPECT_EQ(status.at("job").at("state").string, "finished");
}

TEST(ServeProtocol, IdempotencyKeyDedupesResubmits) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);
  auto parse = [&](const std::string& line) {
    return obs::json_parse(handle_request(scheduler, line));
  };

  const std::string submit =
      "{\"verb\":\"submit\",\"job\":{\"schema\":\"tspopt.job\","
      "\"schema_version\":1,\"catalog\":\"berlin52\","
      "\"engine\":\"cpu-sequential\",\"time_limit_seconds\":0.02,"
      "\"idempotency_key\":\"proto-key\"}}";
  obs::JsonValue first = parse(submit);
  ASSERT_TRUE(first.at("ok").boolean);
  EXPECT_EQ(first.find("deduped"), nullptr);
  auto id = static_cast<std::uint64_t>(first.at("id").number);

  // Byte-identical resubmit (a client retry after an ambiguous failure):
  // same id back, flagged deduped, no second job admitted.
  obs::JsonValue second = parse(submit);
  ASSERT_TRUE(second.at("ok").boolean);
  EXPECT_TRUE(second.at("deduped").boolean);
  EXPECT_EQ(static_cast<std::uint64_t>(second.at("id").number), id);
  EXPECT_EQ(scheduler.stats().accepted, 1u);
  wait_terminal(scheduler, id);
}

TEST(ServeProtocol, MalformedLinesGetErrorRepliesNotCrashes) {
  PoolFixture fixture(1);
  Scheduler scheduler(*fixture.pool);

  // NUL bytes, truncated JSON, binary garbage: every line must produce a
  // parseable {"ok":false,"error":...} reply, never a throw.
  std::vector<std::string> lines = {
      std::string("{\"verb\":\"pi\0ng\"}", 16),
      "{\"verb\":\"submit\",\"job\":{\"catalog\":",
      std::string("\0\0\0\0", 4),
      "\x01\x02garbage\x7f\x1b[31m",
      "[1,2,3]",
      "\"just a string\"",
  };
  for (const std::string& line : lines) {
    obs::JsonValue reply = obs::json_parse(handle_request(scheduler, line));
    EXPECT_FALSE(reply.at("ok").boolean) << line;
    EXPECT_FALSE(reply.at("error").string.empty()) << line;
  }
}

// ----------------------------------------------- daemon input hygiene --

namespace {

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

// Read until '\n' or EOF; returns the line without the newline.
std::string recv_line(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

}  // namespace

TEST(ServeDaemon, OversizedLineGetsOneErrorReplyThenClose) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.max_line_bytes = 64;
  Daemon daemon(*fixture.pool, options);
  daemon.start();

  int fd = connect_loopback(daemon.port());
  std::string flood(1000, 'x');  // no newline: an unbounded-line abuse
  ASSERT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(flood.size()));
  std::string reply = recv_line(fd);
  obs::JsonValue parsed = obs::json_parse(reply);
  EXPECT_FALSE(parsed.at("ok").boolean);
  EXPECT_NE(parsed.at("error").string.find("exceeds"), std::string::npos)
      << reply;
  // After the diagnostic the daemon hangs up.
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
  daemon.stop(false);
}

TEST(ServeDaemon, SurvivesTruncatedRequestAndMidLineDisconnect) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();

  // A client that sends half a request and vanishes must not take the
  // daemon (or any other connection) down with it.
  {
    int fd = connect_loopback(daemon.port());
    std::string partial = "{\"verb\":\"submit\",\"job\":{\"cat";
    ASSERT_GT(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  // NUL bytes on the wire get a structured error reply on a connection
  // that stays usable for the next (valid) request.
  {
    int fd = connect_loopback(daemon.port());
    std::string nul_line = std::string("{\"verb\":\"pi\0ng\"}", 16) + "\n";
    ASSERT_GT(::send(fd, nul_line.data(), nul_line.size(), MSG_NOSIGNAL),
              0);
    obs::JsonValue reply = obs::json_parse(recv_line(fd));
    EXPECT_FALSE(reply.at("ok").boolean);
    std::string ping = "{\"verb\":\"ping\"}\n";
    ASSERT_GT(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL), 0);
    EXPECT_TRUE(obs::json_parse(recv_line(fd)).at("ok").boolean);
    ::close(fd);
  }
  // The daemon still serves fresh connections normally.
  Client client("127.0.0.1", daemon.port());
  EXPECT_TRUE(client.request("{\"verb\":\"ping\"}").at("ok").boolean);
  daemon.stop(false);
}

TEST(ServeDaemon, SplitAndPipelinedLinesAnswerInOrder) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();

  // Requests split anywhere, several to one send, blank lines between,
  // and one line of ~300 KB sent in 4 KB pieces: every request gets one
  // reply, in order.
  int fd = connect_loopback(daemon.port());
  // A lost line must fail the test, not hang it.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  auto send_piece = [&](const std::string& piece) {
    ASSERT_EQ(::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(piece.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  send_piece("{\"verb\":\"pi");
  send_piece("ng\"}\n{\"verb\":\"ping\"}\n\n{\"ve");
  send_piece("rb\":\"stats\"}\n");
  const std::string big =
      "{\"verb\":\"ping\",\"pad\":\"" + std::string(300000, 'x') + "\"}\n";
  for (std::size_t at = 0; at < big.size(); at += 4096) {
    send_piece(big.substr(at, 4096));
  }
  send_piece("{\"verb\":\"ping\"}\n");

  EXPECT_TRUE(obs::json_parse(recv_line(fd)).at("ok").boolean);
  EXPECT_TRUE(obs::json_parse(recv_line(fd)).at("ok").boolean);
  obs::JsonValue stats = obs::json_parse(recv_line(fd));
  EXPECT_TRUE(stats.at("ok").boolean);
  EXPECT_NE(stats.find("stats"), nullptr) << "third reply answers stats";
  EXPECT_FALSE(recv_line(fd).empty());  // the 300 KB line's reply
  EXPECT_TRUE(obs::json_parse(recv_line(fd)).at("ok").boolean);
  ::close(fd);
  daemon.stop(false);
}

// ---------------------------------------------------- acceptance demo --

// The ISSUE's E2E demo: a daemon accepting >= 8 concurrent jobs from
// >= 4 client threads, completing within deadlines on a 1000+ city
// instance (vm1084), rejecting over-capacity submissions with a
// retry-after hint, and surviving an injected device fault (absorbed by
// the per-job engine, never failing the job).
TEST(ServeDaemon, EndToEndAcceptance) {
  simt::FaultPlan plan(11);
  plan.inject({.device = "gpu0",
               .kind = simt::FaultKind::kLaunchFailure,
               .first_launch = 4,
               .count = 2});
  simt::FaultInjector injector(plan);
  PoolFixture fixture(3, &injector);

  DaemonOptions options;
  options.port = 0;  // ephemeral
  options.scheduler.workers = 4;
  options.scheduler.queue_capacity = 8;
  options.scheduler.multi.backoff_initial_ms = 0.1;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.port(), 0);

  // Phase A: 4 client threads, 2 jobs each, mixed engines, real deadline.
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 2;
  std::atomic<int> finished{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Client client("127.0.0.1", daemon.port());
      for (int j = 0; j < kJobsPerThread; ++j) {
        JobSpec spec;
        spec.catalog = "vm1084";  // 1084 cities
        spec.engine = t % 2 == 0 ? "gpu-multi" : "cpu-parallel";
        spec.devices = 2;
        spec.time_limit_seconds = 0.15;
        spec.priority = t % 3;
        spec.deadline_ms = 30000.0;
        spec.seed = static_cast<std::uint64_t>(t * 10 + j + 1);

        obs::JsonValue submitted = client.submit(spec);
        if (!submitted.at("ok").boolean) {
          ++wrong;
          continue;
        }
        auto id = static_cast<std::uint64_t>(submitted.at("id").number);
        obs::JsonValue last = client.wait(id, 25.0);
        const obs::JsonValue& state = last.at("job").at("state");
        if (state.string != "finished") {
          ++wrong;
          continue;
        }
        obs::JsonValue result = client.result(id);
        if (result.at("result").at("order").array.size() == 1084 &&
            result.at("result").at("best_length").number > 0) {
          ++finished;
        } else {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(finished.load(), kThreads * kJobsPerThread);

  // Phase B: burst past capacity — the daemon must reject with a
  // retry-after hint rather than queue without bound.
  Client burst("127.0.0.1", daemon.port());
  double retry_after = 0.0;
  std::vector<std::uint64_t> burst_ids;
  for (int j = 0; j < 40 && retry_after == 0.0; ++j) {
    JobSpec spec;
    spec.catalog = "berlin52";
    spec.engine = "cpu-sequential";
    spec.time_limit_seconds = 1.0;
    obs::JsonValue response = burst.submit(spec);
    if (response.at("ok").boolean) {
      burst_ids.push_back(
          static_cast<std::uint64_t>(response.at("id").number));
    } else {
      retry_after = response.at("retry_after_ms").number;
    }
  }
  EXPECT_GT(retry_after, 0.0);
  for (std::uint64_t id : burst_ids) burst.cancel(id);

  // The injected fault fired and no job failed because of it.
  EXPECT_GE(fixture.devices[0]->counters().snapshot().launch_failures, 1u);
  obs::JsonValue stats = burst.stats();
  EXPECT_EQ(stats.at("stats").at("failed").number, 0.0);
  EXPECT_GE(stats.at("stats").at("finished").number, 8.0);
  EXPECT_GE(stats.at("stats").at("rejected_full").number, 1.0);

  // Graceful drain: every accepted job reaches a terminal state.
  daemon.stop(/*drain_first=*/true);
  Scheduler::Stats final_stats = daemon.scheduler().stats();
  EXPECT_EQ(final_stats.queue_depth, 0u);
  EXPECT_EQ(final_stats.active_jobs, 0u);
  EXPECT_EQ(final_stats.accepted,
            final_stats.finished + final_stats.failed +
                final_stats.cancelled + final_stats.expired);
  EXPECT_EQ(final_stats.failed, 0u);
}

// A long-running daemon must not leak one fd per client ever connected:
// the handler closes its fd on every exit path and the accept loop reaps
// finished Connection entries. Asserted via the process fd table.
TEST(ServeDaemon, ClosesConnectionFdsWhenClientsDisconnect) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.scheduler.workers = 1;
  Daemon daemon(*fixture.pool, options);
  daemon.start();

  auto open_fds = [] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      ++count;
    }
    return count;
  };
  const std::size_t baseline = open_fds();

  for (int c = 0; c < 16; ++c) {
    Client client("127.0.0.1", daemon.port());
    EXPECT_TRUE(client.request("{\"verb\":\"ping\"}").at("ok").boolean);
  }
  EXPECT_EQ(daemon.connections_accepted(), 16u);

  // The daemon-side fd closes when each handler observes the client's
  // close; poll for the table to return to baseline.
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (open_fds() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_LE(open_fds(), baseline);
  daemon.stop(/*drain_first=*/true);
}

}  // namespace
}  // namespace tspopt::serve
