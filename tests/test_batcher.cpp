// Micro-batcher suite: batch keys, queue-side matching pops, the
// collect_batch loop, batch-shape admission, and the end-to-end
// scheduler property — a burst of coalesced jobs settles individually
// with results bit-identical to solo runs of the same specs.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"
#include "simt/fault.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/catalog.hpp"
#include "tsp/generator.hpp"

namespace tspopt::serve {
namespace {

using namespace std::chrono_literals;

JobSpec batchable_spec(std::uint64_t seed, const std::string& engine = "cpu-simd") {
  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = engine;
  spec.batchable = true;
  spec.seed = seed;
  spec.max_iterations = 5;
  spec.time_limit_seconds = 10.0;
  return spec;
}

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

// ------------------------------------------------------------- keys --

TEST(BatchKey, EngineClassesAndIdentity) {
  // Each engine's batch class is its roster row's.
  auto batch_class = [](const char* engine) {
    return EngineFactory::find(engine)->batch_class;
  };
  EXPECT_EQ(batch_class("cpu-simd"), "batch-simd");
  EXPECT_EQ(batch_class("batch-simd"), "batch-simd");
  EXPECT_EQ(batch_class("gpu-small"), "batch-gpu");
  EXPECT_EQ(batch_class("batch-gpu"), "batch-gpu");
  EXPECT_EQ(batch_class("cpu-parallel"), "");
  EXPECT_EQ(batch_class("gpu-tiled"), "");

  // cpu-simd and batch-simd are one coalescing class.
  JobSpec a = batchable_spec(1, "cpu-simd");
  JobSpec b = batchable_spec(2, "batch-simd");
  EXPECT_EQ(batch_key(a), batch_key(b));

  // Different engine class, catalog, or k breaks the key.
  JobSpec gpu = batchable_spec(1, "gpu-small");
  EXPECT_NE(batch_key(a), batch_key(gpu));
  JobSpec other = batchable_spec(1);
  other.catalog = "kroA200";
  EXPECT_NE(batch_key(a), batch_key(other));

  // Seeds and budgets do NOT break the key (that is the point: same
  // instance+engine+k coalesces, each member keeps its own seed).
  JobSpec c = batchable_spec(99, "cpu-simd");
  c.max_iterations = 50;
  EXPECT_EQ(batch_key(a), batch_key(c));

  // spec_batchable needs the opt-in AND a batchable class.
  JobSpec off = batchable_spec(1);
  off.batchable = false;
  EXPECT_FALSE(spec_batchable(off));
  EXPECT_TRUE(spec_batchable(a));
}

TEST(BatchKey, InlinePayloadsCoalesceOnExactBytes) {
  Instance instance = generate_uniform("inline-key", 64, 7);
  JobSpec a;
  a.instance_name = "left";
  a.points.assign(instance.points().begin(), instance.points().end());
  a.engine = "cpu-simd";
  a.batchable = true;

  // Same bytes under a different client-chosen name: same key.
  JobSpec b = a;
  b.instance_name = "right";
  EXPECT_EQ(batch_key(a), batch_key(b));

  // One coordinate bit different: different key.
  JobSpec c = a;
  c.points[3].x += 1.0f;
  EXPECT_NE(batch_key(a), batch_key(c));

  // Catalog vs inline never coalesce.
  JobSpec d = batchable_spec(1);
  EXPECT_NE(batch_key(a), batch_key(d));
}

// ------------------------------------------------------------ queue --

TEST(JobQueue, TryPopMatchingFiltersAndCaps) {
  JobQueue queue(16);
  std::vector<std::shared_ptr<Job>> jobs;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    JobSpec spec = batchable_spec(id);
    if (id == 3) spec.engine = "cpu-parallel";  // different class
    auto job = std::make_shared<Job>(id, std::move(spec));
    jobs.push_back(job);
    ASSERT_EQ(queue.push(job), JobQueue::PushResult::kOk);
  }
  jobs[4]->request_cancel();  // id 5: marked dead, must be left queued

  const std::string key = batch_key(batchable_spec(1));
  auto pred = [&](const Job& job) { return batch_key(job.spec()) == key; };

  std::vector<std::shared_ptr<Job>> got = queue.try_pop_matching(pred, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0]->id(), 1u);
  EXPECT_EQ(got[1]->id(), 2u);

  // ids 3 (wrong class) and 5 (cancelled) are skipped; 4 and 6 match.
  got = queue.try_pop_matching(pred, 8);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0]->id(), 4u);
  EXPECT_EQ(got[1]->id(), 6u);

  // The cancelled job stays queued for pop()'s discard accounting.
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_TRUE(queue.try_pop_matching(pred, 8).empty());
}

TEST(Batcher, CollectTakesQueuedMatchesUpToMaxBatch) {
  JobQueue queue(16);
  for (std::uint64_t id = 2; id <= 6; ++id) {
    JobSpec spec = batchable_spec(id);
    if (id == 4) spec.catalog = "kroA200";  // different key
    ASSERT_EQ(queue.push(std::make_shared<Job>(id, std::move(spec))),
              JobQueue::PushResult::kOk);
  }

  BatcherOptions options;
  options.max_batch = 4;
  options.max_wait_ms = 0.0;  // take only what is already queued

  auto lead = std::make_shared<Job>(1, batchable_spec(1));
  std::vector<std::shared_ptr<Job>> batch = collect_batch(queue, options, lead);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0]->id(), 1u);  // lead first
  EXPECT_EQ(batch[1]->id(), 2u);
  EXPECT_EQ(batch[2]->id(), 3u);
  EXPECT_EQ(batch[3]->id(), 5u);  // 4 has a different key

  // A non-batchable lead comes back alone.
  JobSpec solo = batchable_spec(9);
  solo.batchable = false;
  batch = collect_batch(queue, options,
                        std::make_shared<Job>(9, std::move(solo)));
  EXPECT_EQ(batch.size(), 1u);
}

// ------------------------------------------------------------- wire --

TEST(ServeJob, WireRoundTripBatchable) {
  JobSpec spec = batchable_spec(3);
  JobSpec back = job_spec_from_json(obs::json_parse(job_spec_to_json(spec)));
  EXPECT_TRUE(back.batchable);

  // Default is off and absent from the wire document.
  JobSpec plain;
  plain.catalog = "berlin52";
  std::string json = job_spec_to_json(plain);
  EXPECT_EQ(json.find("batchable"), std::string::npos);
  EXPECT_FALSE(job_spec_from_json(obs::json_parse(json)).batchable);
}

// -------------------------------------------------------- admission --

TEST(ServeScheduler, BatchShapeAdmission) {
  std::vector<std::unique_ptr<simt::Device>> owned;
  owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
  std::vector<simt::Device*> devices{owned[0].get()};
  simt::DevicePool pool(devices);

  SchedulerOptions options;
  options.workers = 1;
  options.batcher.max_batch = 4096;  // stresses the slab bound below
  options.batcher.max_wait_ms = 0.0;
  Scheduler scheduler(pool, options);

  // batchable with an engine that has no batch implementation: typed
  // "batch shape" rejection.
  JobSpec bad_engine = batchable_spec(1, "cpu-parallel");
  Scheduler::Admission a = scheduler.submit(bad_engine);
  EXPECT_FALSE(a.accepted);
  EXPECT_NE(a.error.find("batch shape"), std::string::npos) << a.error;

  // batch-gpu with more cities than a block can stage: rejected up front
  // rather than failing after a lease.
  simt::Device probe(simt::gtx680_cuda());
  std::int32_t cap = TwoOptGpuSmall::max_cities(probe);
  Instance big = generate_uniform("too-big-gpu", cap + 1, 3);
  JobSpec bad_gpu;
  bad_gpu.instance_name = big.name();
  bad_gpu.points.assign(big.points().begin(), big.points().end());
  bad_gpu.engine = "gpu-small";
  bad_gpu.batchable = true;
  Scheduler::Admission b = scheduler.submit(bad_gpu);
  EXPECT_FALSE(b.accepted);
  EXPECT_NE(b.error.find("batch shape"), std::string::npos) << b.error;

  // An inline payload whose padded slab at max_batch would exceed the
  // staging bound: rejected with the slab limit named.
  Instance wide = generate_uniform("slab-overflow", 5000, 5);
  JobSpec bad_slab;
  bad_slab.instance_name = wide.name();
  bad_slab.points.assign(wide.points().begin(), wide.points().end());
  bad_slab.engine = "cpu-simd";
  bad_slab.batchable = true;
  Scheduler::Admission c = scheduler.submit(bad_slab);
  EXPECT_FALSE(c.accepted);
  EXPECT_NE(c.error.find("batch shape"), std::string::npos) << c.error;

  // The same specs without the opt-in stay admissible (cpu classes).
  bad_slab.batchable = false;
  Scheduler::Admission d = scheduler.submit(bad_slab);
  EXPECT_TRUE(d.accepted) << d.error;

  scheduler.shutdown(/*drain_first=*/false);
}

// gpu-small and batch-gpu run one block kernel with one city cap, so a
// batchable gpu-small job admitted at the cap runs even when it finds no
// batch to join and runs gpu-small alone; one city more is refused at
// admission.
TEST(ServeScheduler, LoneBatchableGpuJobAtTheCityCapRuns) {
  std::vector<std::unique_ptr<simt::Device>> owned;
  owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
  std::vector<simt::Device*> devices{owned[0].get()};
  simt::DevicePool pool(devices);

  SchedulerOptions options;
  options.workers = 1;
  options.batcher.max_wait_ms = 0.0;
  Scheduler scheduler(pool, options);

  auto gpu_spec = [](std::int32_t n) {
    Instance instance = generate_uniform("gpu-cap", n, 7);
    JobSpec spec;
    spec.instance_name = instance.name();
    spec.points.assign(instance.points().begin(), instance.points().end());
    spec.engine = "gpu-small";
    spec.batchable = true;
    spec.time_limit_seconds = 0.05;
    return spec;
  };
  simt::Device probe(simt::gtx680_cuda());
  const std::int32_t cap = TwoOptGpuSmall::max_cities(probe);

  Scheduler::Admission at_cap = scheduler.submit(gpu_spec(cap));
  ASSERT_TRUE(at_cap.accepted) << at_cap.error;
  EXPECT_EQ(wait_terminal(scheduler, at_cap.id, 60.0), JobState::kFinished);
  std::shared_ptr<const Job> job = scheduler.find(at_cap.id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->batch_id.load(), 0u);  // ran alone, as gpu-small

  Scheduler::Admission over = scheduler.submit(gpu_spec(cap + 1));
  EXPECT_FALSE(over.accepted);
  EXPECT_NE(over.error.find("batch shape"), std::string::npos) << over.error;

  scheduler.shutdown(/*drain_first=*/false);
}

// ------------------------------------------------------ integration --

// A burst of identical-key batchable jobs coalesces into one batch pass;
// every member settles individually with the result a solo run of its
// spec produces, and batch membership is visible on the job.
TEST(ServeScheduler, BatchedBurstMatchesSoloResults) {
  std::vector<std::unique_ptr<simt::Device>> owned;
  owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
  std::vector<simt::Device*> devices{owned[0].get()};
  simt::DevicePool pool(devices);

  constexpr std::size_t kBurst = 6;
  SchedulerOptions options;
  options.workers = 1;  // one worker => the burst is queued when it frees
  options.batcher.max_batch = kBurst;
  options.batcher.max_wait_ms = 250.0;
  Scheduler scheduler(pool, options);

  // Occupy the single worker long enough for the burst to queue up.
  JobSpec plug;
  plug.catalog = "berlin52";
  plug.engine = "cpu-parallel";
  plug.time_limit_seconds = 0.15;
  Scheduler::Admission plug_in = scheduler.submit(plug);
  ASSERT_TRUE(plug_in.accepted) << plug_in.error;

  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < kBurst; ++j) {
    Scheduler::Admission a = scheduler.submit(batchable_spec(100 + j));
    ASSERT_TRUE(a.accepted) << a.error;
    ids.push_back(a.id);
  }

  for (std::uint64_t id : ids) {
    EXPECT_EQ(wait_terminal(scheduler, id), JobState::kFinished);
  }

  // Solo reference: the pipeline the scheduler runs per member.
  Instance instance = make_catalog_instance(*find_catalog_entry("berlin52"));
  Tour start = multiple_fragment(instance);

  std::uint64_t batch_id = 0;
  for (std::size_t j = 0; j < kBurst; ++j) {
    std::shared_ptr<const Job> job = scheduler.find(ids[j]);
    ASSERT_NE(job, nullptr);

    TwoOptSimd solo;
    IlsOptions opts;
    opts.seed = 100 + j;
    opts.max_iterations = 5;
    opts.time_limit_seconds = 10.0;
    IlsResult want = iterated_local_search(solo, instance, start, opts);

    JobResult got = job->result();
    EXPECT_EQ(got.best_length, want.best_length) << "job " << ids[j];
    EXPECT_EQ(got.iterations, want.iterations) << "job " << ids[j];
    EXPECT_EQ(got.improvements, want.improvements) << "job " << ids[j];
    EXPECT_EQ(got.checks, want.checks) << "job " << ids[j];

    // All members rode one batch, occupancy = the full burst.
    std::uint64_t this_batch = job->batch_id.load();
    EXPECT_NE(this_batch, 0u) << "job " << ids[j];
    if (batch_id == 0) batch_id = this_batch;
    EXPECT_EQ(this_batch, batch_id) << "job " << ids[j];
    EXPECT_EQ(job->batch_occupancy.load(), static_cast<std::int32_t>(kBurst))
        << "job " << ids[j];

    // The per-member report names its batch.
    obs::JsonValue report = obs::json_parse(got.report_json);
    EXPECT_EQ(report.at("config").at("batch_id").string,
              std::to_string(batch_id));
  }

  // One coalesced batch of the whole burst; the plug job ran solo and
  // counts in neither.
  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_jobs, kBurst);
  EXPECT_EQ(stats.finished, kBurst + 1);  // burst + the plug job

  // The /tracez feed carries batch membership for coalesced jobs.
  bool saw_batched = false;
  for (const Scheduler::JobTraceSummary& s : scheduler.slowest_settled()) {
    if (s.batch_id != 0) {
      saw_batched = true;
      EXPECT_EQ(s.batch_id, batch_id);
      EXPECT_EQ(s.batch_occupancy, static_cast<std::int32_t>(kBurst));
    }
  }
  EXPECT_TRUE(saw_batched);

  scheduler.shutdown(/*drain_first=*/false);
}

// Cancelling a queued member before the batch forms must not poison the
// batch: the cancelled job settles cancelled, the rest finish.
TEST(ServeScheduler, CancelledMemberDoesNotPoisonBatch) {
  std::vector<std::unique_ptr<simt::Device>> owned;
  owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
  std::vector<simt::Device*> devices{owned[0].get()};
  simt::DevicePool pool(devices);

  SchedulerOptions options;
  options.workers = 1;
  options.batcher.max_batch = 4;
  options.batcher.max_wait_ms = 250.0;
  Scheduler scheduler(pool, options);

  JobSpec plug;
  plug.catalog = "berlin52";
  plug.engine = "cpu-parallel";
  plug.time_limit_seconds = 0.15;
  ASSERT_TRUE(scheduler.submit(plug).accepted);

  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < 3; ++j) {
    Scheduler::Admission a = scheduler.submit(batchable_spec(200 + j));
    ASSERT_TRUE(a.accepted) << a.error;
    ids.push_back(a.id);
  }
  ASSERT_TRUE(scheduler.cancel(ids[1]));

  EXPECT_EQ(wait_terminal(scheduler, ids[0]), JobState::kFinished);
  EXPECT_EQ(wait_terminal(scheduler, ids[1]), JobState::kCancelled);
  EXPECT_EQ(wait_terminal(scheduler, ids[2]), JobState::kFinished);

  scheduler.shutdown(/*drain_first=*/false);
}

// A fatal fault in a coalesced batch does not fail its members: each one
// retries alone, as a batch of one under its own max_attempts, and
// finishes with the result its solo run produces.
TEST(ServeScheduler, BatchFaultRetriesEachMemberAlone) {
  simt::FaultPlan plan(5);
  plan.inject({.device = "gpu0",
               .kind = simt::FaultKind::kLaunchFailure,
               .first_launch = 0,
               .count = 1});
  simt::FaultInjector injector(plan);
  simt::Device device(simt::gtx680_cuda());
  device.set_label("gpu0");
  device.set_fault_injector(&injector);
  std::vector<simt::Device*> devices{&device};
  simt::DevicePool pool(devices);

  constexpr std::size_t kBurst = 4;
  SchedulerOptions options;
  options.workers = 1;
  options.batcher.max_batch = kBurst;
  options.batcher.max_wait_ms = 250.0;
  Scheduler scheduler(pool, options);

  JobSpec plug;
  plug.catalog = "berlin52";
  plug.engine = "cpu-parallel";
  plug.time_limit_seconds = 0.15;
  ASSERT_TRUE(scheduler.submit(plug).accepted);

  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < kBurst; ++j) {
    Scheduler::Admission a =
        scheduler.submit(batchable_spec(300 + j, "gpu-small"));
    ASSERT_TRUE(a.accepted) << a.error;
    ids.push_back(a.id);
  }
  for (std::uint64_t id : ids) {
    EXPECT_EQ(wait_terminal(scheduler, id), JobState::kFinished);
  }

  Instance instance = make_catalog_instance(*find_catalog_entry("berlin52"));
  Tour start = multiple_fragment(instance);
  for (std::size_t j = 0; j < kBurst; ++j) {
    std::shared_ptr<const Job> job = scheduler.find(ids[j]);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->attempts.load(), 2) << "job " << ids[j];
    simt::Device healthy(simt::gtx680_cuda());
    TwoOptGpuSmall solo(healthy);
    IlsOptions opts;
    opts.seed = 300 + j;
    opts.max_iterations = 5;
    opts.time_limit_seconds = 10.0;
    IlsResult want = iterated_local_search(solo, instance, start, opts);
    JobResult got = job->result();
    EXPECT_EQ(got.best_length, want.best_length) << "job " << ids[j];
    EXPECT_EQ(got.iterations, want.iterations) << "job " << ids[j];
    EXPECT_EQ(got.checks, want.checks) << "job " << ids[j];
    EXPECT_EQ(got.order, std::vector<std::int32_t>(want.best.order().begin(),
                                                   want.best.order().end()))
        << "job " << ids[j];
  }

  // The failed batch counts once; the members' solo retries count nothing.
  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_jobs, kBurst);
  EXPECT_EQ(stats.retries, kBurst);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(device.counters().snapshot().launch_failures, 1u);

  scheduler.shutdown(/*drain_first=*/false);
}

}  // namespace
}  // namespace tspopt::serve
