#include "serve/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/timer.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/checkpoint.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/obs_adapters.hpp"
#include "tsp/catalog.hpp"

namespace tspopt::serve {

namespace {

// One shared bucket layout for every serve phase histogram: queue waits
// are sub-millisecond under light load, job runs are seconds under heavy.
const std::vector<double> kLatencyBucketsUs = {
    100,    250,    500,     1000,    2500,    5000,     10000,    25000,
    50000,  100000, 250000,  500000,  1000000, 2500000,  5000000,  10000000};

// Devices a run of `engine` leases: a many-device engine (gpu-multi)
// spans the job's request (at least two cards), a one-device engine one
// card, CPU engines none. One-device engines are honored exactly as
// requested: their fault tolerance comes from the scheduler's attempt
// retry on a fresh lease, not from an engine substitution.
std::size_t lease_size(const EngineFactory::EngineInfo& engine,
                       std::int32_t requested) {
  if (engine.lease == EngineFactory::Lease::kMany) {
    return std::max<std::size_t>(2, static_cast<std::size_t>(requested));
  }
  return engine.lease == EngineFactory::Lease::kOne ? 1 : 0;
}

// The multi-device engine behind a solo gpu-multi run, whose per-device
// health goes into the run report; nullptr for every other engine.
const TwoOptMultiDevice* multi_device_engine(BatchTwoOptEngine& engine) {
  auto* slots = dynamic_cast<PerSlotBatchEngine*>(&engine);
  return slots == nullptr
             ? nullptr
             : dynamic_cast<const TwoOptMultiDevice*>(&slots->engine());
}

// Admission-time cap for batchable inline payloads. It bounds a batch's
// B x n footprint (the tours it holds and what one coalesced pass stages,
// e.g. batch-gpu's concatenated upload) at full occupancy, so a spec too
// wide for a full batch is rejected at the door, not when a batch happens
// to fill up. The measure is max_batch tours of n + 1 floats padded to 16,
// per coordinate axis; 2^24 floats comfortably covers the paper's largest
// instances at max_batch = 1.
constexpr std::size_t kMaxBatchSlabFloats = std::size_t{1} << 24;

}  // namespace

const std::vector<double>& Scheduler::latency_buckets_us() {
  return kLatencyBucketsUs;
}

struct Scheduler::Instruments {
  obs::Gauge& queue_depth;
  obs::Gauge& active_jobs;
  obs::Gauge& queue_oldest_age_ms;
  // Per-phase pipeline latency, one labeled series per JobPhase — the
  // Prometheus-side mirror of the /tracez per-job breakdown.
  std::array<obs::Histogram*, kJobPhases.size()> phase_us{};
  obs::Counter& accepted;
  obs::Counter& rejected_full;
  obs::Counter& rejected_invalid;
  obs::Counter& started;
  obs::Counter& finished;
  obs::Counter& failed;
  obs::Counter& cancelled;
  obs::Counter& expired;
  obs::Counter& retries;
  obs::Counter& recovered;
  obs::Histogram& batch_occupancy;

  explicit Instruments(obs::Registry& r)
      : queue_depth(r.gauge("serve.queue_depth")),
        active_jobs(r.gauge("serve.active_jobs")),
        queue_oldest_age_ms(r.gauge("serve.queue_oldest_age_ms")),
        accepted(r.counter("serve.jobs_accepted")),
        rejected_full(r.counter("serve.jobs_rejected", {{"reason", "full"}})),
        rejected_invalid(
            r.counter("serve.jobs_rejected", {{"reason", "invalid"}})),
        started(r.counter("serve.jobs_started")),
        finished(r.counter("serve.jobs_finished")),
        failed(r.counter("serve.jobs_failed")),
        cancelled(r.counter("serve.jobs_cancelled")),
        expired(r.counter("serve.jobs_expired")),
        retries(r.counter("serve.job_retries")),
        recovered(r.counter("serve.recovered_jobs")),
        batch_occupancy(r.histogram("serve.batch_occupancy",
                                    {1, 2, 4, 8, 16, 32, 64})) {
    for (JobPhase phase : kJobPhases) {
      phase_us[static_cast<std::size_t>(phase)] =
          &r.histogram("serve.job_phase_us", kLatencyBucketsUs,
                       {{"phase", to_string(phase)}});
    }
  }
};

Scheduler::Scheduler(simt::DevicePool& pool, SchedulerOptions options)
    : pool_(pool),
      options_(options),
      queue_(std::max<std::size_t>(1, options.queue_capacity)),
      m_(std::make_unique<Instruments>(obs::Registry::global())) {
  TSPOPT_CHECK_MSG(options_.workers >= 1, "Scheduler needs >= 1 worker");
  TSPOPT_CHECK(options_.max_attempts >= 1);
  // Recovery runs to completion before the first worker exists, so a
  // replayed backlog is fully re-queued before anything can pop it.
  if (!options_.journal_dir.empty()) {
    journal_ =
        std::make_unique<Journal>(options_.journal_dir, options_.journal);
    recover_from_journal();
  }
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

Scheduler::~Scheduler() { shutdown(/*drain_first=*/false); }

void Scheduler::recover_from_journal() {
  Journal::ReplayResult rep = journal_->open_and_replay();
  next_id_.store(rep.next_id, std::memory_order_relaxed);
  for (Journal::RecoveredJob& rj : rep.jobs) {
    bool resume = rj.state == JobState::kRunning;
    auto job = std::make_shared<Job>(rj.id, std::move(rj.spec));
    if (is_terminal(rj.state)) {
      // Settled before the crash: restore the retained result so clients
      // polling for it get the same bytes the crashed daemon would have
      // served. Re-enters the retention queue (oldest-first eviction).
      job->restore_terminal(rj.state, std::move(rj.result),
                            std::move(rj.error));
      std::lock_guard lock(jobs_mu_);
      jobs_[rj.id] = job;
      terminal_order_.push_back(rj.id);
      if (!job->spec().idempotency_key.empty()) {
        idempotency_[job->spec().idempotency_key] = rj.id;
      }
      continue;
    }
    // Queued or running at the crash: re-queue. `force` bypasses the
    // capacity check — every one of these was already accepted once, and
    // a restart must never lose an accepted job. Running jobs resume
    // from their spool checkpoint; the accepted_at clock (and so any
    // deadline) restarts at recovery time, the lenient choice.
    job->mark_recovered(resume, rj.attempts);
    {
      std::lock_guard lock(jobs_mu_);
      jobs_[rj.id] = job;
      if (!job->spec().idempotency_key.empty()) {
        idempotency_[job->spec().idempotency_key] = rj.id;
      }
    }
    {
      std::lock_guard lock(drain_mu_);
      ++live_jobs_;
    }
    queue_.push(job, /*force=*/true);
    n_recovered_.fetch_add(1, std::memory_order_relaxed);
    m_->recovered.add();
    obs::Log::global()
        .event(obs::LogLevel::kInfo, "job.recovered")
        .arg("id", rj.id)
        .arg("engine", job->spec().engine)
        .arg("resume", resume)
        .arg("attempts", rj.attempts);
  }
  m_->queue_depth.set(static_cast<double>(queue_.depth()));
}

Scheduler::Admission Scheduler::submit(JobSpec spec) {
  auto reject_invalid = [&](const std::string& why) {
    n_rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    m_->rejected_invalid.add();
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "job.rejected")
        .arg("reason", "invalid")
        .arg("error", why)
        .arg("engine", spec.engine);
    return Admission{false, 0, 0.0, why};
  };

  const EngineFactory::EngineInfo* engine = EngineFactory::find(spec.engine);
  if (engine == nullptr) {
    return reject_invalid("unknown engine \"" + spec.engine + "\"");
  }
  if (!spec.inline_payload()) {
    if (!find_catalog_entry(spec.catalog)) {
      return reject_invalid("unknown catalog instance \"" + spec.catalog +
                            "\"");
    }
  } else if (spec.points.size() < 3) {
    return reject_invalid("inline payload needs >= 3 points");
  }
  const std::size_t n =
      spec.inline_payload()
          ? spec.points.size()
          : static_cast<std::size_t>(find_catalog_entry(spec.catalog)->n);
  if (spec.devices < 1) return reject_invalid("devices must be >= 1");
  if (spec.devices > 1 && engine->lease == EngineFactory::Lease::kOne) {
    return reject_invalid("engine \"" + spec.engine +
                          "\" is single-device; use gpu-multi for a "
                          "multi-device lease");
  }
  if (spec.time_limit_seconds <= 0.0) {
    return reject_invalid("time_limit_seconds must be positive");
  }
  if (spec.k != 0) {
    if (!engine->uses_k) {
      return reject_invalid("k applies only to the pruned engines, not \"" +
                            spec.engine + "\"");
    }
    if (spec.k < 1) return reject_invalid("k must be >= 1");
    // A candidate list cannot include the city itself, so k caps at n-1.
    if (static_cast<std::size_t>(spec.k) >= n) {
      return reject_invalid("k must be < the instance size (" +
                            std::to_string(n) + ")");
    }
  }
  // City caps are device properties; admission validates against the
  // pool's device model (one simulated device class per process today).
  static const simt::Device device_model(simt::gtx680_cuda());
  if (spec.batchable) {
    // Batch-shape admission: everything that could make this job
    // un-stageable inside a full coalesced batch is rejected here with a
    // typed "batch shape" error, so a queued batchable job can always
    // join any batch its key admits it to.
    if (engine->batch_class.empty()) {
      std::string batchable;
      for (const EngineFactory::EngineInfo& row : EngineFactory::roster()) {
        if (row.batch_class.empty()) continue;
        batchable += (batchable.empty() ? "" : ", ") + row.name;
      }
      return reject_invalid("batch shape: engine \"" + spec.engine +
                            "\" has no batch implementation (batchable "
                            "engines: " + batchable + ")");
    }
    const EngineFactory::EngineInfo& batch =
        *EngineFactory::find(engine->batch_class);
    if (batch.city_cap != nullptr &&
        n > static_cast<std::size_t>(batch.city_cap(device_model))) {
      return reject_invalid(
          "batch shape: n=" + std::to_string(n) + " exceeds " + batch.name +
          "'s shared-memory tour capacity (" +
          std::to_string(batch.city_cap(device_model)) + " cities)");
    }
    std::size_t max_batch = std::max<std::size_t>(1, options_.batcher.max_batch);
    // n + 1 floats padded to 16 per tour (see kMaxBatchSlabFloats).
    std::size_t stride = ((n + 1 + 15) / 16) * 16;
    if (stride * max_batch > kMaxBatchSlabFloats) {
      return reject_invalid(
          "batch shape: n=" + std::to_string(n) + " at max_batch=" +
          std::to_string(max_batch) +
          " exceeds the batch staging limit of " +
          std::to_string(kMaxBatchSlabFloats) + " floats per axis");
    }
  }
  // Every job, batchable or not, may run alone on its own engine: refuse
  // here what that engine would refuse after a lease and a construction.
  if (engine->city_cap != nullptr &&
      n > static_cast<std::size_t>(engine->city_cap(device_model))) {
    return reject_invalid("n=" + std::to_string(n) + " exceeds engine \"" +
                          spec.engine + "\"'s city cap (" +
                          std::to_string(engine->city_cap(device_model)) +
                          " cities)");
  }

  // Idempotent resubmit: a key matching a retained job (live or settled)
  // is answered with that job's id — the dedup path a client takes after
  // an ambiguous failure (timeout, dropped connection, daemon restart).
  if (!spec.idempotency_key.empty()) {
    std::lock_guard lock(jobs_mu_);
    auto it = idempotency_.find(spec.idempotency_key);
    if (it != idempotency_.end() && jobs_.count(it->second) != 0) {
      Admission dup{true, it->second, 0.0, ""};
      dup.deduped = true;
      return dup;
    }
  }

  auto job = std::make_shared<Job>(
      next_id_.fetch_add(1, std::memory_order_relaxed), std::move(spec));
  // Account the job and make it findable/cancellable *before* it becomes
  // poppable: a worker may otherwise run and settle a job whose id a
  // racing status/cancel cannot yet resolve. Rolled back on rejection.
  {
    std::lock_guard lock(drain_mu_);
    ++live_jobs_;
  }
  std::uint64_t dup_id = 0;
  {
    std::lock_guard lock(jobs_mu_);
    if (!job->spec().idempotency_key.empty()) {
      // emplace resolves the race two same-key submits lost above: the
      // second one finds the first's id already mapped (a mapping to an
      // evicted job is stale — reclaim it).
      auto [it, inserted] =
          idempotency_.emplace(job->spec().idempotency_key, job->id());
      if (!inserted) {
        if (jobs_.count(it->second) != 0) {
          dup_id = it->second;
        } else {
          it->second = job->id();
        }
      }
    }
    if (dup_id == 0) jobs_[job->id()] = job;
  }
  if (dup_id != 0) {
    {
      std::lock_guard lock(drain_mu_);
      TSPOPT_CHECK(live_jobs_ > 0);
      --live_jobs_;
    }
    drain_cv_.notify_all();
    Admission dup{true, dup_id, 0.0, ""};
    dup.deduped = true;
    return dup;
  }

  // The rejection rollback, claimed via the state machine: a cancel()
  // that raced in through the jobs_ window has already settled (and
  // accounted) the job, in which case only the response remains.
  auto rollback = [&] {
    if (job->try_transition(JobState::kQueued, JobState::kFailed)) {
      {
        std::lock_guard lock(jobs_mu_);
        jobs_.erase(job->id());
        release_key(*job);
      }
      {
        std::lock_guard lock(drain_mu_);
        TSPOPT_CHECK(live_jobs_ > 0);
        --live_jobs_;
      }
      drain_cv_.notify_all();  // a concurrent drain() may be waiting on 0
    }
  };

  // Durability barrier: the job is only "accepted" once its record is in
  // the journal — a job we cannot make durable must not run, or a crash
  // would silently lose work the client was promised.
  if (journal_ != nullptr && !journal_->append_accepted(*job)) {
    rollback();
    n_rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    m_->rejected_invalid.add();
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "job.rejected")
        .arg("reason", "journal")
        .arg("id", job->id());
    return Admission{false, 0, 0.0, "journal write failed"};
  }
  JobQueue::PushResult pushed = queue_.push(job);
  if (pushed != JobQueue::PushResult::kOk) {
    if (journal_ != nullptr) journal_->append_rejected(job->id());
    rollback();
    if (pushed == JobQueue::PushResult::kClosed) {
      return Admission{false, 0, estimate_retry_after_ms(),
                       "service draining"};
    }
    double retry_after = estimate_retry_after_ms();
    n_rejected_full_.fetch_add(1, std::memory_order_relaxed);
    m_->rejected_full.add();
    obs::Log::global()
        .event(obs::LogLevel::kInfo, "job.rejected")
        .arg("reason", "full")
        .arg("retry_after_ms", retry_after)
        .arg("queue_depth", static_cast<std::uint64_t>(queue_.depth()));
    return Admission{false, 0, retry_after, "queue full"};
  }
  n_accepted_.fetch_add(1, std::memory_order_relaxed);
  m_->accepted.add();
  m_->queue_depth.set(static_cast<double>(queue_.depth()));
  m_->queue_oldest_age_ms.set(queue_.oldest_age_ms());
  {
    obs::LogEvent e =
        obs::Log::global().event(obs::LogLevel::kInfo, "job.accepted");
    if (e) {
      e.arg("id", job->id())
          .arg("engine", job->spec().engine)
          .arg("instance", job->spec().inline_payload()
                               ? job->spec().instance_name
                               : job->spec().catalog)
          .arg("priority", job->spec().priority)
          .arg("deadline_ms", job->spec().deadline_ms);
      if (!job->spec().trace_id.empty()) {
        e.arg("trace_id", job->spec().trace_id);
      }
    }
  }
  return Admission{true, job->id(), 0.0, ""};
}

void Scheduler::release_key(const Job& job) {
  const std::string& key = job.spec().idempotency_key;
  if (key.empty()) return;
  auto it = idempotency_.find(key);
  if (it != idempotency_.end() && it->second == job.id()) {
    idempotency_.erase(it);
  }
}

std::shared_ptr<const Job> Scheduler::find(std::uint64_t id) const {
  std::lock_guard lock(jobs_mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool Scheduler::forget(std::uint64_t id) {
  {
    std::lock_guard lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || !is_terminal(it->second->state())) return false;
    release_key(*it->second);
    jobs_.erase(it);
  }
  if (journal_ != nullptr) journal_->append_forgotten(id);
  return true;
}

bool Scheduler::cancel(std::uint64_t id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
  }
  job->request_cancel();
  // Queued jobs resolve here; running jobs resolve at the worker's next
  // should_stop poll. Either way the request landed.
  if (job->try_transition(JobState::kQueued, JobState::kCancelled)) {
    settle(job, JobState::kCancelled);
    return true;
  }
  return !is_terminal(job->state()) || job->state() == JobState::kCancelled;
}

double Scheduler::estimate_retry_after_ms() const {
  double ema = ema_run_ms_.load(std::memory_order_relaxed);
  double per_slot = ema > 0.0 ? ema : options_.min_retry_after_ms;
  double backlog = static_cast<double>(queue_.depth()) + 1.0;
  double estimate = per_slot * backlog / static_cast<double>(options_.workers);
  return std::max(options_.min_retry_after_ms, estimate);
}

void Scheduler::note_run_seconds(double seconds) {
  double ms = seconds * 1e3;
  double prev = ema_run_ms_.load(std::memory_order_relaxed);
  ema_run_ms_.store(prev <= 0.0 ? ms : 0.8 * prev + 0.2 * ms,
                    std::memory_order_relaxed);
}

void Scheduler::record_phase(Job& job, JobPhase phase, double seconds) {
  job.set_phase_seconds(phase, seconds);
  m_->phase_us[static_cast<std::size_t>(phase)]->observe(seconds * 1e6);
}

void Scheduler::settle(const std::shared_ptr<Job>& job, JobState terminal) {
  WallTimer settle_timer;
  const char* event = "job.finished";
  switch (terminal) {
    case JobState::kFinished:
      n_finished_.fetch_add(1, std::memory_order_relaxed);
      m_->finished.add();
      event = "job.finished";
      break;
    case JobState::kCancelled:
      n_cancelled_.fetch_add(1, std::memory_order_relaxed);
      m_->cancelled.add();
      event = "job.cancelled";
      break;
    case JobState::kExpired:
      n_expired_.fetch_add(1, std::memory_order_relaxed);
      m_->expired.add();
      event = "job.expired";
      break;
    case JobState::kFailed:
      n_failed_.fetch_add(1, std::memory_order_relaxed);
      m_->failed.add();
      event = "job.failed";
      break;
    default:
      break;
  }
  m_->queue_depth.set(static_cast<double>(queue_.depth()));
  if (journal_ != nullptr) {
    // Persist the terminal state (best-effort: the job already settled in
    // memory; a missed settle record re-runs the job after a crash, which
    // at-least-once semantics permit), and drop the spool checkpoint —
    // nothing will ever resume this job.
    journal_->append_settled(*job, terminal);
    std::error_code ec;
    std::filesystem::remove(journal_->checkpoint_path(job->id()), ec);
  }
  std::vector<std::uint64_t> evicted;
  {
    // Enter the job into the retention queue and evict beyond the cap, so
    // results stay retrievable for a while but never accumulate without
    // bound. Ids already forget()ten are skipped.
    std::lock_guard lock(jobs_mu_);
    terminal_order_.push_back(job->id());
    const std::size_t cap = std::max<std::size_t>(1, options_.max_retained_jobs);
    while (terminal_order_.size() > cap) {
      std::uint64_t oldest = terminal_order_.front();
      terminal_order_.pop_front();
      auto it = jobs_.find(oldest);
      if (it != jobs_.end() && is_terminal(it->second->state())) {
        release_key(*it->second);
        jobs_.erase(it);
        evicted.push_back(oldest);
      }
    }
  }
  if (journal_ != nullptr) {
    for (std::uint64_t id : evicted) journal_->append_forgotten(id);
  }

  // Settle phase ends here: everything after is reporting, not work the
  // next job waits on.
  record_phase(*job, JobPhase::kSettle, settle_timer.seconds());
  m_->queue_oldest_age_ms.set(queue_.oldest_age_ms());

  // Feed the /tracez ring: keep this job if the ring has room or it is
  // slower than the current fastest entry.
  {
    JobTraceSummary summary;
    summary.id = job->id();
    summary.trace_id = job->spec().trace_id;
    summary.engine = job->spec().engine;
    summary.state = terminal;
    for (JobPhase phase : kJobPhases) {
      double seconds = job->phase_seconds(phase);
      summary.phase_ms[static_cast<std::size_t>(phase)] =
          seconds > 0.0 ? seconds * 1e3 : 0.0;
    }
    summary.best_length = job->best_length.load(std::memory_order_relaxed);
    summary.batch_id = job->batch_id.load(std::memory_order_relaxed);
    summary.batch_occupancy =
        job->batch_occupancy.load(std::memory_order_relaxed);
    std::lock_guard lock(tracez_mu_);
    tracez_.push_back(std::move(summary));
    if (tracez_.size() > kTracezCapacity) {
      auto fastest = std::min_element(
          tracez_.begin(), tracez_.end(),
          [](const JobTraceSummary& a, const JobTraceSummary& b) {
            return a.total_ms() < b.total_ms();
          });
      tracez_.erase(fastest);
    }
  }

  {
    obs::LogEvent e = obs::Log::global().event(
        terminal == JobState::kFailed ? obs::LogLevel::kWarn
                                      : obs::LogLevel::kInfo,
        event);
    if (e) {
      e.arg("id", job->id()).arg("state", to_string(terminal));
      if (!job->spec().trace_id.empty()) {
        e.arg("trace_id", job->spec().trace_id);
      }
      std::int64_t best = job->best_length.load(std::memory_order_relaxed);
      if (best >= 0) e.arg("best", best);
      e.arg("iterations", job->iteration.load(std::memory_order_relaxed));
      double run = job->phase_seconds(JobPhase::kRun);
      if (run >= 0.0) e.arg("run_seconds", run);
      e.arg("settle_seconds", job->phase_seconds(JobPhase::kSettle));
      std::string error = job->error();
      if (!error.empty()) e.arg("error", error);
    }
  }
  {
    std::lock_guard lock(drain_mu_);
    TSPOPT_CHECK(live_jobs_ > 0);
    --live_jobs_;
  }
  drain_cv_.notify_all();
}

void Scheduler::worker_loop(std::size_t worker_index) {
  (void)worker_index;
  for (;;) {
    JobQueue::PopOutcome out = queue_.pop();
    if (out.discarded != nullptr) {
      m_->queue_depth.set(static_cast<double>(queue_.depth()));
      settle(out.discarded, out.discarded->state());
      continue;
    }
    if (out.job == nullptr) return;  // closed and drained
    run(collect_batch(queue_, options_.batcher, std::move(out.job)));
  }
}

bool Scheduler::begin_running(const std::shared_ptr<Job>& job) {
  m_->queue_depth.set(static_cast<double>(queue_.depth()));
  m_->queue_oldest_age_ms.set(queue_.oldest_age_ms());

  // Resolve races that landed between dequeue and start.
  if (job->cancel_requested() &&
      job->try_transition(JobState::kQueued, JobState::kCancelled)) {
    settle(job, JobState::kCancelled);
    return false;
  }
  if (job->deadline_passed() &&
      job->try_transition(JobState::kQueued, JobState::kExpired)) {
    settle(job, JobState::kExpired);
    return false;
  }
  if (!job->try_transition(JobState::kQueued, JobState::kRunning)) {
    return false;  // someone else already resolved it
  }

  // Only a started job records its wait, so serve.job_phase_us{wait}
  // counts exactly the jobs serve.jobs_started counts.
  double wait_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            job->accepted_at())
                            .count();
  record_phase(*job, JobPhase::kWait, wait_seconds);
  m_->started.add();
  active_.fetch_add(1, std::memory_order_relaxed);
  m_->active_jobs.set(static_cast<double>(active_.load()));
  {
    obs::LogEvent e =
        obs::Log::global().event(obs::LogLevel::kInfo, "job.started");
    if (e) {
      e.arg("id", job->id())
          .arg("engine", job->spec().engine)
          .arg("wait_seconds", wait_seconds);
      if (!job->spec().trace_id.empty()) {
        e.arg("trace_id", job->spec().trace_id);
      }
    }
  }

  obs::Tracer& tracer = obs::Tracer::global();
  // The queue wait already happened by the time a worker sees the job, so
  // it cannot be an RAII span — record it retroactively, ending now, so
  // the merged timeline shows wait -> lease -> run back to back.
  if (tracer.enabled() && wait_seconds > 0.0) {
    obs::TraceEvent wait_event;
    wait_event.name = "serve.job.wait";
    wait_event.category = "serve";
    wait_event.duration_ns = static_cast<std::int64_t>(wait_seconds * 1e9);
    wait_event.start_ns = tracer.now_ns() - wait_event.duration_ns;
    wait_event.tid = obs::current_thread_ordinal();
    wait_event.args.emplace_back("id", std::to_string(job->id()));
    if (!job->spec().trace_id.empty()) {
      wait_event.args.emplace_back(
          "trace_id", "\"" + obs::json_escape(job->spec().trace_id) + "\"");
    }
    tracer.record(std::move(wait_event));
  }
  return true;
}

void Scheduler::run(std::vector<std::shared_ptr<Job>> jobs) {
  // Claim every job. Jobs that lost a cancel/deadline race settled inside
  // begin_running and drop out here.
  std::vector<std::shared_ptr<Job>> members;
  members.reserve(jobs.size());
  for (std::shared_ptr<Job>& job : jobs) {
    if (begin_running(job)) members.push_back(std::move(job));
  }
  if (members.empty()) return;

  // The parent span every member's work nests under: serve.job for a solo
  // job, serve.batch (carrying the batch identity; job-level trace events
  // carry the member ids) for a coalesced one.
  std::uint64_t batch_id = 0;
  obs::Span span;
  const JobSpec& lead = members.front()->spec();
  if (members.size() == 1) {
    span = obs::Tracer::global().span("serve.job", "serve");
    if (span) {
      span.arg("id", members.front()->id());
      span.arg("engine", lead.engine);
      span.arg("priority", lead.priority);
      if (!lead.trace_id.empty()) span.arg("trace_id", lead.trace_id);
      if (lead.parent_span != 0) span.arg("parent_span", lead.parent_span);
    }
  } else {
    batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
    for (const std::shared_ptr<Job>& job : members) {
      job->batch_id.store(batch_id, std::memory_order_relaxed);
      job->batch_occupancy.store(static_cast<std::int32_t>(members.size()),
                                 std::memory_order_relaxed);
    }
    n_batches_.fetch_add(1, std::memory_order_relaxed);
    n_batched_jobs_.fetch_add(members.size(), std::memory_order_relaxed);
    m_->batch_occupancy.observe(static_cast<double>(members.size()));
    span = obs::Tracer::global().span("serve.batch", "serve");
    if (span) {
      span.arg("batch_id", batch_id);
      span.arg("occupancy", static_cast<std::uint64_t>(members.size()));
      span.arg("key", batch_key(lead));
      span.arg("engine", lead.engine);
    }
    obs::LogEvent e =
        obs::Log::global().event(obs::LogLevel::kInfo, "batch.started");
    if (e) {
      e.arg("batch_id", batch_id)
          .arg("occupancy", static_cast<std::uint64_t>(members.size()))
          .arg("engine", lead.engine);
    }
  }

  WallTimer run_timer;
  std::vector<JobState> terminals = run_attempts(members, batch_id);
  double run_seconds = run_timer.seconds();
  // The EMA feeds per-job retry-after hints; a batch completes
  // members.size() jobs in one run, so amortize before averaging in.
  note_run_seconds(run_seconds / static_cast<double>(members.size()));

  for (std::size_t b = 0; b < members.size(); ++b) {
    const std::shared_ptr<Job>& job = members[b];
    record_phase(*job, JobPhase::kRun, run_seconds);
    active_.fetch_sub(1, std::memory_order_relaxed);
    m_->active_jobs.set(static_cast<double>(active_.load()));
    job->try_transition(JobState::kRunning, terminals[b]);
    settle(job, terminals[b]);
  }
}

std::vector<JobState> Scheduler::run_attempts(
    const std::vector<std::shared_ptr<Job>>& members, std::uint64_t batch_id) {
  // A recovered running job re-runs its interrupted attempt (resuming from
  // its spool checkpoint when it runs solo), so max_attempts bounds total
  // tries across restarts, not per incarnation.
  bool resume = false;
  for (const std::shared_ptr<Job>& job : members) {
    bool recovered = job->take_resume();
    resume = recovered && members.size() == 1;
    std::int32_t attempt = recovered ? std::max(1, job->attempts.load())
                                     : job->attempts.load() + 1;
    job->attempts.store(attempt, std::memory_order_relaxed);
    if (journal_ != nullptr) journal_->append_started(job->id(), attempt);
  }
  try {
    return execute(members, batch_id, resume);
  } catch (const std::exception& e) {
    if (batch_id != 0) {
      obs::Log::global()
          .event(obs::LogLevel::kWarn, "batch.failed")
          .arg("batch_id", batch_id)
          .arg("occupancy", static_cast<std::uint64_t>(members.size()))
          .arg("error", e.what());
    }
    // The error may belong to any member (or to the lease), so each one
    // with attempts left retries alone.
    std::vector<JobState> terminals;
    terminals.reserve(members.size());
    for (const std::shared_ptr<Job>& job : members) {
      std::int32_t attempt = job->attempts.load(std::memory_order_relaxed);
      if (attempt >= options_.max_attempts || job->cancel_requested() ||
          stop_all_.load(std::memory_order_relaxed)) {
        job->set_error(e.what());
        terminals.push_back(JobState::kFailed);
        continue;
      }
      n_retries_.fetch_add(1, std::memory_order_relaxed);
      m_->retries.add();
      obs::Log::global()
          .event(obs::LogLevel::kWarn, "job.retry")
          .arg("id", job->id())
          .arg("attempt", attempt)
          .arg("error", e.what());
      terminals.push_back(run_attempts({job}, 0).front());
    }
    return terminals;
  }
}

std::vector<JobState> Scheduler::execute(
    const std::vector<std::shared_ptr<Job>>& members, std::uint64_t batch_id,
    bool resume) {
  const JobSpec& lead = members.front()->spec();
  std::vector<JobState> terminals(members.size(), JobState::kFailed);

  // Defense in depth against a collection bug: a member whose shape
  // diverges from the lead's batch key fails individually with a typed
  // error; the rest of the batch still runs.
  std::vector<std::size_t> live;
  live.reserve(members.size());
  const std::string key = batch_id != 0 ? batch_key(lead) : std::string();
  for (std::size_t b = 0; b < members.size(); ++b) {
    if (batch_id == 0 || batch_key(members[b]->spec()) == key) {
      live.push_back(b);
      continue;
    }
    members[b]->set_error(
        "batch shape: member diverges from the batch key \"" + key + "\"");
  }
  if (live.empty()) return terminals;

  Instance instance =
      lead.inline_payload()
          ? Instance(lead.instance_name, Metric::kEuc2D, lead.points)
          : make_catalog_instance(*find_catalog_entry(lead.catalog));

  // A solo job runs exactly the engine class it requested; a coalesced
  // batch runs its batch class on one lease — B gpu jobs on one launch
  // sequence instead of B serialized leases. Per-attempt engines keep
  // gpu-multi's fault quarantine/retry state scoped to this attempt: a
  // card that faults here re-enters the pool healthy for the next job.
  const EngineFactory::EngineInfo* runs = EngineFactory::find(lead.engine);
  TSPOPT_CHECK_MSG(runs != nullptr, "unknown engine: " << lead.engine);
  if (batch_id != 0) runs = EngineFactory::find(runs->batch_class);
  simt::DevicePool::Lease lease;
  if (std::size_t want = lease_size(*runs, lead.devices); want > 0) {
    // Lease acquisition is its own traced/timed phase: under device
    // contention this is where jobs stall, and the wait histogram alone
    // cannot tell queue pressure from device pressure apart.
    WallTimer lease_timer;
    obs::Span lease_span =
        obs::Tracer::global().span("serve.job.lease", "serve");
    if (lease_span) {
      lease_span.arg("devices", static_cast<std::uint64_t>(want));
      if (batch_id != 0) {
        lease_span.arg("batch_id", batch_id);
      } else {
        lease_span.arg("id", members.front()->id());
        if (!lead.trace_id.empty()) lease_span.arg("trace_id", lead.trace_id);
      }
    }
    lease = pool_.acquire(want);
    lease_span.finish();
    double lease_seconds = lease_timer.seconds();
    for (std::size_t b : live) {
      record_phase(*members[b], JobPhase::kLease, lease_seconds);
    }
    TSPOPT_CHECK_MSG(lease, "device pool closed");
  }
  EngineFactory factory(
      &instance, lead.k != 0 ? lead.k : EngineFactory::kDefaultNeighbors,
      options_.multi);
  std::unique_ptr<BatchTwoOptEngine> engine =
      factory.create_batch(runs->name, lease.devices());

  // One PopulationIls member per job, carrying the job's budget and hooks.
  // migrate_every = 0 keeps members independent, which is what makes a
  // batched member bit-identical to its solo run. The population's own
  // budget is its longest member's, so a batch of one runs exactly the
  // job's budget, initial descent included.
  std::vector<PopulationMemberOptions> mopts(live.size());
  std::vector<bool> deadline_clamped(live.size(), false);
  PopulationIlsOptions popts;
  popts.time_limit_seconds = 0.0;
  popts.migrate_every = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::shared_ptr<Job>& job = members[live[i]];
    const JobSpec& spec = job->spec();
    PopulationMemberOptions& mo = mopts[i];
    mo.seed = spec.seed;
    mo.max_iterations = spec.max_iterations;
    mo.time_limit_seconds = spec.time_limit_seconds;
    // Clamp the budget to the deadline so an over-deadline job never holds
    // its device lease past the wall. A clamped run that then consumes the
    // whole remainder ended because of the deadline, not its own budget —
    // remembered for the terminal-state classification below.
    if (job->has_deadline()) {
      double remaining_s = job->deadline_remaining_ms() / 1e3;
      if (remaining_s < mo.time_limit_seconds) {
        mo.time_limit_seconds = std::max(0.0, remaining_s);
        deadline_clamped[i] = true;
      }
    }
    popts.time_limit_seconds =
        std::max(popts.time_limit_seconds, mo.time_limit_seconds);
    mo.should_stop = [this, job] {
      return job->cancel_requested() ||
             stop_all_.load(std::memory_order_relaxed) ||
             job->deadline_passed();
    };
    mo.on_progress = [job](const IlsProgress& p) {
      job->best_length.store(p.best_length, std::memory_order_relaxed);
      job->iteration.store(p.iteration, std::memory_order_relaxed);
    };
  }

  // With a journal, a solo job's ILS loop state spools into
  // dir/spool/job-<id>.ckpt so a crashed daemon's restart resumes the job
  // instead of redoing it. Batches spool nothing: a crash re-runs their
  // members fresh from the journal (at-least-once).
  const std::shared_ptr<Job>& solo = members.front();
  if (batch_id == 0 && journal_ != nullptr &&
      options_.checkpoint_every_iterations > 0) {
    popts.checkpoint_path = journal_->checkpoint_path(solo->id());
    popts.checkpoint_every = options_.checkpoint_every_iterations;
  }

  // A job journaled as running resumes from its latest spool checkpoint:
  // same RNG position, same incumbent — under an iteration budget the
  // continuation is bit-identical to the run that was never killed. No
  // checkpoint on disk (crash before the first write) or one that fails to
  // load or validate (including a file in a retired format) means a fresh
  // run, which the journal's at-least-once contract permits.
  std::optional<PopulationCheckpoint> checkpoint;
  if (resume && journal_ != nullptr &&
      std::filesystem::exists(journal_->checkpoint_path(solo->id()))) {
    try {
      PopulationCheckpoint ck =
          load_population_checkpoint(journal_->checkpoint_path(solo->id()));
      validate_population_checkpoint(ck, instance);
      TSPOPT_CHECK_MSG(ck.members.size() == 1,
                       "a solo job's checkpoint has " << ck.members.size()
                                                      << " members");
      checkpoint = std::move(ck);
    } catch (const CheckError& e) {
      obs::Log::global()
          .event(obs::LogLevel::kWarn, "job.checkpoint_invalid")
          .arg("id", solo->id())
          .arg("error", e.what());
    }
  }
  PopulationIlsResult run;
  std::int64_t constructive_length = 0;
  if (checkpoint.has_value()) {
    const IlsCheckpoint& at = checkpoint->members.front();
    constructive_length =
        at.trace.empty() ? at.best_length : at.trace.front().length;
    solo->best_length.store(at.best_length, std::memory_order_relaxed);
    solo->iteration.store(at.iterations, std::memory_order_relaxed);
    obs::Log::global()
        .event(obs::LogLevel::kInfo, "job.resumed")
        .arg("id", solo->id())
        .arg("iteration", at.iterations)
        .arg("best", at.best_length);
    run = population_ils_resume(*engine, instance, *checkpoint, mopts, popts);
  } else {
    // The same constructive start for every member (it is deterministic
    // per instance); the seeds diverge the perturbations. MF reads the
    // factory's lists, so a job builds one set of k-NN lists.
    Tour tour = instance.metric() == Metric::kExplicit
                    ? nearest_neighbor(instance)
                    : multiple_fragment(instance, factory.neighbor_lists());
    constructive_length = tour.length(instance);
    for (std::size_t b : live) {
      members[b]->best_length.store(constructive_length,
                                    std::memory_order_relaxed);
    }
    run = population_ils(*engine, instance,
                         std::vector<Tour>(live.size(), tour), mopts, popts);
  }

  const TwoOptMultiDevice* multi = multi_device_engine(*engine);
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::shared_ptr<Job>& job = members[live[i]];
    const JobSpec& spec = job->spec();
    const IlsResult& ils = run.members[i];
    job->best_length.store(ils.best_length, std::memory_order_relaxed);
    job->iteration.store(ils.iterations, std::memory_order_relaxed);

    JobResult result;
    result.constructive_length = constructive_length;
    result.best_length = ils.best_length;
    result.iterations = ils.iterations;
    result.improvements = ils.improvements;
    result.checks = ils.checks;
    result.wall_seconds = ils.wall_seconds;
    result.stopped = ils.stopped;
    result.order.assign(ils.best.order().begin(), ils.best.order().end());

    obs::RunReport report;
    describe_environment(report);
    report.set_run("job_id", std::to_string(job->id()));
    report.set_instance(instance.name(), instance.n(),
                        to_string(instance.metric()));
    report.set_engine(engine->name());
    report.set_config("requested_engine", spec.engine);
    report.set_config("priority", std::to_string(spec.priority));
    report.set_config("seed", std::to_string(spec.seed));
    report.set_config("attempt", std::to_string(job->attempts.load()));
    if (batch_id != 0) {
      report.set_config("batch_id", std::to_string(batch_id));
      report.set_config("batch_occupancy",
                        std::to_string(job->batch_occupancy.load()));
    }
    report_ils(report, ils);
    if (multi != nullptr) report_multi_device(report, *multi);
    result.report_json = report.to_json();
    job->set_result(std::move(result));

    // Classify the ending: a cancel or an over-deadline stop is not a
    // completed job even though a best tour exists. Expired: the stop hook
    // fired on the deadline, or the deadline-clamped budget ran dry (an
    // iteration-capped run can still finish early inside the clamp — then
    // the deadline has not passed and the job completed).
    if (job->cancel_requested()) {
      terminals[live[i]] = JobState::kCancelled;
    } else if ((ils.stopped || deadline_clamped[i]) &&
               job->deadline_passed()) {
      terminals[live[i]] = JobState::kExpired;
    } else {
      terminals[live[i]] = JobState::kFinished;
    }
  }
  return terminals;
}

Scheduler::Stats Scheduler::stats() const {
  Stats s;
  s.accepted = n_accepted_.load(std::memory_order_relaxed);
  s.rejected_full = n_rejected_full_.load(std::memory_order_relaxed);
  s.rejected_invalid = n_rejected_invalid_.load(std::memory_order_relaxed);
  s.finished = n_finished_.load(std::memory_order_relaxed);
  s.failed = n_failed_.load(std::memory_order_relaxed);
  s.cancelled = n_cancelled_.load(std::memory_order_relaxed);
  s.expired = n_expired_.load(std::memory_order_relaxed);
  s.retries = n_retries_.load(std::memory_order_relaxed);
  s.recovered = n_recovered_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.batched_jobs = n_batched_jobs_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.active_jobs = active_.load(std::memory_order_relaxed);
  s.workers = options_.workers;
  s.devices = pool_.size();
  s.devices_available = pool_.available();
  return s;
}

void write_stats(obs::JsonWriter& w, const Scheduler::Stats& stats) {
  w.begin_object();
  w.key("accepted").value(stats.accepted);
  w.key("rejected_full").value(stats.rejected_full);
  w.key("rejected_invalid").value(stats.rejected_invalid);
  w.key("finished").value(stats.finished);
  w.key("failed").value(stats.failed);
  w.key("cancelled").value(stats.cancelled);
  w.key("expired").value(stats.expired);
  w.key("retries").value(stats.retries);
  w.key("recovered").value(stats.recovered);
  w.key("batches").value(stats.batches);
  w.key("batched_jobs").value(stats.batched_jobs);
  w.key("queue_depth").value(static_cast<std::uint64_t>(stats.queue_depth));
  w.key("active_jobs").value(static_cast<std::uint64_t>(stats.active_jobs));
  w.key("workers").value(static_cast<std::uint64_t>(stats.workers));
  w.key("devices").value(static_cast<std::uint64_t>(stats.devices));
  w.key("devices_available")
      .value(static_cast<std::uint64_t>(stats.devices_available));
  w.end_object();
}

std::vector<Scheduler::JobTraceSummary> Scheduler::slowest_settled() const {
  std::vector<JobTraceSummary> ring;
  {
    std::lock_guard lock(tracez_mu_);
    ring = tracez_;
  }
  std::sort(ring.begin(), ring.end(),
            [](const JobTraceSummary& a, const JobTraceSummary& b) {
              if (a.total_ms() != b.total_ms()) {
                return a.total_ms() > b.total_ms();
              }
              return a.id < b.id;
            });
  return ring;
}

std::vector<std::shared_ptr<const Job>> Scheduler::active_snapshot() const {
  std::vector<std::shared_ptr<const Job>> live;
  {
    std::lock_guard lock(jobs_mu_);
    for (const auto& [id, job] : jobs_) {
      (void)id;
      if (!is_terminal(job->state())) live.push_back(job);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<const Job>& a,
               const std::shared_ptr<const Job>& b) { return a->id() < b->id(); });
  return live;
}

Scheduler::Readiness Scheduler::readiness() const {
  // Order matters for the reason string: a draining daemon with a wedged
  // journal should say "draining" — that is the operator-visible intent.
  if (queue_.closed()) return {false, "draining"};
  if (journal_ != nullptr && !journal_->healthy()) {
    return {false, "journal unhealthy"};
  }
  if (pool_.closed()) return {false, "device pool closed"};
  return {true, ""};
}

void Scheduler::drain() {
  queue_.close();
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return live_jobs_ == 0; });
}

void Scheduler::shutdown(bool drain_first) {
  if (shut_down_.exchange(true)) return;
  if (drain_first) {
    drain();
  } else {
    stop_all_.store(true, std::memory_order_relaxed);
    queue_.close_now();
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [&] { return live_jobs_ == 0; });
  }
  workers_.clear();  // jthread join
}

}  // namespace tspopt::serve
