// The multi-tenant solve scheduler — the embeddable solve service.
//
// A Scheduler multiplexes concurrent solve jobs over a shared
// simt::DevicePool: admission control and priority ordering come from the
// bounded JobQueue, execution from a fixed pool of worker jthreads. Every
// run goes through one path: a worker pops a job (plus, for batchable
// jobs, whatever the micro-batcher coalesces with it), leases devices,
// asks EngineFactory for the engine on that lease, and runs one
// PopulationIls with a member per job — a solo job is a batch of one. A
// solo job gets exactly the engine class the client requested, on the
// lease its roster row names: gpu-multi runs behind TwoOptMultiDevice
// (fault quarantine/retry state scoped to the job, never the process), the
// single-device gpu classes run as-is on a one-device lease. A coalesced
// batch runs its row's batch engine class on one lease. A fatal engine error re-runs each unsettled member alone, on a
// fresh lease, up to max_attempts. Members carry cooperative stop hooks
// (cancellation, deadline, drain) and stream per-round progress into
// their Job record plus a per-job RunReport.
//
// Observability: the scheduler publishes serve.queue_depth /
// serve.active_jobs / serve.queue_oldest_age_ms gauges, one latency
// histogram family serve.job_phase_us{phase} (one series per JobPhase),
// the serve.batch_occupancy histogram, and per-outcome counters to the
// global registry (visible via the /metrics admin endpoint and any
// Prometheus exposition of the registry). It emits job.accepted /
// job.started / job.finished / job.rejected / job.cancelled / job.expired
// JSONL lifecycle events — each stamped with the job's distributed trace
// id when the client supplied one — and, when tracing is on, per-phase
// spans (serve.job.wait / serve.job.lease / serve.job) that share the
// client's trace id so both processes' exports merge into one timeline.
// The /tracez ring (slowest_settled()) retains the slowest settled jobs
// with their per-phase breakdown; readiness() is the /readyz signal.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/queue.hpp"
#include "simt/device_pool.hpp"
#include "solver/twoopt_multi.hpp"

namespace tspopt::serve {

struct SchedulerOptions {
  std::size_t workers = 2;          // worker jthreads (>= 1)
  std::size_t queue_capacity = 16;  // queued (not yet running) jobs
  // Floor for the retry-after hint on rejection; the estimate scales with
  // the observed job runtime and the backlog.
  double min_retry_after_ms = 100.0;
  // Fault policy for the per-job multi-device engines.
  MultiDeviceOptions multi;
  // A job whose engine raises a fatal error is re-run (alone, with a
  // fresh device lease) up to this many attempts before it is marked
  // failed — batched jobs included.
  std::int32_t max_attempts = 2;
  // Terminal jobs (holding the full tour + report) are retained for
  // result retrieval until forget(), but at most this many: beyond the
  // cap the oldest-settled jobs are evicted, so daemon memory does not
  // grow with every job ever submitted. Minimum 1.
  std::size_t max_retained_jobs = 1024;

  // Durability: non-empty enables the write-ahead job journal in this
  // directory. On construction the scheduler replays it — settled jobs
  // come back with their retained results, queued/running jobs are
  // re-queued (running ones resume from their spool checkpoint) — before
  // any worker starts. Empty = in-memory only (PR 5 behaviour).
  std::string journal_dir;
  JournalOptions journal;
  // How often running solo jobs checkpoint their ILS loop state into the
  // journal's spool (iterations between checkpoint writes). Only
  // meaningful with a journal; <= 0 disables per-job checkpointing.
  // Coalesced batches spool no checkpoints.
  std::int64_t checkpoint_every_iterations = 64;

  // Micro-batcher policy: batchable jobs sharing a batch key coalesce
  // into one batch engine pass, up to batcher.max_batch members, after a
  // linger of at most batcher.max_wait_ms. max_batch = 1 disables
  // coalescing entirely (every job runs as a batch of one).
  BatcherOptions batcher;
};

class Scheduler {
 public:
  // `pool` must outlive the scheduler. The destructor performs
  // shutdown(/*drain=*/false): running jobs are stopped cooperatively and
  // the backlog is cancelled.
  Scheduler(simt::DevicePool& pool, SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  struct Admission {
    bool accepted = false;
    std::uint64_t id = 0;          // valid when accepted
    double retry_after_ms = 0.0;   // > 0 when rejected for capacity
    std::string error;             // non-empty when rejected as invalid
    // True when the spec's idempotency_key matched an already-accepted
    // job: `id` is that job's id and nothing new was enqueued.
    bool deduped = false;
  };

  // Validate and enqueue. Rejections are immediate: invalid specs (unknown
  // engine, unknown catalog name, bad payload, n over the engine's city
  // cap — checked from its EngineFactory::roster() row) carry `error`; a
  // full queue carries `retry_after_ms` backpressure.
  Admission submit(JobSpec spec);

  // nullptr for unknown ids. Terminal jobs are retained until forget()
  // or eviction under options().max_retained_jobs, oldest-settled first.
  std::shared_ptr<const Job> find(std::uint64_t id) const;
  // Drop a terminal job from the table; false if unknown or still live.
  bool forget(std::uint64_t id);

  // Cooperative cancel. True if the job was queued or running (the
  // transition to kCancelled may land asynchronously for running jobs).
  bool cancel(std::uint64_t id);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_invalid = 0;
    std::uint64_t finished = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;
    std::uint64_t retries = 0;
    std::uint64_t recovered = 0;  // jobs re-queued by journal replay
    // Coalesced (>= 2 member) batch passes that ran, and the jobs that ran
    // inside them; members that settled before starting do not count.
    std::uint64_t batches = 0;
    std::uint64_t batched_jobs = 0;
    std::size_t queue_depth = 0;
    std::size_t active_jobs = 0;
    std::size_t workers = 0;
    std::size_t devices = 0;
    std::size_t devices_available = 0;
  };
  Stats stats() const;

  // One settled job's per-phase pipeline timing, retained for /tracez.
  // Phases a job never reached (e.g. lease for a CPU engine, or run for a
  // job cancelled while queued) read 0.
  struct JobTraceSummary {
    std::uint64_t id = 0;
    std::string trace_id;  // empty when the client sent none
    std::string engine;
    JobState state = JobState::kFinished;
    std::array<double, kJobPhases.size()> phase_ms{};  // by JobPhase
    std::int64_t best_length = -1;
    // Micro-batch membership: 0 = ran solo, otherwise the coalesced batch
    // this job was a member of and how many members it carried.
    std::uint64_t batch_id = 0;
    std::int32_t batch_occupancy = 0;
    double total_ms() const {
      return std::accumulate(phase_ms.begin(), phase_ms.end(), 0.0);
    }
  };
  // The slowest settled jobs by total pipeline time, slowest first (ring
  // of at most kTracezCapacity entries — slow outliers stay visible even
  // after thousands of fast jobs settle behind them).
  static constexpr std::size_t kTracezCapacity = 32;
  std::vector<JobTraceSummary> slowest_settled() const;

  // The bucket layout of the serve.job_phase_us histograms, for callers
  // (the /statusz phase table) that need to look the instruments up in the
  // global registry.
  static const std::vector<double>& latency_buckets_us();

  // Every retained non-terminal job (queued + running), ascending id —
  // the /statusz "active jobs" table.
  std::vector<std::shared_ptr<const Job>> active_snapshot() const;

  // Readiness for /readyz: ready means the service can accept AND durably
  // record AND eventually run a job. `reason` names the failing leg.
  struct Readiness {
    bool ready = true;
    std::string reason;  // "draining" | "journal unhealthy" | ...
  };
  Readiness readiness() const;

  double queue_oldest_age_ms() const { return queue_.oldest_age_ms(); }

  // Stop admission and block until every queued and running job reached a
  // terminal state — the SIGTERM path. Idempotent.
  void drain();

  // drain=true: as drain(), then stop workers. drain=false: cancel the
  // backlog, stop running jobs at their next hook poll, stop workers.
  void shutdown(bool drain_first);

  const SchedulerOptions& options() const { return options_; }
  // The journal, when durability is enabled; nullptr otherwise.
  const Journal* journal() const { return journal_.get(); }

 private:
  void worker_loop(std::size_t worker_index);
  // Run popped jobs as one population: a solo job is a batch of one, a
  // coalesced batch has one member per job. Claims every job, runs the
  // attempts and settles every member individually.
  void run(std::vector<std::shared_ptr<Job>> jobs);
  // Claim the start of a popped job (wait accounting + the queued ->
  // running transition, resolving cancel/deadline races). False when the
  // job settled here instead of starting.
  bool begin_running(const std::shared_ptr<Job>& job);
  // Attempt `members` as one population and return each member's terminal
  // state (aligned with `members`). When an attempt throws, every member
  // with attempts left under max_attempts re-runs alone, as a batch of
  // one; the rest fail with the error.
  std::vector<JobState> run_attempts(
      const std::vector<std::shared_ptr<Job>>& members,
      std::uint64_t batch_id);
  // One solve attempt over `members` (batch_id 0 = a solo job): lease the
  // devices, build the engine, run one PopulationIls with a member per
  // job, and attach each member's result and report. A solo job runs the
  // engine it requested and spools checkpoints into the journal (resuming
  // from one when `resume`); a coalesced batch runs its batch engine
  // class. Throws on fatal engine errors.
  std::vector<JobState> execute(
      const std::vector<std::shared_ptr<Job>>& members,
      std::uint64_t batch_id, bool resume);
  // Account a job that reached `terminal` (log event, counters, drain cv).
  void settle(const std::shared_ptr<Job>& job, JobState terminal);
  // Store one phase's duration on the job and observe it in
  // serve.job_phase_us{phase}.
  void record_phase(Job& job, JobPhase phase, double seconds);
  double estimate_retry_after_ms() const;
  void note_run_seconds(double seconds);
  // Replay the journal into jobs_/queue_ (ctor only, before workers).
  void recover_from_journal();
  // Drop `job`'s idempotency key if it still maps to `job` (a later
  // same-key submit may have reclaimed it). Caller holds jobs_mu_.
  void release_key(const Job& job);

  simt::DevicePool& pool_;
  SchedulerOptions options_;
  JobQueue queue_;
  std::unique_ptr<Journal> journal_;  // nullptr = durability off
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_batch_id_{1};
  std::atomic<bool> stop_all_{false};
  std::atomic<bool> shut_down_{false};

  mutable std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  // idempotency_key -> job id, for submit() dedup. Entries live exactly
  // as long as the job is retained (erased on forget/evict) and are
  // rebuilt from the journal on recovery.
  std::unordered_map<std::string, std::uint64_t> idempotency_;
  // Settle order of terminal jobs, oldest first — the eviction queue that
  // enforces options_.max_retained_jobs. May hold ids already removed by
  // forget(); eviction skips those.
  std::deque<std::uint64_t> terminal_order_;

  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t live_jobs_ = 0;  // queued + running (accepted, not terminal)

  // /tracez ring: the kTracezCapacity slowest settled jobs. Unordered in
  // storage; slowest_settled() sorts on read (reads are rare scrapes).
  mutable std::mutex tracez_mu_;
  std::vector<JobTraceSummary> tracez_;

  // EMA of completed-job run time, feeding the retry-after estimate.
  std::atomic<double> ema_run_ms_{0.0};

  // Counters/gauges/histograms resolved once; hot paths touch atomics.
  struct Instruments;
  std::unique_ptr<Instruments> m_;

  std::atomic<std::uint64_t> n_accepted_{0}, n_rejected_full_{0},
      n_rejected_invalid_{0}, n_finished_{0}, n_failed_{0}, n_cancelled_{0},
      n_expired_{0}, n_retries_{0}, n_recovered_{0}, n_batches_{0},
      n_batched_jobs_{0};
  std::atomic<std::size_t> active_{0};

  std::vector<std::jthread> workers_;  // last member: joins before teardown
};

// Append the scheduler counters as one JSON object: the "stats" member of
// both the stats verb and /statusz.
void write_stats(obs::JsonWriter& w, const Scheduler::Stats& stats);

}  // namespace tspopt::serve
