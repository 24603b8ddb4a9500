// The solve-service job model and its versioned JSON wire schema.
//
// A JobSpec is everything a client says about one solve request: the
// instance (a catalog/TSPLIB reference or an inline EUC_2D coordinate
// payload), the engine to run it on, a time/iteration budget, a priority
// class and an optional wall-clock deadline. The wire form is one JSON
// object (schema "tspopt.job", version 1) built on obs/json, so the
// daemon, the client CLI and the tests all share one
// serializer/deserializer pair and malformed submissions fail with a
// line-numbered CheckError instead of undefined behaviour.
//
// A Job is the server-side record: the spec plus the full lifecycle state
// machine (queued -> running -> finished/cancelled/expired/failed), live
// progress the scheduler streams from the ILS hooks, and the terminal
// result including a per-job RunReport. Jobs are shared_ptr-held and
// internally synchronized: the submitter, the worker thread and any
// number of status readers touch one concurrently.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "tsp/point.hpp"

namespace tspopt::serve {

inline constexpr int kJobSchemaVersion = 1;

enum class JobState : int {
  kQueued = 0,
  kRunning = 1,
  kFinished = 2,   // ran to its budget (or stop) and produced a result
  kCancelled = 3,  // client cancel, while queued or mid-run
  kExpired = 4,    // deadline passed while queued or mid-run
  kFailed = 5,     // engine raised a fatal error after all retries
};

const char* to_string(JobState state);
bool is_terminal(JobState state);

// The pipeline phases a job passes through, in order: queue wait,
// device-lease acquisition, the run itself, and settle (journal append +
// accounting). Every phase-keyed output loops over kJobPhases and spells
// the phase with to_string(): the status verb's <phase>_seconds, /tracez's
// <phase>_ms, /statusz's phase table and serve.job_phase_us{phase}.
enum class JobPhase : std::size_t { kWait, kLease, kRun, kSettle };
inline constexpr std::array<JobPhase, 4> kJobPhases = {
    JobPhase::kWait, JobPhase::kLease, JobPhase::kRun, JobPhase::kSettle};
inline constexpr std::array<const char*, kJobPhases.size()> kJobPhaseNames = {
    "wait", "lease", "run", "settle"};
inline const char* to_string(JobPhase phase) {
  return kJobPhaseNames[static_cast<std::size_t>(phase)];
}

struct JobSpec {
  // Exactly one instance source: a catalog name ("kroA200", "berlin52",
  // any paper_catalog() entry) or an inline coordinate payload.
  std::string catalog;
  std::string instance_name;  // name for the inline payload
  std::vector<Point> points;  // inline EUC_2D coordinates

  std::string engine = "cpu-parallel";  // EngineFactory roster name
  std::int32_t priority = 1;            // 0 = most urgent; FIFO within
  double time_limit_seconds = 1.0;      // ILS budget
  std::int64_t max_iterations = -1;     // -1 = until the time budget
  double deadline_ms = -1.0;  // wall deadline from acceptance; <0 = none
  std::uint64_t seed = 1;
  std::int32_t devices = 1;  // device-lease size for the gpu-* engines

  // Neighbor-list size for the pruned engines (cpu-pruned,
  // cpu-simd-pruned, gpu-pruned). 0 = engine default. Rejected for
  // non-pruned engines and when k >= the instance's city count.
  std::int32_t k = 0;

  // Opt-in to the serve-side micro-batcher: the daemon may coalesce this
  // job with other queued batchable jobs sharing its (instance, engine
  // class, k) batch key into one batch engine pass. Each coalesced job is
  // still settled individually (own result, report, journal record);
  // results are bit-identical to a solo run of the same spec. Only the
  // batchable engine classes accept it (rejected otherwise with a typed
  // "batch shape" error).
  bool batchable = false;

  // Client-chosen dedup token: a resubmit carrying the same key (after an
  // ambiguous failure — timeout, dropped connection, daemon restart) is
  // answered with the already-accepted job's id instead of double-running
  // the work. Empty = no dedup. Keys live as long as the job is retained.
  std::string idempotency_key;

  // Distributed-trace context. The trace id is minted by the submitting
  // client (serve::Client fills it when empty; tspopt_client accepts
  // --trace-id for caller-supplied correlation) and rides the wire, the
  // journal and every span/log event either process emits for this job —
  // so the client's submit span and the daemon's queue/lease/run spans
  // share one id and their Chrome exports merge into one timeline.
  // parent_span is the client-side span id that issued the submit (a
  // process-local ordinal, carried for span-graph stitching only).
  std::string trace_id;
  std::uint64_t parent_span = 0;

  bool inline_payload() const { return catalog.empty(); }
};

// Checked JSON integers, for every integer a daemon reads off the wire or
// out of its journal. JSON numbers arrive as doubles, and casting one that
// is non-integral or out of range truncates it or is undefined, so each
// value is checked before the cast: anything that is not an integral
// number in [lo, hi] raises CheckError naming `key` and quoting the value
// as sent. Bounds stay within +-2^53, where doubles hold integers exactly.
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

std::int64_t json_integer(const obs::JsonValue& value, const char* key,
                          std::int64_t lo, std::int64_t hi);
// The optional integer field `key` of object `v`; `fallback` when absent.
std::int64_t integer_field(const obs::JsonValue& v, const char* key,
                           std::int64_t fallback,
                           std::int64_t lo = -kMaxExactInteger,
                           std::int64_t hi = kMaxExactInteger);
std::int32_t int32_field(const obs::JsonValue& v, const char* key,
                         std::int32_t fallback, std::int32_t lo,
                         std::int32_t hi);

// Wire schema v1:
//   { "schema": "tspopt.job", "schema_version": 1,
//     "catalog": "kroA200" | "name": "...", "points": [[x,y],...],
//     "engine": "...", "priority": 1, "time_limit_seconds": 1.0,
//     "max_iterations": -1, "deadline_ms": -1, "seed": 1, "devices": 1,
//     "k": 10, "batchable": true, "idempotency_key": "...",
//     "trace_id": "...", "parent_span": N }
// Optional fields take the JobSpec defaults; unknown fields are rejected
// so schema-version mistakes surface at the boundary.
// write_job_spec writes the object in value position of `w` (after a
// key, in an array, or as the document), so a request or a journal record
// carries the spec without a second copy of its text; job_spec_to_json is
// the same object as a document of its own.
void write_job_spec(obs::JsonWriter& w, const JobSpec& spec);
std::string job_spec_to_json(const JobSpec& spec);
JobSpec job_spec_from_json(const obs::JsonValue& value);  // throws CheckError

struct JobResult {
  std::int64_t constructive_length = 0;
  std::int64_t best_length = 0;
  std::int64_t iterations = 0;
  std::int64_t improvements = 0;
  std::uint64_t checks = 0;
  double wall_seconds = 0.0;
  bool stopped = false;               // cut short by cancel/deadline/drain
  std::vector<std::int32_t> order;    // best tour found
  std::string report_json;            // per-job obs::RunReport document
};

// JobResult <-> JSON: the daemon's "result" verb payload and the form the
// journal persists for settled jobs, so a restarted daemon serves the
// same result bytes the crashed one would have.
void write_job_result(obs::JsonWriter& w, const JobResult& result);
JobResult job_result_from_json(const obs::JsonValue& value);  // CheckError

class Job {
 public:
  Job(std::uint64_t id, JobSpec spec)
      : id_(id),
        spec_(std::move(spec)),
        accepted_at_(std::chrono::steady_clock::now()) {}

  std::uint64_t id() const { return id_; }
  const JobSpec& spec() const { return spec_; }

  JobState state() const {
    return static_cast<JobState>(state_.load(std::memory_order_acquire));
  }
  // Atomically move `from` -> `to`; false when another thread got there
  // first (e.g. cancel racing the worker's start).
  bool try_transition(JobState from, JobState to) {
    int expected = static_cast<int>(from);
    return state_.compare_exchange_strong(expected, static_cast<int>(to),
                                          std::memory_order_acq_rel);
  }

  // Cooperative cancellation: flips the flag the worker's should_stop hook
  // polls. The state transition happens at the next poll (running jobs) or
  // at dequeue (queued jobs are marked by cancel() in the scheduler).
  void request_cancel() {
    cancel_requested_.store(true, std::memory_order_release);
  }
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  // Journal-recovery support. mark_recovered() flags a job re-queued
  // after a daemon restart; `was_running` additionally asks the worker to
  // resume from the job's spool checkpoint instead of restarting the
  // search. restore_terminal() rebuilds a settled job (state + retained
  // result/error) from its journal record; recovery-time only, before the
  // job is shared.
  void mark_recovered(bool was_running, std::int32_t prior_attempts) {
    recovered_.store(true, std::memory_order_release);
    resume_.store(was_running, std::memory_order_release);
    attempts.store(prior_attempts, std::memory_order_relaxed);
  }
  bool recovered() const { return recovered_.load(std::memory_order_acquire); }
  bool resume_requested() const {
    return resume_.load(std::memory_order_acquire);
  }
  // Consume the resume request (one-shot: only the first attempt after a
  // restart resumes; a retry after an engine fault runs fresh).
  bool take_resume() {
    return resume_.exchange(false, std::memory_order_acq_rel);
  }
  void restore_terminal(JobState state, JobResult result, std::string error) {
    TSPOPT_CHECK_MSG(is_terminal(state),
                     "restore_terminal needs a terminal state");
    recovered_.store(true, std::memory_order_release);
    if (result.best_length > 0) {
      best_length.store(result.best_length, std::memory_order_relaxed);
      iteration.store(result.iterations, std::memory_order_relaxed);
    }
    set_result(std::move(result));
    if (!error.empty()) set_error(std::move(error));
    state_.store(static_cast<int>(state), std::memory_order_release);
  }

  std::chrono::steady_clock::time_point accepted_at() const {
    return accepted_at_;
  }
  bool has_deadline() const { return spec_.deadline_ms >= 0.0; }
  // Milliseconds until the deadline (negative = already past).
  double deadline_remaining_ms() const;
  bool deadline_passed() const {
    return has_deadline() && deadline_remaining_ms() <= 0.0;
  }

  // Live progress, streamed by the scheduler's ILS hooks.
  std::atomic<std::int64_t> best_length{-1};
  std::atomic<std::int64_t> iteration{0};
  std::atomic<std::int32_t> attempts{0};  // run attempts (retries = n-1)

  // Micro-batch membership, stamped by the scheduler when this job ran
  // inside a coalesced batch pass. 0 = ran solo. Occupancy is the member
  // count of the batch this job joined.
  std::atomic<std::uint64_t> batch_id{0};
  std::atomic<std::int32_t> batch_occupancy{0};

  // Per-phase durations in seconds, recorded by the scheduler as the job
  // moves through its pipeline. -1 = not reached.
  double phase_seconds(JobPhase phase) const {
    return phase_seconds_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  void set_phase_seconds(JobPhase phase, double seconds) {
    phase_seconds_[static_cast<std::size_t>(phase)].store(
        seconds, std::memory_order_relaxed);
  }

  void set_result(JobResult result) {
    std::lock_guard lock(mu_);
    result_ = std::move(result);
  }
  JobResult result() const {
    std::lock_guard lock(mu_);
    return result_;
  }
  void set_error(std::string error) {
    std::lock_guard lock(mu_);
    error_ = std::move(error);
  }
  std::string error() const {
    std::lock_guard lock(mu_);
    return error_;
  }

 private:
  const std::uint64_t id_;
  const JobSpec spec_;
  const std::chrono::steady_clock::time_point accepted_at_;
  std::atomic<int> state_{static_cast<int>(JobState::kQueued)};
  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> recovered_{false};
  std::atomic<bool> resume_{false};
  std::array<std::atomic<double>, kJobPhases.size()> phase_seconds_{
      -1.0, -1.0, -1.0, -1.0};
  mutable std::mutex mu_;
  JobResult result_;
  std::string error_;
};

// Append the job's status object (id, state, instance, engine, priority,
// live progress, each reached phase's <phase>_seconds, error when failed)
// to `w` — the payload of the daemon's "status" verb and of test
// assertions.
void write_job_status(obs::JsonWriter& w, const Job& job);

}  // namespace tspopt::serve
