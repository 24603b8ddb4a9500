// Crash-safe write-ahead job journal for the solve service.
//
// tspoptd (PR 5) kept every job in memory: a daemon crash threw away the
// whole backlog plus hours of GPU work on running jobs. The Journal makes
// the serve plane durable: every accepted job's wire-schema JSON and
// every lifecycle transition (accepted / started / settled / rejected /
// forgotten) is appended to a length-prefixed, checksummed, fsync-batched
// log under one directory. On startup the scheduler replays the journal
// and gets back the exact pre-crash job table: settled jobs with their
// retained results, queued and running jobs ready to re-queue (running
// ILS jobs then resume from their latest per-job checkpoint in the
// spool/ subdirectory — see Scheduler).
//
// On-disk layout (`dir/`):
//
//   segment-000001.wal, segment-000002.wal, ...   (replayed in order)
//   spool/job-<id>.ckpt                           (per-job ILS checkpoints)
//
// Each record is `u32 payload_len | u64 fnv1a(payload) | payload`, where
// the payload is one JSON object: {"type":"accepted","id":N,"job":{...}},
// {"type":"started","id":N,"attempts":K}, {"type":"settled","id":N,
// "state":"finished","result":{...}} (or "error":"..."), {"type":
// "rejected","id":N}, {"type":"forgotten","id":N}, and the compaction
// snapshot form {"type":"job",...} that folds a job's whole history into
// one record.
//
// Torn-tail tolerance: a record truncated by a crash mid-write fails its
// length or checksum check; when it is the *final* record of the final
// segment it is dropped with a logged `journal.torn_tail` event — the
// expected power-loss artifact, never an error. A bad checksum anywhere
// else is corruption: the rest of that segment is skipped with a
// `journal.corrupt` warning, and everything already replayed survives. A
// record whose frame holds but whose fields do not (a non-integral id, an
// unknown state, a malformed result) is corrupt too; it is skipped alone,
// before it changes anything, and the records after it still replay.
//
// Rotation & compaction: when the active segment exceeds
// max_segment_bytes (or enough settled records pile up) the journal
// writes a *snapshot* of its live digest to the next segment atomically
// (tmp + fsync + rename) and deletes the older segments — settled jobs
// compact to one record each and forgotten jobs vanish. open_and_replay()
// performs the same snapshot, so every restart is also a compaction.
//
// Durability policy: appends go to the fd immediately (a SIGKILLed
// process loses nothing that was written); fsync is batched on a wall
// clock interval (fsync_interval_ms) to bound what a *machine* crash can
// lose without paying an fsync per request.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fault.hpp"
#include "serve/job.hpp"

namespace tspopt::serve {

struct JournalOptions {
  // Rotate + compact when the active segment grows past this.
  std::size_t max_segment_bytes = 8u << 20;
  // ... or when this many settle/forget records accumulated since the
  // last compaction (keeps long-lived daemons with tiny jobs compact).
  std::size_t compact_min_settled = 512;
  // fsync the active segment at most this often (0 = every append,
  // < 0 = never). Batched by default: write() always happens per append.
  double fsync_interval_ms = 25.0;
  // Serve-layer fault injection (tests); nullptr = none. Not owned.
  FaultPlan* faults = nullptr;
};

class Journal {
 public:
  // Everything the replay learned about one job, folded over its records.
  struct RecoveredJob {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;  // last journaled state
    std::int32_t attempts = 0;           // > 0 when it had started
    JobResult result;                    // restored for finished jobs
    std::string error;                   // restored for failed jobs
  };

  struct ReplayResult {
    std::vector<RecoveredJob> jobs;  // ascending id
    std::uint64_t next_id = 1;       // max journaled id + 1
    std::size_t segments_read = 0;
    std::size_t records_read = 0;
    bool torn_tail = false;  // final record dropped (checksum/length)
    bool corrupt = false;    // bad frame mid-file, or a malformed record
  };

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t append_errors = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t fsync_errors = 0;
    std::uint64_t rotations = 0;
    std::uint64_t torn_tails = 0;
    std::uint64_t live_jobs = 0;     // digest entries not yet settled
    std::uint64_t settled_jobs = 0;  // digest entries retained settled
    bool last_append_ok = true;      // most recent append landed
    bool last_fsync_ok = true;       // most recent fsync attempt succeeded
    std::uint64_t active_segment = 0;
    std::uint64_t active_bytes = 0;
  };

  // Creates `dir` (and `dir/spool/`) if needed. Does NOT touch existing
  // segments until open_and_replay().
  explicit Journal(std::string dir, JournalOptions options = {});
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Replay every segment in order, build the digest, then write a
  // compacted snapshot as the new active segment and delete the old
  // ones. Must be called exactly once, before any append.
  ReplayResult open_and_replay();

  // Lifecycle appends. Return false when the record could not be made
  // durable (I/O failure, injected fault, wedged journal) — the caller
  // decides whether that is fatal (admission) or best-effort (settle).
  bool append_accepted(const Job& job);
  bool append_started(std::uint64_t id, std::int32_t attempt);
  bool append_settled(const Job& job, JobState state);
  bool append_rejected(std::uint64_t id);   // admission rollback
  bool append_forgotten(std::uint64_t id);  // result dropped/evicted

  // Force write + fsync of everything appended so far.
  void flush();

  const std::string& dir() const { return dir_; }
  // Per-job ILS checkpoint spool path: dir()/spool/job-<id>.ckpt.
  std::string spool_dir() const;
  std::string checkpoint_path(std::uint64_t id) const;

  Stats stats() const;

  // Readiness signal for /readyz: the journal is healthy when it is not
  // wedged and the most recent append and fsync both succeeded. A single
  // failed fsync flips this false until a later fsync lands — durability
  // is degraded, so the daemon should stop admitting work it may lose.
  bool healthy() const;

 private:
  // The journal's own fold of the record stream — what a snapshot writes
  // and what replay returns. Raw JSON fragments are kept verbatim so
  // snapshotting never re-serializes through the wire schema.
  struct DigestEntry {
    std::string job_json;  // tspopt.job wire object
    std::string state = "queued";
    std::int32_t attempts = 0;
    std::string result_json;  // non-empty for finished
    std::string error;        // non-empty for failed
  };

  // Appends one record whose payload is the concatenation of `payload`.
  bool append_record(const char* phase,
                     std::initializer_list<std::string_view> payload);
  void apply_to_digest(const obs::JsonValue& record);
  bool maybe_rotate_locked();
  bool write_snapshot_segment(std::uint64_t seq);  // tmp + fsync + rename
  std::string segment_path(std::uint64_t seq) const;
  std::string snapshot_payload(std::uint64_t id, const DigestEntry& e) const;
  bool fsync_active_locked(bool force);

  const std::string dir_;
  JournalOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;                  // active segment
  std::uint64_t active_seq_ = 0; // 0 = not opened yet
  std::size_t active_bytes_ = 0;
  std::size_t settled_since_rotate_ = 0;
  bool opened_ = false;
  bool wedged_ = false;  // torn append injected: drop everything after
  bool last_append_ok_ = true;
  bool last_fsync_ok_ = true;
  std::chrono::steady_clock::time_point last_fsync_{};
  std::map<std::uint64_t, DigestEntry> digest_;
  std::uint64_t max_id_ = 0;

  std::uint64_t n_appends_ = 0, n_append_errors_ = 0, n_bytes_ = 0,
                n_fsyncs_ = 0, n_fsync_errors_ = 0, n_rotations_ = 0,
                n_torn_tails_ = 0;

  // Registry mirrors of the counters above (tspopt_serve_journal_* in
  // the Prometheus exposition). Process-global, so multiple Journal
  // instances accumulate into the same series.
  struct Metrics;
  std::unique_ptr<Metrics> m_;
};

// Append the journal's directory, Stats counters and health as one JSON
// object: the "journal" member of both the stats verb and /statusz.
void write_journal_stats(obs::JsonWriter& w, const Journal& journal);

}  // namespace tspopt::serve
