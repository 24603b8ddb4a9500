#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"

namespace tspopt::serve {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kRecordHeaderBytes = 12;  // u32 len + u64 fnv1a
// A single record larger than this is a corrupt length field, not a big
// job: the largest legitimate payload (an inline 100k-point spec or a
// 744k-city result order) stays well under it.
constexpr std::uint32_t kMaxRecordBytes = 256u << 20;

// Writes one record — the 12-byte header (payload length, FNV-1a of the
// payload), then the payload, given as up to three consecutive parts —
// with writev, so the payload is framed without being copied. At most
// `limit` bytes of the record are written (the torn-tail fault). Returns
// the bytes written, or -1 with errno set.
std::int64_t write_record(int fd,
                          std::initializer_list<std::string_view> payload,
                          std::size_t limit) {
  std::size_t payload_bytes = 0;
  std::uint64_t sum = kFnv1aOffset;
  for (std::string_view part : payload) {
    payload_bytes += part.size();
    sum = fnv1a(part, sum);
  }
  const auto len = static_cast<std::uint32_t>(payload_bytes);
  char header[kRecordHeaderBytes];
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &sum, sizeof(sum));

  // The record's pieces, clipped to `limit` bytes in total.
  iovec iov[4];
  TSPOPT_CHECK(payload.size() < std::size(iov));
  std::size_t total = 0;
  int count = 0;
  auto add = [&](const char* data, std::size_t size) {
    size = std::min(size, limit - total);
    if (size == 0) return;
    iov[count++] = {const_cast<char*>(data), size};
    total += size;
  };
  add(header, sizeof(header));
  for (std::string_view part : payload) add(part.data(), part.size());

  // writev until every piece is out, resuming after partial writes.
  iovec* next = iov;
  std::size_t left = total;
  while (left > 0) {
    const ssize_t n = ::writev(fd, next, static_cast<int>(iov + count - next));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    auto done = static_cast<std::size_t>(n);
    left -= done;
    for (; done > 0 && done >= next->iov_len; ++next) done -= next->iov_len;
    if (done > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  return static_cast<std::int64_t>(total);
}

bool parse_job_state(const std::string& name, JobState* out) {
  for (JobState s : {JobState::kQueued, JobState::kRunning,
                     JobState::kFinished, JobState::kCancelled,
                     JobState::kExpired, JobState::kFailed}) {
    if (name == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

// Re-render a parsed member verbatim (the journal keeps raw fragments so
// snapshots never pass through the wire schema again).
std::string raw_fragment(const obs::JsonValue& value) {
  obs::JsonWriter w;
  obs::write_json_value(w, value);
  return w.str();
}

void fsync_directory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

struct Journal::Metrics {
  obs::Counter& appends;
  obs::Counter& append_errors;
  obs::Counter& fsyncs;
  obs::Counter& fsync_errors;
  obs::Counter& rotations;
  obs::Counter& torn_tails;

  explicit Metrics(obs::Registry& r)
      : appends(r.counter("serve.journal_appends")),
        append_errors(r.counter("serve.journal_append_errors")),
        fsyncs(r.counter("serve.journal_fsyncs")),
        fsync_errors(r.counter("serve.journal_fsync_errors")),
        rotations(r.counter("serve.journal_rotations")),
        torn_tails(r.counter("serve.journal_torn_tails")) {}
};

Journal::Journal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)),
      options_(options),
      m_(std::make_unique<Metrics>(obs::Registry::global())) {
  TSPOPT_CHECK_MSG(!dir_.empty(), "journal directory must be non-empty");
  std::error_code ec;
  fs::create_directories(spool_dir(), ec);
  TSPOPT_CHECK_MSG(!ec, "cannot create journal directory " << dir_ << ": "
                                                           << ec.message());
}

Journal::~Journal() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) {
    fsync_active_locked(/*force=*/true);
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Journal::spool_dir() const { return dir_ + "/spool"; }

std::string Journal::checkpoint_path(std::uint64_t id) const {
  return spool_dir() + "/job-" + std::to_string(id) + ".ckpt";
}

std::string Journal::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%06llu.wal",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Journal::ReplayResult Journal::open_and_replay() {
  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(!opened_, "journal already opened");
  if (options_.faults) options_.faults->reach_phase("open");

  // Discover segments, ascending sequence order.
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "segment-%6llu.wal", &seq) == 1 &&
        name.size() == std::strlen("segment-000000.wal")) {
      segments.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());

  ReplayResult rep;
  std::uint64_t max_seq = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const bool last_segment = s + 1 == segments.size();
    max_seq = std::max(max_seq, segments[s].first);
    std::string bytes;
    {
      std::FILE* f = std::fopen(segments[s].second.c_str(), "rb");
      if (f == nullptr) continue;
      char buf[1u << 16];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
      std::fclose(f);
    }

    std::size_t pos = 0;
    while (pos < bytes.size()) {
      auto fail = [&](bool truncated) {
        // A bad record that runs to end-of-file in the final segment is
        // the expected crash artifact (torn tail): drop it quietly-but-
        // loudly. A broken frame elsewhere is corruption: skip the
        // segment's rest.
        bool reaches_eof = truncated;
        if (last_segment && reaches_eof) {
          ++n_torn_tails_;
          m_->torn_tails.add();
          rep.torn_tail = true;
          obs::Log::global()
              .event(obs::LogLevel::kWarn, "journal.torn_tail")
              .arg("segment", segments[s].second)
              .arg("offset", static_cast<std::uint64_t>(pos))
              .arg("trailing_bytes",
                   static_cast<std::uint64_t>(bytes.size() - pos));
        } else {
          rep.corrupt = true;
          obs::Log::global()
              .event(obs::LogLevel::kWarn, "journal.corrupt")
              .arg("segment", segments[s].second)
              .arg("offset", static_cast<std::uint64_t>(pos));
        }
      };

      if (bytes.size() - pos < kRecordHeaderBytes) {
        fail(/*truncated=*/true);
        break;
      }
      std::uint32_t len = 0;
      std::uint64_t sum = 0;
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      std::memcpy(&sum, bytes.data() + pos + sizeof(len), sizeof(sum));
      if (len > kMaxRecordBytes) {
        fail(/*truncated=*/false);
        break;
      }
      if (bytes.size() - pos - kRecordHeaderBytes < len) {
        fail(/*truncated=*/true);
        break;
      }
      std::string_view payload(bytes.data() + pos + kRecordHeaderBytes, len);
      bool final_record = pos + kRecordHeaderBytes + len == bytes.size();
      if (fnv1a(payload) != sum) {
        // A checksum mismatch on the very last record is a torn write
        // (the length landed, the tail did not); earlier it is rot.
        fail(/*truncated=*/final_record);
        break;
      }
      try {
        apply_to_digest(obs::json_parse(payload));
        ++rep.records_read;
      } catch (const CheckError&) {
        // The frame holds (length and checksum), so the next record starts
        // where it says: this one is corrupt, the rest still replays.
        fail(/*truncated=*/false);
      }
      pos += kRecordHeaderBytes + len;
    }
    ++rep.segments_read;
  }

  // Fold the digest into the caller's recovery view.
  for (const auto& [id, entry] : digest_) {
    RecoveredJob job;
    job.id = id;
    try {
      job.spec = job_spec_from_json(obs::json_parse(entry.job_json));
    } catch (const CheckError& e) {
      obs::Log::global()
          .event(obs::LogLevel::kWarn, "journal.bad_spec")
          .arg("id", id)
          .arg("error", e.what());
      continue;
    }
    JobState state = JobState::kQueued;
    if (!parse_job_state(entry.state, &state)) continue;
    job.state = state;
    job.attempts = entry.attempts;
    job.error = entry.error;
    if (!entry.result_json.empty()) {
      try {
        job.result = job_result_from_json(obs::json_parse(entry.result_json));
      } catch (const CheckError& e) {
        obs::Log::global()
            .event(obs::LogLevel::kWarn, "journal.bad_result")
            .arg("id", id)
            .arg("error", e.what());
      }
    }
    rep.jobs.push_back(std::move(job));
  }
  rep.next_id = max_id_ + 1;

  // Every restart is a compaction: snapshot the digest into a fresh
  // segment, make it the active one, drop the history.
  std::uint64_t next_seq = max_seq + 1;
  TSPOPT_CHECK_MSG(write_snapshot_segment(next_seq),
                   "cannot write journal snapshot segment in " << dir_);
  fd_ = ::open(segment_path(next_seq).c_str(), O_WRONLY | O_APPEND);
  TSPOPT_CHECK_MSG(fd_ >= 0, "cannot open journal segment "
                                 << segment_path(next_seq) << ": "
                                 << std::strerror(errno));
  active_seq_ = next_seq;
  std::error_code size_ec;
  active_bytes_ = static_cast<std::size_t>(
      fs::file_size(segment_path(next_seq), size_ec));
  for (const auto& [seq, path] : segments) {
    std::error_code rm;
    fs::remove(path, rm);
  }
  last_fsync_ = std::chrono::steady_clock::now();
  opened_ = true;

  obs::Log::global()
      .event(obs::LogLevel::kInfo, "journal.open")
      .arg("dir", dir_)
      .arg("segments", static_cast<std::uint64_t>(rep.segments_read))
      .arg("records", static_cast<std::uint64_t>(rep.records_read))
      .arg("jobs", static_cast<std::uint64_t>(rep.jobs.size()))
      .arg("torn_tail", rep.torn_tail)
      .arg("corrupt", rep.corrupt);
  return rep;
}

void Journal::apply_to_digest(const obs::JsonValue& record) {
  // Every field is checked before the digest changes: a malformed record
  // raises CheckError and leaves no trace in the replay.
  const obs::JsonValue& type_value = record.at("type");
  TSPOPT_CHECK_MSG(type_value.kind == obs::JsonValue::Kind::kString,
                   "journal record \"type\" must be a string");
  const std::string& type = type_value.string;
  const auto id = static_cast<std::uint64_t>(
      json_integer(record.at("id"), "id", 1, kMaxExactInteger));
  const bool whole = type == "accepted" || type == "job";
  std::string job_json = whole ? raw_fragment(record.at("job")) : "";
  const obs::JsonValue* state =
      type == "settled" ? &record.at("state") : record.find("state");
  if (state != nullptr) {
    JobState parsed = JobState::kQueued;
    TSPOPT_CHECK_MSG(state->kind == obs::JsonValue::Kind::kString &&
                         parse_job_state(state->string, &parsed),
                     "journal record \"state\" must name a job state");
  }
  const obs::JsonValue* attempts = record.find("attempts");
  const auto attempt_count = static_cast<std::int32_t>(
      attempts == nullptr
          ? 0
          : json_integer(*attempts, "attempts", 0,
                         std::numeric_limits<std::int32_t>::max()));
  const obs::JsonValue* result = record.find("result");
  if (result != nullptr) job_result_from_json(*result);  // checks only
  const obs::JsonValue* error = record.find("error");
  TSPOPT_CHECK_MSG(
      error == nullptr || error->kind == obs::JsonValue::Kind::kString,
      "journal record \"error\" must be a string");

  max_id_ = std::max(max_id_, id);
  if (whole) {
    DigestEntry entry;
    entry.job_json = std::move(job_json);
    if (state != nullptr) entry.state = state->string;
    entry.attempts = attempt_count;
    if (result != nullptr) entry.result_json = raw_fragment(*result);
    if (error != nullptr) entry.error = error->string;
    digest_[id] = std::move(entry);
    return;
  }

  auto it = digest_.find(id);
  if (it == digest_.end()) return;  // transition for a compacted-away job
  if (type == "started") {
    it->second.state = "running";
    if (attempts != nullptr) it->second.attempts = attempt_count;
  } else if (type == "settled") {
    it->second.state = state->string;
    if (result != nullptr) it->second.result_json = raw_fragment(*result);
    if (error != nullptr) it->second.error = error->string;
  } else if (type == "rejected" || type == "forgotten") {
    digest_.erase(it);
  }
  // Unknown types are skipped: a newer daemon's records must not brick an
  // older one replaying the same directory.
}

bool Journal::append_record(const char* phase,
                            std::initializer_list<std::string_view> payload) {
  // mu_ held by caller (append()).
  if (options_.faults) options_.faults->reach_phase(phase);
  if (wedged_) {
    ++n_append_errors_;
    m_->append_errors.add();
    last_append_ok_ = false;
    return false;
  }
  FaultPlan::AppendFate fate;
  if (options_.faults) fate = options_.faults->next_append();

  if (fate.fail_write) {
    ++n_append_errors_;
    m_->append_errors.add();
    last_append_ok_ = false;
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.append_error")
        .arg("phase", phase)
        .arg("error", "injected write failure");
    return false;
  }
  if (fate.tear) {
    write_record(fd_, payload, options_.faults->tear_keep_bytes);
    ::fsync(fd_);
    wedged_ = true;
    ++n_append_errors_;
    ++n_torn_tails_;
    last_append_ok_ = false;
    m_->append_errors.add();
    m_->torn_tails.add();
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.append_error")
        .arg("phase", phase)
        .arg("error", "injected torn write; journal wedged");
    return false;
  }
  const std::int64_t written =
      write_record(fd_, payload, std::numeric_limits<std::size_t>::max());
  if (written < 0) {
    ++n_append_errors_;
    m_->append_errors.add();
    last_append_ok_ = false;
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.append_error")
        .arg("phase", phase)
        .arg("error", std::strerror(errno));
    return false;
  }
  last_append_ok_ = true;
  ++n_appends_;
  m_->appends.add();
  n_bytes_ += static_cast<std::size_t>(written);
  active_bytes_ += static_cast<std::size_t>(written);
  return true;
}

bool Journal::fsync_active_locked(bool force) {
  if (fd_ < 0) return true;
  if (!force) {
    if (options_.fsync_interval_ms < 0.0) return true;
    auto now = std::chrono::steady_clock::now();
    if (options_.fsync_interval_ms > 0.0 &&
        std::chrono::duration<double, std::milli>(now - last_fsync_).count() <
            options_.fsync_interval_ms) {
      return true;
    }
  }
  last_fsync_ = std::chrono::steady_clock::now();
  if (options_.faults && options_.faults->next_fsync_fails()) {
    ++n_fsync_errors_;
    m_->fsync_errors.add();
    last_fsync_ok_ = false;
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.fsync_error")
        .arg("error", "injected fsync failure");
    return false;
  }
  if (::fsync(fd_) != 0) {
    ++n_fsync_errors_;
    m_->fsync_errors.add();
    last_fsync_ok_ = false;
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.fsync_error")
        .arg("error", std::strerror(errno));
    return false;
  }
  last_fsync_ok_ = true;
  ++n_fsyncs_;
  m_->fsyncs.add();
  return true;
}

std::string Journal::snapshot_payload(std::uint64_t id,
                                      const DigestEntry& e) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("job");
  w.key("id").value(id);
  w.key("state").value(e.state);
  if (e.attempts > 0) w.key("attempts").value(e.attempts);
  w.key("job").raw_value(e.job_json);
  if (!e.result_json.empty()) w.key("result").raw_value(e.result_json);
  if (!e.error.empty()) w.key("error").value(e.error);
  w.end_object();
  return w.str();
}

bool Journal::write_snapshot_segment(std::uint64_t seq) {
  std::string path = segment_path(seq);
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  bool ok = true;
  for (const auto& [id, entry] : digest_) {
    if (write_record(fd, {snapshot_payload(id, entry)},
                     std::numeric_limits<std::size_t>::max()) < 0) {
      ok = false;
      break;
    }
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_directory(dir_);
  return true;
}

bool Journal::maybe_rotate_locked() {
  if (active_bytes_ <= options_.max_segment_bytes &&
      settled_since_rotate_ < std::max<std::size_t>(1,
                                                    options_.compact_min_settled)) {
    return true;
  }
  if (options_.faults) options_.faults->reach_phase("rotate");
  std::uint64_t next_seq = active_seq_ + 1;
  if (!write_snapshot_segment(next_seq)) {
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "journal.rotate_error")
        .arg("segment", segment_path(next_seq));
    return false;
  }
  int fd = ::open(segment_path(next_seq).c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    std::error_code rm;
    fs::remove(segment_path(next_seq), rm);
    return false;
  }
  ::close(fd_);
  fd_ = fd;
  std::error_code rm;
  fs::remove(segment_path(active_seq_), rm);
  std::error_code size_ec;
  active_bytes_ = static_cast<std::size_t>(
      fs::file_size(segment_path(next_seq), size_ec));
  active_seq_ = next_seq;
  settled_since_rotate_ = 0;
  ++n_rotations_;
  m_->rotations.add();
  obs::Log::global()
      .event(obs::LogLevel::kInfo, "journal.rotate")
      .arg("segment", segment_path(next_seq))
      .arg("bytes", static_cast<std::uint64_t>(active_bytes_))
      .arg("jobs", static_cast<std::uint64_t>(digest_.size()));
  return true;
}

bool Journal::append_accepted(const Job& job) {
  // The record is {"type":"accepted","id":N,"job":<spec>}; the spec's text
  // is written once, framed in place by append_record and then kept by
  // the digest.
  std::string job_json = job_spec_to_json(job.spec());
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("accepted");
  w.key("id").value(job.id());
  w.key("job");

  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(opened_, "journal not opened");
  if (!append_record("append:accepted", {w.str(), job_json, "}"})) {
    return false;
  }
  DigestEntry entry;
  entry.job_json = std::move(job_json);
  digest_[job.id()] = std::move(entry);
  max_id_ = std::max(max_id_, job.id());
  fsync_active_locked(/*force=*/false);
  maybe_rotate_locked();
  return true;
}

bool Journal::append_started(std::uint64_t id, std::int32_t attempt) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("started");
  w.key("id").value(id);
  w.key("attempts").value(attempt);
  w.end_object();

  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(opened_, "journal not opened");
  if (!append_record("append:started", {w.str()})) return false;
  auto it = digest_.find(id);
  if (it != digest_.end()) {
    it->second.state = "running";
    it->second.attempts = attempt;
  }
  fsync_active_locked(/*force=*/false);
  maybe_rotate_locked();
  return true;
}

bool Journal::append_settled(const Job& job, JobState state) {
  std::string result_json;
  if (state == JobState::kFinished) {
    obs::JsonWriter rw;
    write_job_result(rw, job.result());
    result_json = rw.str();
  }
  std::string error = job.error();

  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("settled");
  w.key("id").value(job.id());
  w.key("state").value(to_string(state));
  if (!result_json.empty()) w.key("result").raw_value(result_json);
  if (!error.empty()) w.key("error").value(error);
  w.end_object();

  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(opened_, "journal not opened");
  if (!append_record("append:settled", {w.str()})) return false;
  auto it = digest_.find(job.id());
  if (it != digest_.end()) {
    it->second.state = to_string(state);
    it->second.result_json = std::move(result_json);
    it->second.error = std::move(error);
  }
  ++settled_since_rotate_;
  fsync_active_locked(/*force=*/false);
  maybe_rotate_locked();
  return true;
}

bool Journal::append_rejected(std::uint64_t id) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("rejected");
  w.key("id").value(id);
  w.end_object();

  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(opened_, "journal not opened");
  if (!append_record("append:rejected", {w.str()})) return false;
  digest_.erase(id);
  fsync_active_locked(/*force=*/false);
  maybe_rotate_locked();
  return true;
}

bool Journal::append_forgotten(std::uint64_t id) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("forgotten");
  w.key("id").value(id);
  w.end_object();

  std::lock_guard lock(mu_);
  TSPOPT_CHECK_MSG(opened_, "journal not opened");
  if (!append_record("append:forgotten", {w.str()})) return false;
  digest_.erase(id);
  ++settled_since_rotate_;
  fsync_active_locked(/*force=*/false);
  maybe_rotate_locked();
  return true;
}

void Journal::flush() {
  std::lock_guard lock(mu_);
  fsync_active_locked(/*force=*/true);
}

Journal::Stats Journal::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.appends = n_appends_;
  s.append_errors = n_append_errors_;
  s.bytes = n_bytes_;
  s.fsyncs = n_fsyncs_;
  s.fsync_errors = n_fsync_errors_;
  s.rotations = n_rotations_;
  s.torn_tails = n_torn_tails_;
  s.last_append_ok = last_append_ok_;
  s.last_fsync_ok = last_fsync_ok_;
  s.active_segment = active_seq_;
  s.active_bytes = active_bytes_;
  for (const auto& [id, entry] : digest_) {
    (void)id;
    JobState state = JobState::kQueued;
    bool settled =
        parse_job_state(entry.state, &state) && is_terminal(state);
    if (settled) {
      ++s.settled_jobs;
    } else {
      ++s.live_jobs;
    }
  }
  return s;
}

bool Journal::healthy() const {
  std::lock_guard lock(mu_);
  return !wedged_ && last_append_ok_ && last_fsync_ok_;
}

void write_journal_stats(obs::JsonWriter& w, const Journal& journal) {
  Journal::Stats stats = journal.stats();
  w.begin_object();
  w.key("dir").value(journal.dir());
  w.key("appends").value(stats.appends);
  w.key("append_errors").value(stats.append_errors);
  w.key("bytes").value(stats.bytes);
  w.key("fsyncs").value(stats.fsyncs);
  w.key("fsync_errors").value(stats.fsync_errors);
  w.key("rotations").value(stats.rotations);
  w.key("torn_tails").value(stats.torn_tails);
  w.key("live_jobs").value(stats.live_jobs);
  w.key("settled_jobs").value(stats.settled_jobs);
  w.key("active_segment").value(stats.active_segment);
  w.key("active_bytes").value(stats.active_bytes);
  w.key("healthy").value(journal.healthy());
  w.end_object();
}

}  // namespace tspopt::serve
