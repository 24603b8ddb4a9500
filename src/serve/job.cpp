#include "serve/job.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "common/check.hpp"

namespace tspopt::serve {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kFinished: return "finished";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

double Job::deadline_remaining_ms() const {
  if (!has_deadline()) return std::numeric_limits<double>::infinity();
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - accepted_at_);
  return spec_.deadline_ms - elapsed.count();
}

void write_job_spec(obs::JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  w.key("schema").value("tspopt.job");
  w.key("schema_version").value(static_cast<std::int64_t>(kJobSchemaVersion));
  if (!spec.catalog.empty()) {
    w.key("catalog").value(spec.catalog);
  } else {
    w.key("name").value(spec.instance_name);
    w.key("points").begin_array();
    for (const Point& p : spec.points) {
      w.begin_array();
      w.value(static_cast<double>(p.x));
      w.value(static_cast<double>(p.y));
      w.end_array();
    }
    w.end_array();
  }
  w.key("engine").value(spec.engine);
  w.key("priority").value(spec.priority);
  w.key("time_limit_seconds").value(spec.time_limit_seconds);
  w.key("max_iterations").value(spec.max_iterations);
  w.key("deadline_ms").value(spec.deadline_ms);
  w.key("seed").value(spec.seed);
  w.key("devices").value(spec.devices);
  if (spec.k != 0) w.key("k").value(spec.k);
  if (spec.batchable) w.key("batchable").value(true);
  if (!spec.idempotency_key.empty()) {
    w.key("idempotency_key").value(spec.idempotency_key);
  }
  if (!spec.trace_id.empty()) w.key("trace_id").value(spec.trace_id);
  if (spec.parent_span != 0) w.key("parent_span").value(spec.parent_span);
  w.end_object();
}

std::string job_spec_to_json(const JobSpec& spec) {
  obs::JsonWriter w;
  write_job_spec(w, spec);
  return std::move(w).take();
}

namespace {

double number_field(const obs::JsonValue& v, const char* key, double fallback) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) return fallback;
  TSPOPT_CHECK_MSG(f->kind == obs::JsonValue::Kind::kNumber,
                   "job field \"" << key << "\" must be a number");
  return f->number;
}

// A value as sent, for error messages: numbers in their shortest
// round-trip digits (1.5, 4294967301, 1e+300), anything else as JSON.
std::string as_sent(const obs::JsonValue& value) {
  if (value.kind == obs::JsonValue::Kind::kNumber) {
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value.number);
    return std::string(buf, ec == std::errc() ? end : buf);
  }
  obs::JsonWriter w;
  obs::write_json_value(w, value);
  return w.str();
}

}  // namespace

std::int64_t json_integer(const obs::JsonValue& value, const char* key,
                          std::int64_t lo, std::int64_t hi) {
  TSPOPT_CHECK(-kMaxExactInteger <= lo && lo <= hi && hi <= kMaxExactInteger);
  const double d = value.number;
  TSPOPT_CHECK_MSG(value.kind == obs::JsonValue::Kind::kNumber &&
                       d == std::floor(d) && d >= static_cast<double>(lo) &&
                       d <= static_cast<double>(hi),
                   "\"" << key << "\" must be an integer in [" << lo << ", "
                        << hi << "], got " << as_sent(value));
  return static_cast<std::int64_t>(d);
}

std::int64_t integer_field(const obs::JsonValue& v, const char* key,
                           std::int64_t fallback, std::int64_t lo,
                           std::int64_t hi) {
  const obs::JsonValue* f = v.find(key);
  return f == nullptr ? fallback : json_integer(*f, key, lo, hi);
}

std::int32_t int32_field(const obs::JsonValue& v, const char* key,
                         std::int32_t fallback, std::int32_t lo,
                         std::int32_t hi) {
  return static_cast<std::int32_t>(integer_field(v, key, fallback, lo, hi));
}

JobSpec job_spec_from_json(const obs::JsonValue& value) {
  TSPOPT_CHECK_MSG(value.is_object(), "job payload must be a JSON object");
  const obs::JsonValue& schema = value.at("schema");
  TSPOPT_CHECK_MSG(schema.kind == obs::JsonValue::Kind::kString &&
                       schema.string == "tspopt.job",
                   "unexpected schema \"" << schema.string << "\"");
  auto version =
      static_cast<int>(number_field(value, "schema_version", -1));
  TSPOPT_CHECK_MSG(version == kJobSchemaVersion,
                   "unsupported job schema_version " << version << " (want "
                                                     << kJobSchemaVersion
                                                     << ")");

  // Reject unknown members: a typoed field silently taking its default is
  // how deadline_ms ends up unenforced in production.
  static constexpr const char* kKnown[] = {
      "schema", "schema_version", "catalog", "name", "points",
      "engine", "priority",       "time_limit_seconds", "max_iterations",
      "deadline_ms", "seed", "devices", "k", "batchable", "idempotency_key",
      "trace_id", "parent_span"};
  for (const auto& [key, member] : value.object) {
    (void)member;
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    TSPOPT_CHECK_MSG(known, "unknown job field \"" << key << "\"");
  }

  JobSpec spec;
  if (const obs::JsonValue* catalog = value.find("catalog")) {
    TSPOPT_CHECK_MSG(catalog->kind == obs::JsonValue::Kind::kString,
                     "\"catalog\" must be a string");
    spec.catalog = catalog->string;
    TSPOPT_CHECK_MSG(value.find("points") == nullptr,
                     "a job names a catalog instance OR inline points");
  } else {
    const obs::JsonValue& points = value.at("points");
    TSPOPT_CHECK_MSG(points.is_array() && points.array.size() >= 3,
                     "inline \"points\" must be an array of >= 3 [x,y] pairs");
    spec.points.reserve(points.array.size());
    for (const obs::JsonValue& p : points.array) {
      TSPOPT_CHECK_MSG(p.is_array() && p.array.size() == 2 &&
                           p.array[0].kind == obs::JsonValue::Kind::kNumber &&
                           p.array[1].kind == obs::JsonValue::Kind::kNumber,
                       "each point must be an [x, y] number pair");
      check_coordinate(p.array[0].number, "x coordinate of point",
                       spec.points.size());
      check_coordinate(p.array[1].number, "y coordinate of point",
                       spec.points.size());
      spec.points.push_back({static_cast<float>(p.array[0].number),
                             static_cast<float>(p.array[1].number)});
    }
    if (const obs::JsonValue* name = value.find("name")) {
      TSPOPT_CHECK_MSG(name->kind == obs::JsonValue::Kind::kString,
                       "\"name\" must be a string");
      spec.instance_name = name->string;
    } else {
      spec.instance_name = "inline" + std::to_string(spec.points.size());
    }
  }

  if (const obs::JsonValue* engine = value.find("engine")) {
    TSPOPT_CHECK_MSG(engine->kind == obs::JsonValue::Kind::kString,
                     "\"engine\" must be a string");
    spec.engine = engine->string;
  }
  spec.priority = int32_field(value, "priority", spec.priority, 0, 9);
  spec.time_limit_seconds =
      number_field(value, "time_limit_seconds", spec.time_limit_seconds);
  TSPOPT_CHECK_MSG(spec.time_limit_seconds > 0.0,
                   "time_limit_seconds must be positive");
  spec.max_iterations =
      integer_field(value, "max_iterations", spec.max_iterations);
  spec.deadline_ms = number_field(value, "deadline_ms", spec.deadline_ms);
  spec.seed = static_cast<std::uint64_t>(
      integer_field(value, "seed", static_cast<std::int64_t>(spec.seed), 0));
  spec.devices = int32_field(value, "devices", spec.devices, 1, 64);
  // 0 means the default. Full validation (pruned engines only, k < n)
  // happens at submit, where the instance size is known; the wire layer
  // rejects what it can.
  spec.k = int32_field(value, "k", spec.k, 0,
                       std::numeric_limits<std::int32_t>::max());
  if (const obs::JsonValue* batchable = value.find("batchable")) {
    TSPOPT_CHECK_MSG(batchable->kind == obs::JsonValue::Kind::kBool,
                     "\"batchable\" must be a boolean");
    spec.batchable = batchable->boolean;
  }
  if (const obs::JsonValue* key = value.find("idempotency_key")) {
    TSPOPT_CHECK_MSG(key->kind == obs::JsonValue::Kind::kString,
                     "\"idempotency_key\" must be a string");
    TSPOPT_CHECK_MSG(key->string.size() <= 256,
                     "\"idempotency_key\" must be <= 256 bytes");
    spec.idempotency_key = key->string;
  }
  if (const obs::JsonValue* trace = value.find("trace_id")) {
    TSPOPT_CHECK_MSG(trace->kind == obs::JsonValue::Kind::kString,
                     "\"trace_id\" must be a string");
    TSPOPT_CHECK_MSG(trace->string.size() <= 64,
                     "\"trace_id\" must be <= 64 bytes");
    for (char c : trace->string) {
      // Trace ids are stamped verbatim into log lines, trace args and
      // journal records; keep them printable and quote-free.
      TSPOPT_CHECK_MSG(c > 0x20 && c < 0x7F && c != '"' && c != '\\',
                       "\"trace_id\" must be printable ASCII without "
                       "quotes or backslashes");
    }
    spec.trace_id = trace->string;
  }
  spec.parent_span =
      static_cast<std::uint64_t>(integer_field(value, "parent_span", 0, 0));
  return spec;
}

void write_job_result(obs::JsonWriter& w, const JobResult& result) {
  w.begin_object();
  w.key("constructive_length").value(result.constructive_length);
  w.key("best_length").value(result.best_length);
  w.key("iterations").value(result.iterations);
  w.key("improvements").value(result.improvements);
  w.key("checks").value(result.checks);
  w.key("wall_seconds").value(result.wall_seconds);
  w.key("stopped").value(result.stopped);
  w.key("order").begin_array();
  for (std::int32_t city : result.order) w.value(city);
  w.end_array();
  if (!result.report_json.empty()) {
    w.key("report").raw_value(result.report_json);
  }
  w.end_object();
}

JobResult job_result_from_json(const obs::JsonValue& value) {
  TSPOPT_CHECK_MSG(value.is_object(), "job result must be a JSON object");
  JobResult result;
  result.constructive_length =
      integer_field(value, "constructive_length", 0);
  result.best_length = integer_field(value, "best_length", 0);
  result.iterations = integer_field(value, "iterations", 0);
  result.improvements = integer_field(value, "improvements", 0);
  result.checks =
      static_cast<std::uint64_t>(integer_field(value, "checks", 0, 0));
  result.wall_seconds = number_field(value, "wall_seconds", 0.0);
  if (const obs::JsonValue* stopped = value.find("stopped")) {
    TSPOPT_CHECK_MSG(stopped->kind == obs::JsonValue::Kind::kBool,
                     "\"stopped\" must be a boolean");
    result.stopped = stopped->boolean;
  }
  if (const obs::JsonValue* order = value.find("order")) {
    TSPOPT_CHECK_MSG(order->is_array(), "\"order\" must be an array");
    result.order.reserve(order->array.size());
    for (const obs::JsonValue& city : order->array) {
      result.order.push_back(static_cast<std::int32_t>(json_integer(
          city, "order", 0, std::numeric_limits<std::int32_t>::max())));
    }
  }
  if (const obs::JsonValue* report = value.find("report")) {
    // Re-render the embedded report verbatim so the journaled bytes and a
    // freshly produced result are indistinguishable to clients.
    obs::JsonWriter w;
    obs::write_json_value(w, *report);
    result.report_json = w.str();
  }
  return result;
}

void write_job_status(obs::JsonWriter& w, const Job& job) {
  w.begin_object();
  w.key("id").value(job.id());
  w.key("state").value(to_string(job.state()));
  w.key("instance").value(job.spec().inline_payload() ? job.spec().instance_name
                                                      : job.spec().catalog);
  w.key("engine").value(job.spec().engine);
  w.key("priority").value(job.spec().priority);
  std::int64_t best = job.best_length.load(std::memory_order_relaxed);
  if (best >= 0) w.key("best_length").value(best);
  w.key("iteration").value(job.iteration.load(std::memory_order_relaxed));
  w.key("attempts").value(job.attempts.load(std::memory_order_relaxed));
  std::uint64_t batch = job.batch_id.load(std::memory_order_relaxed);
  if (batch != 0) {
    w.key("batch_id").value(batch);
    w.key("batch_occupancy")
        .value(job.batch_occupancy.load(std::memory_order_relaxed));
  }
  if (!job.spec().trace_id.empty()) {
    w.key("trace_id").value(job.spec().trace_id);
  }
  for (JobPhase phase : kJobPhases) {
    double seconds = job.phase_seconds(phase);
    if (seconds >= 0.0) {
      w.key(std::string(to_string(phase)) + "_seconds").value(seconds);
    }
  }
  if (job.has_deadline()) w.key("deadline_ms").value(job.spec().deadline_ms);
  std::string error = job.error();
  if (!error.empty()) w.key("error").value(error);
  w.end_object();
}

}  // namespace tspopt::serve
