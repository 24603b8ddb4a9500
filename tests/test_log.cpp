// The structured JSONL event log: spec parsing, level filtering, common
// stamped fields (run id, tid, span id), argument typing, token-bucket
// rate limiting with the synthetic log.dropped marker, and — via a
// re-execed child that SIGKILLs itself mid-run — the per-line flush
// guarantee that a killed process leaves a parseable JSONL prefix, and
// that a TSPOPT_TRACE-only process that ends in std::terminate still
// writes its trace.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/runinfo.hpp"
#include "obs/trace.hpp"

namespace tspopt {
namespace {

using obs::JsonValue;
using obs::Log;
using obs::LogLevel;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/tspopt_log_test_" + name + ".jsonl";
}

Log::Options file_options(const std::string& path,
                          LogLevel level = LogLevel::kTrace,
                          double max_per_sec = 0.0) {
  Log::Options options;
  options.level = level;
  options.path = path;
  options.max_events_per_sec = max_per_sec;
  return options;
}

TEST(ObsLog, LevelNamesRoundTrip) {
  for (LogLevel l : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                     LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kOff;
    ASSERT_TRUE(obs::parse_log_level(obs::to_string(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  LogLevel untouched = LogLevel::kWarn;
  EXPECT_FALSE(obs::parse_log_level("verbose", &untouched));
  EXPECT_EQ(untouched, LogLevel::kWarn);
}

TEST(ObsLog, SpecParsesLevelAndOptionalPath) {
  Log::Options options;
  ASSERT_TRUE(Log::parse_spec("debug,/tmp/run.jsonl", &options));
  EXPECT_EQ(options.level, LogLevel::kDebug);
  EXPECT_EQ(options.path, "/tmp/run.jsonl");
  ASSERT_TRUE(Log::parse_spec("warn", &options));
  EXPECT_EQ(options.level, LogLevel::kWarn);
  EXPECT_TRUE(options.path.empty());
  EXPECT_FALSE(Log::parse_spec("loud,/tmp/x", &options));
}

TEST(ObsLog, EventsBelowTheConfiguredLevelAreInert) {
  std::string path = temp_path("filter");
  std::remove(path.c_str());
  Log log;
  log.configure(file_options(path, LogLevel::kWarn));
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
  {
    obs::LogEvent filtered = log.event(LogLevel::kInfo, "ignored");
    EXPECT_FALSE(filtered);
    filtered.arg("k", std::int64_t{1});  // must be a harmless no-op
  }
  log.event(LogLevel::kError, "kept").arg("k", std::int64_t{2});
  log.flush();
  EXPECT_EQ(log.emitted(), 1u);
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  JsonValue doc = obs::json_parse(lines[0]);
  EXPECT_EQ(doc.at("event").string, "kept");
  EXPECT_EQ(doc.at("level").string, "error");
  std::remove(path.c_str());
}

TEST(ObsLog, LinesCarryStampedFieldsAndTypedArgs) {
  std::string path = temp_path("fields");
  std::remove(path.c_str());
  Log log;
  log.configure(file_options(path));
  log.event(LogLevel::kInfo, "typed")
      .arg("s", "va\"lue")
      .arg("i", std::int64_t{-7})
      .arg("u", std::uint64_t{18446744073709551615ull})
      .arg("d", 0.25)
      .arg("b", true);
  log.flush();
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  JsonValue doc = obs::json_parse(lines[0]);
  // Common stamped fields: RFC 3339 ms timestamp, level, event name, the
  // process run id, and the trace thread ordinal.
  EXPECT_EQ(doc.at("ts").string.size(),
            std::string("2026-01-02T03:04:05.678Z").size());
  EXPECT_EQ(doc.at("ts").string.back(), 'Z');
  EXPECT_EQ(doc.at("level").string, "info");
  EXPECT_EQ(doc.at("event").string, "typed");
  EXPECT_EQ(doc.at("run").string, obs::run_id());
  EXPECT_EQ(doc.at("tid").kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(doc.at("s").string, "va\"lue");
  EXPECT_EQ(doc.at("i").number, -7.0);
  EXPECT_EQ(doc.at("u").number, 18446744073709551615.0);
  EXPECT_EQ(doc.at("d").number, 0.25);
  EXPECT_TRUE(doc.at("b").boolean);
  std::remove(path.c_str());
}

TEST(ObsLog, SpanFieldCorrelatesWithTheEnclosingTraceSpan) {
  std::string path = temp_path("span");
  std::remove(path.c_str());
  Log log;
  log.configure(file_options(path));
  obs::Tracer tracer;
  tracer.enable(true);
  log.event(LogLevel::kInfo, "outside");  // no enclosing span
  {
    obs::Span span = tracer.span("work", "test");
    ASSERT_TRUE(span);
    log.event(LogLevel::kInfo, "inside");
  }
  log.flush();
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  JsonValue outside = obs::json_parse(lines[0]);
  JsonValue inside = obs::json_parse(lines[1]);
  EXPECT_EQ(outside.find("span"), nullptr);
  ASSERT_NE(inside.find("span"), nullptr);
  // The stamped span id is the id the tracer recorded for "work".
  std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(inside.at("span").number,
            static_cast<double>(events[0].id));
  EXPECT_NE(events[0].id, 0u);
  std::remove(path.c_str());
}

TEST(ObsLog, RateLimiterDropsFloodsAndReportsThem) {
  std::string path = temp_path("ratelimit");
  std::remove(path.c_str());
  Log log;
  // Bucket starts full with 2 tokens and refills at 2/s; a tight loop of
  // 50 events exhausts it almost immediately.
  log.configure(file_options(path, LogLevel::kTrace,
                             /*max_per_sec=*/2.0));
  for (int i = 0; i < 50; ++i) {
    log.event(LogLevel::kInfo, "flood").arg("i", std::int64_t{i});
  }
  EXPECT_GE(log.dropped(), 1u);
  std::uint64_t dropped_before_warn = log.dropped();
  // Warnings bypass the limiter, and the first line through after drops is
  // the synthetic log.dropped marker.
  log.event(LogLevel::kWarn, "important");
  log.flush();
  std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);
  JsonValue marker = obs::json_parse(lines[lines.size() - 2]);
  JsonValue warn = obs::json_parse(lines.back());
  EXPECT_EQ(marker.at("event").string, "log.dropped");
  EXPECT_EQ(marker.at("count").number,
            static_cast<double>(dropped_before_warn));
  EXPECT_EQ(warn.at("event").string, "important");
  // Every line in the file — including the flood prefix — is valid JSON.
  for (const std::string& line : lines) {
    EXPECT_NO_THROW(obs::json_parse(line)) << line;
  }
  std::remove(path.c_str());
}

TEST(ObsLog, LimiterDisabledEmitsEverything) {
  std::string path = temp_path("nolimit");
  std::remove(path.c_str());
  Log log;
  log.configure(file_options(path, LogLevel::kTrace, /*max_per_sec=*/0.0));
  for (int i = 0; i < 200; ++i) {
    log.event(LogLevel::kTrace, "burst");
  }
  log.flush();
  EXPECT_EQ(log.emitted(), 200u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(read_lines(path).size(), 200u);
  std::remove(path.c_str());
}

// ------------------------------------------------- flush-on-kill death --

// Hidden child body for the death test below: emits JSONL lines then
// SIGKILLs itself mid-run. Inert (skipped) unless re-execed by the parent
// with TSPOPT_LOG_DEATH_PATH set.
TEST(ObsLogDeathChild, Worker) {
  const char* path = std::getenv("TSPOPT_LOG_DEATH_PATH");
  if (path == nullptr) GTEST_SKIP() << "driver-only child body";
  Log log;
  log.configure(file_options(path));
  for (int i = 0; i < 40; ++i) {
    log.event(LogLevel::kInfo, "before_kill").arg("i", std::int64_t{i});
  }
  // No flush, no clean shutdown: the per-line flush in emit_line() is the
  // only thing standing between this SIGKILL and a torn log.
  std::raise(SIGKILL);
  FAIL() << "unreachable";
}

TEST(ObsLogDeath, KilledProcessLeavesParseableJsonl) {
  std::string path = temp_path("killed");
  std::remove(path.c_str());
  std::string filter = "--gtest_filter=ObsLogDeathChild.Worker";
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::setenv("TSPOPT_LOG_DEATH_PATH", path.c_str(), 1);
    ::execl("/proc/self/exe", "/proc/self/exe", filter.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child should die from its own SIGKILL, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // Despite the SIGKILL (no atexit, no stream destructors), every line
  // written before the signal is complete and parseable.
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 40u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue doc;
    ASSERT_NO_THROW(doc = obs::json_parse(lines[i])) << lines[i];
    EXPECT_EQ(doc.at("event").string, "before_kill");
    EXPECT_EQ(doc.at("i").number, static_cast<double>(i));
  }
  std::remove(path.c_str());
}

// ------------------------------------------- flush-on-terminate death --

// Hidden child body for the test below: records one span through the
// env-driven tracer, then ends in std::terminate. Inert (skipped) unless
// re-execed by the parent with OBS_FLUSH_TERMINATE_CHILD set; the marker
// is deliberately not a TSPOPT_* variable, so the tracer is the only sink
// the child's environment turns on.
TEST(ObsFlushChild, Worker) {
  if (std::getenv("OBS_FLUSH_TERMINATE_CHILD") == nullptr) {
    GTEST_SKIP() << "driver-only child body";
  }
  { obs::Span span = obs::Tracer::global().span("flush.before_terminate"); }
  std::terminate();
}

TEST(ObsFlush, TerminateLeavesTheTrace) {
  std::string path = testing::TempDir() + "/tspopt_flush_terminate.json";
  std::remove(path.c_str());
  std::string filter = "--gtest_filter=ObsFlushChild.Worker";
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Only TSPOPT_TRACE may be set, so no other sink installs the hooks.
    std::vector<std::string> names;
    for (char** env = environ; *env != nullptr; ++env) {
      if (std::strncmp(*env, "TSPOPT_", 7) != 0) continue;
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq != nullptr ? eq - *env : std::strlen(*env));
    }
    for (const std::string& name : names) ::unsetenv(name.c_str());
    ::setenv("TSPOPT_TRACE", path.c_str(), 1);
    ::setenv("OBS_FLUSH_TERMINATE_CHILD", "1", 1);
    ::execl("/proc/self/exe", "/proc/self/exe", filter.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child should die from std::terminate's abort, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no trace written at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  ASSERT_NO_THROW(doc = obs::json_parse(buffer.str()));
  bool saw_span = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("name").string == "flush.before_terminate") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tspopt
