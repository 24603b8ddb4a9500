// The observability subsystem: JSON emitter/parser round-trips, span
// nesting and thread attribution, metrics registry semantics, run-report
// schema, and — end to end — a fault-injected multi-device ILS run whose
// trace and report record the retry/quarantine story.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/http.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/runinfo.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "simt/device.hpp"
#include "simt/fault.hpp"
#include "solver/constructive.hpp"
#include "solver/ils.hpp"
#include "solver/obs_adapters.hpp"
#include "solver/twoopt_multi.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

using obs::JsonValue;
using obs::JsonWriter;

// ---------------------------------------------------------------- JSON --

TEST(ObsJson, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(obs::json_escape("line\nfeed"), "line\\nfeed");
  // Non-ASCII passes through untouched (emitted as UTF-8).
  EXPECT_EQ(obs::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(ObsJson, WriterParserRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("span \"quoted\"");
  w.key("count").value(std::uint64_t{42});
  w.key("ratio").value(0.25);
  w.key("bad").value(std::numeric_limits<double>::quiet_NaN());
  w.key("on").value(true);
  w.key("list").begin_array().value(std::int64_t{-1}).null_value().end_array();
  w.key("nested").begin_object().key("k").value("v").end_object();
  w.key("spliced").raw_value("[1,2]");
  w.end_object();

  JsonValue doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string, "span \"quoted\"");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("ratio").number, 0.25);
  EXPECT_EQ(doc.at("bad").kind, JsonValue::Kind::kNull);  // NaN -> null
  EXPECT_TRUE(doc.at("on").boolean);
  ASSERT_EQ(doc.at("list").array.size(), 2u);
  EXPECT_EQ(doc.at("list").array[0].number, -1.0);
  EXPECT_EQ(doc.at("list").array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("nested").at("k").string, "v");
  EXPECT_EQ(doc.at("spliced").array.size(), 2u);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ObsJson, WriterFormatsDoublesAsPrintfDoes) {
  // The writer's double text is printf's "%.12g": edge values of the
  // formats (signed zero, denormals, exponent switches, float-widened
  // coordinates up to the 2.5e8 bound, integers) and a sweep of values.
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 42.0, 1e21, -1e21, 1e15, 123456789012.0,
      1234567890123.0, 1e-5, 1e-4, 0.1, 0.25,
      static_cast<double>(0.1f), static_cast<double>(2.5e8f),
      static_cast<double>(-2.5e8f), static_cast<double>(2.5e8f - 16.0f),
      static_cast<double>(12345.678f), 9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 999999999999.5, 0.5e-300};
  for (int e = -30; e <= 30; ++e) {
    values.push_back(std::pow(10.0, e));
    values.push_back(1.0000000000005 * std::pow(10.0, e));
    values.push_back(-9.9999999999995 * std::pow(10.0, e));
  }
  for (std::int64_t n : {std::int64_t{7}, std::int64_t{-123456},
                         std::int64_t{999999999999},
                         std::int64_t{1000000000000}}) {
    values.push_back(static_cast<double>(n));
  }
  for (double v : values) {
    char want[40];
    std::snprintf(want, sizeof(want), "%.12g", v);
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), want) << want;
  }
}

TEST(ObsJson, ParserDecodesEscapesAndRejectsGarbage) {
  JsonValue doc = obs::json_parse("{\"s\": \"a\\u0041\\n\\\"b\"}");
  EXPECT_EQ(doc.at("s").string, "aA\n\"b");
  EXPECT_THROW(obs::json_parse("{\"unterminated\": "), CheckError);
  EXPECT_THROW(obs::json_parse("[1,]"), CheckError);
  EXPECT_THROW(obs::json_parse("{} trailing"), CheckError);
}

TEST(ObsJson, ParserAllocatesEachArrayAtItsFinalSize) {
  // A 10k-element array (the size of a served tour) is one allocation of
  // exactly its elements, not a doubling chain; nested arrays, and
  // brackets, commas and escaped quotes inside strings, do not disturb
  // the counts of the arrays around them.
  std::string tour = "[";
  for (int c = 0; c < 10000; ++c) {
    if (c > 0) tour += ',';
    tour += std::to_string(c);
  }
  tour += "]";
  JsonValue order = obs::json_parse(tour);
  ASSERT_EQ(order.array.size(), 10000u);
  EXPECT_EQ(order.array.capacity(), 10000u);
  EXPECT_EQ(order.array[9999].number, 9999.0);

  JsonValue doc = obs::json_parse(
      "{\"a\": [[1, 2], [], [\"x,]\\\"[\", {\"k\": [3, 4, 5]}], 6],"
      " \"b\": [7 , 8]}");
  const JsonValue& a = doc.at("a");
  ASSERT_EQ(a.array.size(), 4u);
  EXPECT_EQ(a.array.capacity(), 4u);
  EXPECT_EQ(a.array[0].array.capacity(), 2u);
  EXPECT_TRUE(a.array[1].array.empty());
  const JsonValue& mixed = a.array[2];
  ASSERT_EQ(mixed.array.size(), 2u);
  EXPECT_EQ(mixed.array.capacity(), 2u);
  EXPECT_EQ(mixed.array[0].string, "x,]\"[");
  EXPECT_EQ(mixed.array[1].at("k").array.capacity(), 3u);
  EXPECT_EQ(doc.at("b").array.capacity(), 2u);

  // Malformed arrays still fail the parse proper.
  EXPECT_THROW(obs::json_parse("[,,,,,,,,]"), CheckError);
  EXPECT_THROW(obs::json_parse("[[1, 2], [3,"), CheckError);
  EXPECT_THROW(obs::json_parse("[1 2]"), CheckError);
}

// --------------------------------------------------------------- spans --

TEST(ObsTrace, DisabledTracerIsInertAndRecordsNothing) {
  obs::Tracer tracer;  // disabled by default
  {
    obs::Span span = tracer.span("never", "test");
    EXPECT_FALSE(span);
    span.arg("k", std::int64_t{1});  // must be a harmless no-op
  }
  tracer.instant("also-never", "test");
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsTrace, SpansNestByDepthAndContainment) {
  obs::Tracer tracer;
  tracer.enable(true);
  {
    obs::Span outer = tracer.span("outer", "test");
    ASSERT_TRUE(outer);
    outer.arg("n", std::int64_t{7});
    {
      obs::Span inner = tracer.span("inner", "test");
      ASSERT_TRUE(inner);
    }
  }
  std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.tid, inner.tid);
  // The outer interval contains the inner one.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.duration_ns,
            inner.start_ns + inner.duration_ns);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_STREQ(outer.args[0].first, "n");
  EXPECT_EQ(outer.args[0].second, "7");
}

TEST(ObsTrace, ThreadsGetDistinctTids) {
  obs::Tracer tracer;
  tracer.enable(true);
  auto worker = [&tracer] { tracer.span("worker", "test"); };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // New threads start at nesting depth 0.
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 0);
}

TEST(ObsTrace, ChromeTraceJsonRoundTrips) {
  obs::Tracer tracer;
  tracer.enable(true);
  {
    obs::Span span = tracer.span("evt \"x\"", "cat");
    span.arg("label", "va\"lue");
    span.arg("count", std::uint64_t{3});
  }
  tracer.instant("mark", "cat", {{"device", "gpu0"}});

  JsonValue doc = obs::json_parse(tracer.chrome_trace_json());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ns");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.array.size(), 2u);
  const JsonValue& complete = events.array[0];
  EXPECT_EQ(complete.at("name").string, "evt \"x\"");
  EXPECT_EQ(complete.at("ph").string, "X");
  EXPECT_GE(complete.at("dur").number, 0.0);
  EXPECT_EQ(complete.at("args").at("label").string, "va\"lue");
  EXPECT_EQ(complete.at("args").at("count").number, 3.0);
  const JsonValue& instant = events.array[1];
  EXPECT_EQ(instant.at("ph").string, "i");
  EXPECT_EQ(instant.at("args").at("device").string, "gpu0");
}

// ------------------------------------------------------------- metrics --

TEST(ObsMetrics, HistogramBucketsByBound) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow bucket
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  // A value exactly on a bound lands in that bound's bucket (<=).
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(1), 2u);
}

TEST(ObsMetrics, HistogramQuantileMatchesKnownDistribution) {
  // 1000 uniform observations over (0, 100] with bounds every 10: the
  // interpolated quantile should track the exact quantile closely.
  obs::Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 1000; ++i) h.observe(i * 0.1);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.25), 25.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1e-9);
  // Degenerate cases: empty histogram reports 0; a quantile that falls in
  // the unbounded overflow bucket clamps to the last finite bound.
  obs::Histogram empty({1, 2});
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  obs::Histogram over({1, 2});
  over.observe(100.0);
  EXPECT_EQ(over.quantile(0.5), 2.0);
}

TEST(ObsMetrics, HistogramBucketBoundariesAreInclusiveUpper) {
  // An observation exactly on a bound lands in that bound's bucket
  // (inclusive upper), matching the Prometheus le= semantics; just above
  // goes to the next.
  obs::Histogram h({1.0, 2.0});
  h.observe(1.0);
  h.observe(std::nextafter(1.0, 2.0));
  h.observe(2.0);
  h.observe(std::nextafter(2.0, 3.0));
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // the implicit overflow bucket
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(ObsMetrics, CounterIsAtomicCompatible) {
  obs::Counter c;
  c.fetch_add(2, std::memory_order_relaxed);
  c.add(3);
  EXPECT_EQ(c.load(), 5u);
  EXPECT_EQ(c.value(), 5u);
  c.store(0);
  EXPECT_EQ(c.load(), 0u);
}

TEST(ObsRegistry, LabelsNameInstrumentsOrderInsensitively) {
  obs::Registry registry;
  obs::Counter& a =
      registry.counter("retries", {{"device", "gpu0"}, {"part", "1"}});
  obs::Counter& b =
      registry.counter("retries", {{"part", "1"}, {"device", "gpu0"}});
  obs::Counter& other = registry.counter("retries", {{"device", "gpu1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(4);
  EXPECT_EQ(b.load(), 4u);

  // Same name, different kind: a registration bug, loudly.
  EXPECT_THROW(registry.gauge("retries", {{"device", "gpu0"}, {"part", "1"}}),
               CheckError);
}

TEST(ObsRegistry, WriteJsonEmitsEveryInstrument) {
  obs::Registry registry;
  registry.counter("c", {{"k", "v"}}).add(2);
  registry.gauge("g").set(1.5);
  obs::Histogram& h = registry.histogram("h", {1.0, 2.0});
  h.observe(1.5);

  JsonWriter w;
  registry.write_json(w);
  JsonValue doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 3u);
  // entries() sorts by name: c, g, h.
  EXPECT_EQ(doc.array[0].at("name").string, "c");
  EXPECT_EQ(doc.array[0].at("kind").string, "counter");
  EXPECT_EQ(doc.array[0].at("labels").at("k").string, "v");
  EXPECT_EQ(doc.array[0].at("value").number, 2.0);
  EXPECT_EQ(doc.array[1].at("kind").string, "gauge");
  EXPECT_EQ(doc.array[1].at("value").number, 1.5);
  EXPECT_EQ(doc.array[2].at("kind").string, "histogram");
  EXPECT_EQ(doc.array[2].at("count").number, 1.0);
  ASSERT_EQ(doc.array[2].at("buckets").array.size(), 3u);
  EXPECT_EQ(doc.array[2].at("buckets").array[1].number, 1.0);
}

TEST(ObsMetrics, PerfCountersResetAndSnapshotDelta) {
  simt::PerfCounters counters;
  counters.checks.fetch_add(100, std::memory_order_relaxed);
  counters.h2d_bytes.fetch_add(64, std::memory_order_relaxed);
  auto before = counters.snapshot();
  counters.checks.fetch_add(50, std::memory_order_relaxed);
  counters.kernel_launches.fetch_add(1, std::memory_order_relaxed);
  auto delta = counters.snapshot() - before;
  EXPECT_EQ(delta.checks, 50u);
  EXPECT_EQ(delta.kernel_launches, 1u);
  EXPECT_EQ(delta.h2d_bytes, 0u);

  counters.reset();
  auto zero = counters.snapshot();
  EXPECT_EQ(zero.checks, 0u);
  EXPECT_EQ(zero.h2d_bytes, 0u);
  EXPECT_EQ(zero.kernel_launches, 0u);
}

// -------------------------------------------------------------- report --

TEST(ObsReport, SchemaRoundTrips) {
  obs::RunReport report;
  report.set_instance("kroA200", 200, "EUC_2D");
  report.set_engine("gpu-multi");
  report.set_config("seed", "7");
  report.set_summary("best_length", 29368.0);
  obs::RunReport::DeviceSection& dev = report.add_device("gpu0", "GTX 680");
  dev.counters.push_back({"checks", 19900});
  dev.derived.push_back({"checks_per_sec", 1.99e4});
  report.add_convergence_point({0.5, 30000, 3, 19900, 12});

  obs::Registry registry;
  registry.counter("x").add(1);
  report.set_metrics(registry);

  JsonValue doc = obs::json_parse(report.to_json());
  EXPECT_EQ(doc.at("schema").string, "tspopt.run_report");
  EXPECT_EQ(doc.at("schema_version").number,
            static_cast<double>(obs::kRunReportSchemaVersion));
  // v2: the run header is always present, with the process run id and an
  // RFC 3339 UTC millisecond timestamp.
  EXPECT_EQ(doc.at("run").at("id").string, obs::run_id());
  EXPECT_EQ(doc.at("run").at("generated_utc").string.size(),
            std::string("2026-01-02T03:04:05.678Z").size());
  EXPECT_EQ(doc.at("instance").at("name").string, "kroA200");
  EXPECT_EQ(doc.at("instance").at("n").number, 200.0);
  EXPECT_EQ(doc.at("engine").at("name").string, "gpu-multi");
  EXPECT_EQ(doc.at("config").at("seed").string, "7");
  EXPECT_EQ(doc.at("summary").at("best_length").number, 29368.0);
  const JsonValue& device = doc.at("devices").array.at(0);
  EXPECT_EQ(device.at("label").string, "gpu0");
  EXPECT_EQ(device.at("counters").at("checks").number, 19900.0);
  EXPECT_EQ(device.at("derived").at("checks_per_sec").number, 1.99e4);
  const JsonValue& point = doc.at("convergence").array.at(0);
  EXPECT_EQ(point.at("seconds").number, 0.5);
  EXPECT_EQ(point.at("length").number, 30000.0);
  EXPECT_EQ(doc.at("metrics").array.at(0).at("name").string, "x");
}

TEST(ObsReport, EmptySectionsAreOmitted) {
  obs::RunReport report;
  report.set_summary("only", 1.0);
  JsonValue doc = obs::json_parse(report.to_json());
  EXPECT_NE(doc.find("summary"), nullptr);
  EXPECT_NE(doc.find("run"), nullptr);  // v2: always present
  EXPECT_EQ(doc.find("instance"), nullptr);
  EXPECT_EQ(doc.find("devices"), nullptr);
  EXPECT_EQ(doc.find("convergence"), nullptr);
  EXPECT_EQ(doc.find("timeseries"), nullptr);
  EXPECT_EQ(doc.find("metrics"), nullptr);
}

TEST(ObsReport, RunHeaderCarriesEnvironmentKeys) {
  obs::RunReport report;
  report.set_run("simd", "avx2");
  report.set_run("threads", "8");
  JsonValue doc = obs::json_parse(report.to_json());
  EXPECT_EQ(doc.at("run").at("simd").string, "avx2");
  EXPECT_EQ(doc.at("run").at("threads").string, "8");
}

// --------------------------------------------- end-to-end integration --

// Does `outer` contain `inner` on the same thread track? (How Perfetto
// decides nesting for "X" events.)
bool contains(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return outer.tid == inner.tid && outer.start_ns <= inner.start_ns &&
         outer.start_ns + outer.duration_ns >=
             inner.start_ns + inner.duration_ns;
}

// A fault-injected multi-device ILS run must leave a coherent story in
// BOTH exports: nested device/engine/ILS spans in the trace, and
// retry/quarantine counts, per-device counters, checks/s and the full
// convergence curve in the run report. This is the ISSUE's acceptance
// scenario as a test.
TEST(ObsIntegration, FaultyMultiDeviceIlsProducesTraceAndReport) {
  // The instrumented library publishes to the process-wide tracer and
  // registry; start both from a clean slate. (Clear the registry before
  // any Device is created — Device caches instrument pointers.)
  obs::Registry& registry = obs::Registry::global();
  registry.clear();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(true);

  simt::FaultPlan plan;
  // "flaky" completes its first launch, then fails hard: with the default
  // quarantine_after=3 that is 2 retries, a quarantine, and a re-deal to
  // the survivor.
  plan.inject({"flaky", simt::FaultKind::kLaunchFailure, 1,
               simt::FaultSpec::kForever});
  simt::FaultInjector injector(plan);

  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  for (const char* label : {"good", "flaky"}) {
    owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
    owned.back()->set_label(label);
    owned.back()->set_fault_injector(&injector);
    devices.push_back(owned.back().get());
  }
  MultiDeviceOptions mopts;
  mopts.backoff_initial_ms = 0.0;
  TwoOptMultiDevice engine(devices, 128, mopts);

  Instance inst = generate_clustered("obs300", 300, 4, 21);
  Tour initial = multiple_fragment(inst);
  IlsOptions opts;
  opts.time_limit_seconds = -1.0;
  opts.max_iterations = 3;
  opts.seed = 21;
  IlsResult result = iterated_local_search(engine, inst, initial, opts);
  tracer.enable(false);

  EXPECT_TRUE(engine.health(1).quarantined);
  EXPECT_EQ(engine.health(1).retries, 2u);
  EXPECT_GE(engine.redeals(), 1u);

  // --- the report ---
  obs::RunReport report;
  report.set_instance(inst.name(), inst.n(), "EUC_2D");
  report.set_engine(engine.name());
  report_ils(report, result);
  report_multi_device(report, engine);
  for (const auto& device : owned) {
    describe_device(report, *device, result.wall_seconds);
  }
  report.set_metrics(registry);

  JsonValue doc = obs::json_parse(report.to_json());
  EXPECT_EQ(doc.at("summary").at("device.flaky.quarantined").number, 1.0);
  EXPECT_EQ(doc.at("summary").at("device.flaky.retries").number, 2.0);
  EXPECT_GE(doc.at("summary").at("redeals").number, 1.0);
  EXPECT_GT(doc.at("summary").at("checks_per_sec").number, 0.0);
  // Convergence curve: at least the initial-descent point, iterations
  // stamped with cumulative work.
  const JsonValue& curve = doc.at("convergence");
  ASSERT_GE(curve.array.size(), 1u);
  EXPECT_GT(curve.array[0].at("length").number, 0.0);
  EXPECT_GT(curve.array.back().at("checks").number, 0.0);
  // Per-device sections carry the raw fault counters.
  bool saw_flaky = false;
  for (const JsonValue& device : doc.at("devices").array) {
    if (device.at("label").string != "flaky") continue;
    saw_flaky = true;
    EXPECT_GE(device.at("counters").at("launch_failures").number, 3.0);
    EXPECT_GT(device.at("derived").at("checks_per_sec").number, 0.0);
  }
  EXPECT_TRUE(saw_flaky);
  // The registry snapshot recorded the fault-tolerance events.
  bool saw_retries = false, saw_quarantine = false;
  for (const JsonValue& metric : doc.at("metrics").array) {
    const std::string& name = metric.at("name").string;
    if (name == "multi.retries" &&
        metric.at("labels").at("device").string == "flaky") {
      saw_retries = true;
      EXPECT_EQ(metric.at("value").number, 2.0);
    }
    if (name == "multi.quarantines" &&
        metric.at("labels").at("device").string == "flaky") {
      saw_quarantine = true;
      EXPECT_EQ(metric.at("value").number, 1.0);
    }
  }
  EXPECT_TRUE(saw_retries);
  EXPECT_TRUE(saw_quarantine);

  // --- the trace ---
  std::vector<obs::TraceEvent> events = tracer.events();
  auto find_all = [&events](const char* name) {
    std::vector<const obs::TraceEvent*> found;
    for (const obs::TraceEvent& e : events) {
      if (std::string_view(e.name) == name) found.push_back(&e);
    }
    return found;
  };
  auto any_nested = [](const std::vector<const obs::TraceEvent*>& outers,
                       const std::vector<const obs::TraceEvent*>& inners) {
    for (const obs::TraceEvent* o : outers) {
      for (const obs::TraceEvent* i : inners) {
        if (o != i && contains(*o, *i)) return true;
      }
    }
    return false;
  };

  EXPECT_FALSE(find_all("ils.initial_descent").empty());
  EXPECT_EQ(find_all("ils.iteration").size(), 3u);
  EXPECT_FALSE(find_all("multi.quarantine").empty());  // instant
  EXPECT_FALSE(find_all("multi.retry").empty());       // instant
  EXPECT_FALSE(find_all("simt.fault").empty());        // instant
  // Nesting, as Perfetto renders it: launches inside partition attempts,
  // local-search passes inside ILS iterations, engine passes inside
  // local-search passes.
  EXPECT_TRUE(any_nested(find_all("multi.partition"), find_all("simt.launch")));
  EXPECT_TRUE(any_nested(find_all("ils.iteration"), find_all("ls.pass")));
  EXPECT_TRUE(any_nested(find_all("ls.pass"), find_all("engine.pass")));
  // A solo run is a population of one: its passes carry the batch size,
  // the same span family a batched population emits.
  for (const obs::TraceEvent* pass : find_all("ls.pass")) {
    EXPECT_TRUE(std::any_of(pass->args.begin(), pass->args.end(),
                            [](const auto& arg) {
                              return std::string_view(arg.first) ==
                                         "batch_size" &&
                                     arg.second == "1";
                            }));
  }
  EXPECT_TRUE(any_nested(find_all("engine.pass"), find_all("simt.h2d")));

  // The whole buffer exports as loadable Chrome trace JSON.
  JsonValue trace_doc = obs::json_parse(tracer.chrome_trace_json());
  EXPECT_EQ(trace_doc.at("traceEvents").array.size(), events.size());

  // The per-device launch-latency histograms recorded every completed
  // launch.
  bool saw_latency = false;
  for (const obs::Registry::Entry& entry : registry.entries()) {
    if (entry.name != "simt.launch_us") continue;
    saw_latency = true;
    EXPECT_EQ(entry.kind, obs::Registry::Kind::kHistogram);
    EXPECT_GT(entry.h->count(), 0u);
  }
  EXPECT_TRUE(saw_latency);

  tracer.clear();
}

TEST(ObsIntegration, LiveTelemetryCrossCorrelatesByRunId) {
  // The acceptance scenario, in-process: a fault-injected multi-device
  // ILS run with the JSONL log, the time-series sampler and the
  // Prometheus exposition /metrics serves all live at once — every
  // artifact must carry the same run id, the log must record the
  // fault-tolerance decisions with span correlation, and the report's
  // timeseries section must show monotone counter growth.
  obs::Registry& registry = obs::Registry::global();
  registry.clear();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(true);  // spans must be live for span-id stamping

  std::string log_path = testing::TempDir() + "/tspopt_obs_accept.jsonl";
  std::remove(log_path.c_str());
  obs::Log::Options log_options;
  log_options.level = obs::LogLevel::kDebug;
  log_options.path = log_path;
  obs::Log::global().configure(log_options);

  obs::SamplerOptions sampler_options;
  sampler_options.period_ms = 2.0;  // live sampling during the solve
  obs::Sampler sampler(registry, sampler_options);

  simt::FaultPlan plan;
  plan.inject({"flaky", simt::FaultKind::kLaunchFailure, 1,
               simt::FaultSpec::kForever});
  simt::FaultInjector injector(plan);
  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  for (const char* label : {"good", "flaky"}) {
    owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
    owned.back()->set_label(label);
    owned.back()->set_fault_injector(&injector);
    devices.push_back(owned.back().get());
  }
  MultiDeviceOptions mopts;
  mopts.backoff_initial_ms = 0.0;
  TwoOptMultiDevice engine(devices, 128, mopts);
  Instance inst = generate_clustered("obs300", 300, 4, 21);
  Tour initial = multiple_fragment(inst);
  IlsOptions opts;
  opts.time_limit_seconds = -1.0;
  opts.max_iterations = 3;
  opts.seed = 21;
  IlsResult result = iterated_local_search(engine, inst, initial, opts);
  tracer.enable(false);

  sampler.stop();
  sampler.sample_now();  // final snapshot of the finished counters
  std::string prom = obs::prometheus_text(registry);
  obs::Log::global().flush();
  obs::Log::global().configure(obs::Log::Options{});  // back to off/stderr

  // --- the log: every line parses, carries the run id, and the
  // fault-tolerance story is machine-readable ---
  std::ifstream log_in(log_path, std::ios::binary);
  ASSERT_TRUE(log_in.good());
  std::string line;
  std::size_t log_lines = 0;
  bool saw_retry = false, saw_quarantine = false, saw_fault = false;
  bool saw_finish = false, saw_span = false;
  while (std::getline(log_in, line)) {
    if (line.empty()) continue;
    ++log_lines;
    JsonValue doc = obs::json_parse(line);
    EXPECT_EQ(doc.at("run").string, obs::run_id()) << line;
    const std::string& event = doc.at("event").string;
    if (event == "multi.retry") {
      saw_retry = true;
      EXPECT_EQ(doc.at("device").string, "flaky");
    }
    if (event == "multi.quarantine") saw_quarantine = true;
    if (event == "simt.fault") saw_fault = true;
    if (event == "ils.finish") {
      saw_finish = true;
      EXPECT_EQ(doc.at("iterations").number, 3.0);
    }
    if (doc.find("span") != nullptr) {
      saw_span = true;
      EXPECT_GT(doc.at("span").number, 0.0);
    }
  }
  EXPECT_GE(log_lines, 4u);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_finish);
  // Faults are injected inside launch spans, so at least one event line
  // correlates to an enclosing trace span.
  EXPECT_TRUE(saw_span);

  // --- the exposition: same run id, same counters ---
  EXPECT_NE(prom.find("tspopt_run_info{id=\"" + obs::run_id() + "\""),
            std::string::npos);
  EXPECT_NE(prom.find("tspopt_multi_retries{device=\"flaky\"} 2"),
            std::string::npos);

  // --- the report: v2 run header + timeseries with monotone counters ---
  obs::RunReport report;
  report.set_instance(inst.name(), inst.n(), "EUC_2D");
  report.set_engine(engine.name());
  report_ils(report, result);
  report.set_metrics(registry);
  report.set_timeseries(sampler);
  JsonValue doc = obs::json_parse(report.to_json());
  EXPECT_EQ(doc.at("run").at("id").string, obs::run_id());
  const JsonValue& ts = doc.at("timeseries");
  EXPECT_GE(ts.at("samples_taken").number, 2.0);
  bool saw_monotone_counter = false;
  for (const JsonValue& series : ts.at("series").array) {
    if (series.at("kind").string != "counter") continue;
    const JsonValue& points = series.at("points");
    double prev = -1.0;
    for (const JsonValue& p : points.array) {
      EXPECT_GE(p.at("v").number, prev) << series.at("name").string;
      prev = p.at("v").number;
    }
    if (points.array.size() >= 2) saw_monotone_counter = true;
  }
  EXPECT_TRUE(saw_monotone_counter);

  tracer.clear();
  std::remove(log_path.c_str());
}

// The one listener setup behind tspoptd and the admin plane: it binds an
// ephemeral port, names the address in its error text with the caller's
// wording, and closes the socket when a step after socket() fails.
TEST(ListenTcp, BindsEphemeralPortAndClosesTheSocketOnFailure) {
  auto open_fds = [] {
    std::size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      (void)entry;
      ++count;
    }
    return count;
  };
  const std::size_t before = open_fds();

  obs::ListenSocket listener =
      obs::listen_tcp("127.0.0.1", 0, 4, "listen address");
  ASSERT_GE(listener.fd, 0);
  EXPECT_NE(listener.port, 0);

  for (const char* what : {"listen address", "admin listen address"}) {
    try {
      obs::listen_tcp("not-an-ip", 0, 4, what);
      ADD_FAILURE() << "no CheckError for " << what;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("invalid ") + what +
                                           " \"not-an-ip\""),
                std::string::npos)
          << e.what();
    }
  }
  // The port is taken while `listener` listens on it.
  try {
    obs::listen_tcp("127.0.0.1", listener.port, 4, "listen address");
    ADD_FAILURE() << "second bind of port " << listener.port << " succeeded";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "bind(127.0.0.1:" + std::to_string(listener.port) +
                  ") failed: "),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(open_fds(), before + 1);
  ::close(listener.fd);
  EXPECT_EQ(open_fds(), before);
}

}  // namespace
}  // namespace tspopt
