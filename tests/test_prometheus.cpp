// The Prometheus text exposition: golden output for a known registry,
// name sanitization, label escaping per the spec, cumulative le-buckets
// with +Inf / _sum / _count / _overflow, and the run-info correlation
// series.
#include <gtest/gtest.h>

#include <string>

#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/runinfo.hpp"

namespace tspopt {
namespace {

using obs::Registry;

TEST(ObsPrometheus, GoldenExpositionForAKnownRegistry) {
  Registry registry;
  registry.counter("multi.retries", {{"device", "gpu0"}}).add(3);
  registry.gauge("best.length").set(1234.5);
  obs::Histogram& h = registry.histogram("launch.ms", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.0);  // boundary: lands in the le="1" bucket
  h.observe(1.5);
  h.observe(9.0);  // overflow

  std::string expected;
  expected += "# TYPE tspopt_run_info gauge\n";
  expected += "tspopt_run_info{id=\"" + obs::run_id() + "\",git=\"" +
              obs::git_describe() + "\"} 1\n";
  expected += "# TYPE tspopt_best_length gauge\n";
  expected += "tspopt_best_length 1234.5\n";
  expected += "# TYPE tspopt_launch_ms histogram\n";
  expected += "tspopt_launch_ms_bucket{le=\"1\"} 2\n";
  expected += "tspopt_launch_ms_bucket{le=\"2\"} 3\n";
  expected += "tspopt_launch_ms_bucket{le=\"+Inf\"} 4\n";
  expected += "tspopt_launch_ms_sum 12\n";
  expected += "tspopt_launch_ms_count 4\n";
  expected += "tspopt_launch_ms_overflow 1\n";
  expected += "# TYPE tspopt_multi_retries counter\n";
  expected += "tspopt_multi_retries{device=\"gpu0\"} 3\n";
  EXPECT_EQ(obs::prometheus_text(registry), expected);
}

TEST(ObsPrometheus, RunInfoLeadsAndCorrelatesTheScrape) {
  Registry registry;
  std::string text = obs::prometheus_text(registry);
  // Even an empty registry exposes the run-correlation series, first.
  EXPECT_EQ(text.rfind("# TYPE tspopt_run_info gauge\n", 0), 0u);
  EXPECT_NE(text.find("id=\"" + obs::run_id() + "\""), std::string::npos);
  EXPECT_NE(text.find("git=\""), std::string::npos);
}

TEST(ObsPrometheus, NamesAreSanitizedToTheMetricAlphabet) {
  Registry registry;
  registry.counter("ils.moves-applied", {{"engine.kind", "cpu"}}).add(1);
  std::string text = obs::prometheus_text(registry);
  EXPECT_NE(text.find("tspopt_ils_moves_applied{engine_kind=\"cpu\"} 1"),
            std::string::npos);
}

TEST(ObsPrometheus, LabelValuesEscapeBackslashQuoteAndNewline) {
  Registry registry;
  registry.counter("events", {{"what", "a\\b\"c\nd"}}).add(2);
  std::string text = obs::prometheus_text(registry);
  EXPECT_NE(text.find("tspopt_events{what=\"a\\\\b\\\"c\\nd\"} 2"),
            std::string::npos)
      << text;
  // The exposition itself stays one-sample-per-line: the raw newline in
  // the label value must not have split the line.
  for (std::size_t pos = 0, line_start = 0; pos < text.size(); ++pos) {
    if (text[pos] != '\n') continue;
    std::string line = text.substr(line_start, pos - line_start);
    EXPECT_FALSE(!line.empty() && line.back() == '\\') << line;
    line_start = pos + 1;
  }
}

TEST(ObsPrometheus, HistogramBucketsAreCumulative) {
  Registry registry;
  obs::Histogram& h = registry.histogram("d", {10.0, 20.0, 30.0});
  for (int i = 0; i < 6; ++i) h.observe(5.0);    // le=10
  for (int i = 0; i < 3; ++i) h.observe(15.0);   // le=20
  h.observe(25.0);                               // le=30
  std::string text = obs::prometheus_text(registry);
  EXPECT_NE(text.find("tspopt_d_bucket{le=\"10\"} 6"), std::string::npos);
  EXPECT_NE(text.find("tspopt_d_bucket{le=\"20\"} 9"), std::string::npos);
  EXPECT_NE(text.find("tspopt_d_bucket{le=\"30\"} 10"), std::string::npos);
  EXPECT_NE(text.find("tspopt_d_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("tspopt_d_overflow 0"), std::string::npos);
}

}  // namespace
}  // namespace tspopt
