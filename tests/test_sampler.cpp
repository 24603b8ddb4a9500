// The time-series sampler: ring bounds and eviction accounting, monotone
// counter series, histogram-derived fields, the "timeseries" JSON section
// (round-tripped through the parser), and clean jthread shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"

namespace tspopt {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::Registry;
using obs::Sampler;
using obs::SamplerOptions;

// A sampler whose background thread effectively never fires, so tests
// drive sampling deterministically via sample_now().
SamplerOptions manual_options(std::size_t capacity = 600) {
  SamplerOptions options;
  options.period_ms = 1e9;
  options.capacity = capacity;
  return options;
}

TEST(ObsSampler, TakesBaselineSampleSynchronously) {
  Registry registry;
  registry.counter("work").add(3);
  Sampler sampler(registry, manual_options());
  // Even an instantly-stopped sampler has the t~0 baseline.
  sampler.stop();
  EXPECT_EQ(sampler.sample_count(), 1u);
  EXPECT_EQ(sampler.total_samples(), 1u);
  std::vector<Sampler::SeriesPoint> points = sampler.series("work");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].value, 3.0);
}

TEST(ObsSampler, CounterSeriesIsMonotoneAndMatchesFinalValue) {
  Registry registry;
  obs::Counter& counter = registry.counter("iterations");
  Sampler sampler(registry, manual_options());
  sampler.stop();
  for (int i = 0; i < 5; ++i) {
    counter.add(7);
    sampler.sample_now();
  }
  std::vector<Sampler::SeriesPoint> points = sampler.series("iterations");
  ASSERT_EQ(points.size(), 6u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].seconds, points[i - 1].seconds);
    EXPECT_GE(points[i].value, points[i - 1].value);
  }
  EXPECT_EQ(points.back().value, 35.0);
  EXPECT_EQ(points.back().value, static_cast<double>(counter.value()));
}

TEST(ObsSampler, RingEvictsOldestAndCountsEverything) {
  Registry registry;
  obs::Counter& counter = registry.counter("ticks");
  Sampler sampler(registry, manual_options(/*capacity=*/4));
  sampler.stop();
  for (int i = 0; i < 9; ++i) {
    counter.add(1);
    sampler.sample_now();
  }
  // 1 baseline + 9 manual = 10 taken; the ring keeps the newest 4.
  EXPECT_EQ(sampler.total_samples(), 10u);
  EXPECT_EQ(sampler.sample_count(), 4u);
  EXPECT_EQ(sampler.evicted(), 6u);
  std::vector<Sampler::SeriesPoint> points = sampler.series("ticks");
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().value, 6.0);  // oldest retained sample
  EXPECT_EQ(points.back().value, 9.0);
}

TEST(ObsSampler, CapacityBelowTwoIsRejected) {
  Registry registry;
  SamplerOptions options = manual_options(/*capacity=*/1);
  EXPECT_THROW(Sampler(registry, options), CheckError);
}

TEST(ObsSampler, LabelsDistinguishSeries) {
  Registry registry;
  registry.counter("launches", {{"device", "a"}}).add(2);
  registry.counter("launches", {{"device", "b"}}).add(5);
  Sampler sampler(registry, manual_options());
  sampler.stop();
  std::vector<Sampler::SeriesPoint> a =
      sampler.series("launches", {{"device", "a"}});
  std::vector<Sampler::SeriesPoint> b =
      sampler.series("launches", {{"device", "b"}});
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].value, 2.0);
  EXPECT_EQ(b[0].value, 5.0);
  // An instrument that never existed yields an empty series.
  EXPECT_TRUE(sampler.series("launches", {{"device", "z"}}).empty());
}

TEST(ObsSampler, HistogramsExposeCountSumAndQuantileFields) {
  Registry registry;
  obs::Histogram& h =
      registry.histogram("latency", {1.0, 2.0, 4.0, 8.0});
  Sampler sampler(registry, manual_options());
  sampler.stop();
  for (int i = 0; i < 100; ++i) h.observe(0.08 * i);
  sampler.sample_now();
  std::vector<Sampler::SeriesPoint> count =
      sampler.series("latency", {}, "count");
  std::vector<Sampler::SeriesPoint> sum =
      sampler.series("latency", {}, "sum");
  std::vector<Sampler::SeriesPoint> p50 =
      sampler.series("latency", {}, "p50");
  std::vector<Sampler::SeriesPoint> p99 =
      sampler.series("latency", {}, "p99");
  ASSERT_FALSE(count.empty());
  EXPECT_EQ(count.back().value, 100.0);
  EXPECT_NEAR(sum.back().value, h.sum(), 1e-9);
  ASSERT_FALSE(p50.empty());
  EXPECT_NEAR(p50.back().value, h.quantile(0.5), 1e-9);
  ASSERT_FALSE(p99.empty());
  EXPECT_NEAR(p99.back().value, h.quantile(0.99), 1e-9);
}

TEST(ObsSampler, SeriesRegisteredLateHaveShorterHistories) {
  Registry registry;
  registry.counter("early").add(1);
  Sampler sampler(registry, manual_options());
  sampler.stop();
  sampler.sample_now();
  registry.counter("late").add(1);  // appears after two samples exist
  sampler.sample_now();
  EXPECT_EQ(sampler.series("early").size(), 3u);
  EXPECT_EQ(sampler.series("late").size(), 1u);
}

TEST(ObsSampler, BackgroundThreadSamplesAndStopsCleanly) {
  Registry registry;
  registry.counter("bg").add(1);
  SamplerOptions options;
  options.period_ms = 5.0;
  Sampler sampler(registry, options);
  EXPECT_TRUE(sampler.running());
  // Wait (bounded) for the background thread to take at least two more
  // samples beyond the synchronous baseline.
  for (int i = 0; i < 400 && sampler.total_samples() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(sampler.total_samples(), 3u);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  std::uint64_t frozen = sampler.total_samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.total_samples(), frozen);  // really stopped
  sampler.stop();                              // idempotent
}

TEST(ObsSampler, WriteJsonRoundTripsTheTimeseriesSection) {
  Registry registry;
  obs::Counter& counter = registry.counter("moves", {{"engine", "cpu"}});
  Sampler sampler(registry, manual_options(/*capacity=*/3));
  sampler.stop();
  for (int i = 0; i < 4; ++i) {
    counter.add(10);
    sampler.sample_now();
  }
  JsonWriter w;
  sampler.write_json(w);
  JsonValue doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("period_ms").number, 1e9);
  EXPECT_EQ(doc.at("samples_taken").number, 5.0);
  EXPECT_EQ(doc.at("samples_retained").number, 3.0);
  EXPECT_EQ(doc.at("samples_evicted").number, 2.0);
  const JsonValue& series = doc.at("series");
  ASSERT_TRUE(series.is_array());
  ASSERT_EQ(series.array.size(), 1u);
  const JsonValue& moves = series.array[0];
  EXPECT_EQ(moves.at("name").string, "moves");
  EXPECT_EQ(moves.at("kind").string, "counter");
  EXPECT_EQ(moves.at("field").string, "value");
  EXPECT_EQ(moves.at("labels").at("engine").string, "cpu");
  const JsonValue& points = moves.at("points");
  ASSERT_EQ(points.array.size(), 3u);
  double prev_t = -1.0;
  for (const JsonValue& p : points.array) {
    EXPECT_GE(p.at("t").number, prev_t);
    prev_t = p.at("t").number;
  }
  EXPECT_EQ(points.array.back().at("v").number, 40.0);
}

}  // namespace
}  // namespace tspopt
