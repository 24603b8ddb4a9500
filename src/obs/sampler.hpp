// Time-series sampler: periodic registry snapshots on a background thread.
//
// Point-in-time counters answer "how much work happened"; the paper's
// headline results (Fig. 9-11) are throughput *curves*, which need the
// when. The Sampler runs a background std::jthread that snapshots a
// metrics Registry every `period_ms` into a bounded ring of timestamped
// samples, turning every counter into a monotone time series (and every
// histogram into count/sum/percentile series) at negligible cost to the
// solve: one registry walk per period, zero work on the hot paths.
//
// The retained window has one reader: the run report's "timeseries"
// section (RunReport::set_timeseries). When the ring is full the oldest
// sample is evicted — a long run keeps the most recent
// `capacity * period` of history, and `total_samples()` still counts
// everything taken.
//
// The global-from-env sampler reads TSPOPT_SAMPLE_MS at first use: a
// positive value starts a sampler over Registry::global() with that
// period. A binary that starts it stops it and takes a final sample
// before it hands the window to its report.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace tspopt::obs {

class JsonWriter;

struct SamplerOptions {
  double period_ms = 100.0;
  std::size_t capacity = 600;  // retained samples (ring bound)
  // Percentile series derived from each histogram at sample time.
  std::vector<double> quantiles = {0.5, 0.99};
};

class Sampler {
 public:
  // Starts sampling immediately (the first sample is taken synchronously,
  // so even an instantly-stopped sampler has a t~0 baseline).
  explicit Sampler(Registry& registry, SamplerOptions options = {});
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Stop and join the background thread. Idempotent; the retained window
  // stays readable after stopping.
  void stop();
  bool running() const { return thread_.joinable(); }

  // Take one snapshot now (also what the background thread calls).
  void sample_now();

  const SamplerOptions& options() const { return options_; }
  std::size_t sample_count() const;     // retained in the ring
  std::uint64_t total_samples() const;  // taken, including evicted
  std::uint64_t evicted() const;

  struct SeriesPoint {
    double seconds = 0.0;  // since sampler construction
    double value = 0.0;
  };
  // The retained points of one series. `field` is "value" for counters and
  // gauges; histograms expose "count", "sum" and one "p<percent>" field
  // per configured quantile (e.g. "p50", "p99"). Empty when the instrument
  // never appeared.
  std::vector<SeriesPoint> series(std::string_view name,
                                  const LabelSet& labels = {},
                                  std::string_view field = "value") const;

  // The "timeseries" report section:
  //   { "period_ms": P, "samples_taken": N, "samples_retained": R,
  //     "samples_evicted": E,
  //     "series": [ { "name", "labels", "kind", "field",
  //                   "points": [ {"t": seconds, "v": value}, ... ] } ] }
  void write_json(JsonWriter& w) const;

  // TSPOPT_SAMPLE_MS-driven sampler over Registry::global(); nullptr when
  // the variable is unset or not a positive number. The instance is
  // created (and leaked) on first call.
  static Sampler* global_from_env();

 private:
  struct Series {
    std::string name;
    LabelSet labels;
    Registry::Kind kind;
    std::string field;
  };
  struct Sample {
    double seconds = 0.0;
    // Indexed by series ordinal; series discovered after this sample was
    // taken simply have no entry (values_.size() <= ordinal).
    std::vector<double> values;
  };

  std::size_t series_ordinal(const Registry::Entry& entry,
                             std::string_view field);

  Registry& registry_;
  SamplerOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::map<std::string, std::size_t> series_index_;
  std::deque<Sample> samples_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t evicted_ = 0;

  std::jthread thread_;  // last member: destroyed (joined) first
};

}  // namespace tspopt::obs
