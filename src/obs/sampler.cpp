#include "obs/sampler.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace tspopt::obs {

namespace {

// Same serialized (name, labels, field) identity rule as the registry's
// instrument key, so a relabeled instrument is a distinct series.
std::string series_key(std::string_view name, const LabelSet& labels,
                       std::string_view field) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  key += '\x1d';
  key += field;
  return key;
}

std::string quantile_field(double q) {
  // 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9".
  char buf[16];
  double percent = q * 100.0;
  if (percent == static_cast<double>(static_cast<int>(percent))) {
    std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(percent));
  } else {
    std::snprintf(buf, sizeof(buf), "p%g", percent);
  }
  return buf;
}

const char* kind_name(Registry::Kind kind) {
  switch (kind) {
    case Registry::Kind::kCounter: return "counter";
    case Registry::Kind::kGauge: return "gauge";
    case Registry::Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

Sampler::Sampler(Registry& registry, SamplerOptions options)
    : registry_(registry), options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  TSPOPT_CHECK_MSG(options_.period_ms > 0.0,
                   "sampler period must be positive");
  TSPOPT_CHECK_MSG(options_.capacity >= 2,
                   "sampler ring needs room for at least two samples");
  sample_now();  // t~0 baseline before the thread's first period elapses
  thread_ = std::jthread([this](std::stop_token st) {
    std::mutex wait_mu;
    std::condition_variable_any cv;
    auto period = std::chrono::duration<double, std::milli>(
        options_.period_ms);
    std::unique_lock<std::mutex> lock(wait_mu);
    while (!st.stop_requested()) {
      // Interruptible sleep: stop_requested() wakes the wait immediately,
      // so shutdown never has to ride out a full period.
      cv.wait_for(lock, st, period, [] { return false; });
      if (st.stop_requested()) break;
      sample_now();
    }
  });
}

Sampler::~Sampler() { stop(); }

void Sampler::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    thread_.join();
  }
}

std::size_t Sampler::series_ordinal(const Registry::Entry& entry,
                                    std::string_view field) {
  std::string key = series_key(entry.name, entry.labels, field);
  auto it = series_index_.find(key);
  if (it != series_index_.end()) return it->second;
  std::size_t ordinal = series_.size();
  series_.push_back({entry.name, entry.labels, entry.kind,
                     std::string(field)});
  series_index_.emplace(std::move(key), ordinal);
  return ordinal;
}

void Sampler::sample_now() {
  std::vector<Registry::Entry> entries = registry_.entries();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - epoch_)
                       .count();
  std::lock_guard<std::mutex> lock(mu_);
  Sample sample;
  sample.seconds = seconds;
  auto record = [&](std::size_t ordinal, double value) {
    if (sample.values.size() <= ordinal) {
      sample.values.resize(ordinal + 1,
                           std::numeric_limits<double>::quiet_NaN());
    }
    sample.values[ordinal] = value;
  };
  for (const Registry::Entry& e : entries) {
    switch (e.kind) {
      case Registry::Kind::kCounter:
        record(series_ordinal(e, "value"),
               static_cast<double>(e.c->value()));
        break;
      case Registry::Kind::kGauge:
        record(series_ordinal(e, "value"), e.g->value());
        break;
      case Registry::Kind::kHistogram:
        record(series_ordinal(e, "count"),
               static_cast<double>(e.h->count()));
        record(series_ordinal(e, "sum"), e.h->sum());
        for (double q : options_.quantiles) {
          record(series_ordinal(e, quantile_field(q)), e.h->quantile(q));
        }
        break;
    }
  }
  samples_.push_back(std::move(sample));
  ++total_samples_;
  while (samples_.size() > options_.capacity) {
    samples_.pop_front();
    ++evicted_;
  }
}

std::size_t Sampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

std::uint64_t Sampler::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

std::uint64_t Sampler::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::vector<Sampler::SeriesPoint> Sampler::series(
    std::string_view name, const LabelSet& labels,
    std::string_view field) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = series_key(name, sorted, field);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_index_.find(key);
  if (it == series_index_.end()) return {};
  std::size_t ordinal = it->second;
  std::vector<SeriesPoint> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    if (s.values.size() <= ordinal) continue;
    double v = s.values[ordinal];
    if (v != v) continue;  // NaN: series absent at this sample
    out.push_back({s.seconds, v});
  }
  return out;
}

void Sampler::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("period_ms").value(options_.period_ms);
  w.key("samples_taken").value(total_samples_);
  w.key("samples_retained").value(
      static_cast<std::uint64_t>(samples_.size()));
  w.key("samples_evicted").value(evicted_);
  w.key("series").begin_array();
  for (std::size_t ordinal = 0; ordinal < series_.size(); ++ordinal) {
    const Series& series = series_[ordinal];
    w.begin_object();
    w.key("name").value(series.name);
    w.key("labels").begin_object();
    for (const auto& [k, v] : series.labels) w.key(k).value(v);
    w.end_object();
    w.key("kind").value(kind_name(series.kind));
    w.key("field").value(series.field);
    w.key("points").begin_array();
    for (const Sample& s : samples_) {
      if (s.values.size() <= ordinal) continue;
      double v = s.values[ordinal];
      if (v != v) continue;
      w.begin_object();
      w.key("t").value(s.seconds);
      w.key("v").value(v);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

Sampler* Sampler::global_from_env() {
  static Sampler* sampler = []() -> Sampler* {
    const char* ms = std::getenv("TSPOPT_SAMPLE_MS");
    if (ms == nullptr || *ms == '\0') return nullptr;
    char* end = nullptr;
    double period = std::strtod(ms, &end);
    if (end == nullptr || *end != '\0' || !(period > 0.0)) {
      std::fprintf(stderr,
                   "TSPOPT_SAMPLE_MS: \"%s\" is not a positive number; "
                   "sampling disabled\n",
                   ms);
      return nullptr;
    }
    SamplerOptions options;
    options.period_ms = period;
    // Leaked on purpose, like the registry it samples: its thread never
    // races static destruction.
    return new Sampler(Registry::global(), options);
  }();
  return sampler;
}

}  // namespace tspopt::obs
