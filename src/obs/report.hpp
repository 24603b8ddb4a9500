// Machine-readable run reports.
//
// A RunReport serializes one whole run — instance metadata, engine/device
// configuration, metrics snapshot, per-device counters with derived
// series, and the ILS convergence curve — to a stable, versioned JSON
// schema. The report layer is deliberately generic (strings and numbers
// only): the simt/solver adapters in solver/obs_adapters.hpp populate it,
// which keeps obs below every other layer in the dependency order.
//
// This comment is the schema's one field map; README and DESIGN point
// here. Schema v4, top level (sections appear only when populated; "run"
// is always present):
//   { "schema": "tspopt.run_report", "schema_version": 4,
//     "run": {"id", "generated_utc", "<key>": "<value>", ...},
//     "instance": {"name", "n", "metric"},
//     "engine": {"name"},
//     "config": { "<key>": "<value>", ... },
//     "summary": { "<key>": <number>, ... },
//     "devices": [ {"label", "spec", "counters": {...},
//                   "derived": {...}} ],
//     "convergence": [ {"seconds","length","iteration","checks","passes"} ],
//     "population": [ {"member", "best_length", "iterations",
//                      "improvements", "checks", "wall_seconds",
//                      "stopped", "convergence": [ <as above> ]} ],
//     "timeseries": { <Sampler::write_json section> },
//     "metrics": [ <registry instrument objects> ],
//     "profile": { "hz", "samples", "dropped", "attributed",
//                  "attribution": [ {"span", "samples", "leaf_samples",
//                                    "share"} ] } }
//
// v2 over v1: the "run" header (process run id for cross-correlation with
// the JSONL log and tspoptd's /metrics, RFC 3339 UTC generation time,
// free-form environment key/values) and the optional "timeseries" section
// carrying the Sampler's retained window.
//
// v3 over v2: the optional "profile" section — the sampling profiler's
// per-span time-attribution table (obs/profiler.hpp), which is the
// machine-readable form of the paper's timing-decomposition figures:
// `share` is the fraction of CPU samples whose span stack contains that
// phase, `leaf_samples` the samples where it is the innermost phase.
//
// v4 over v3: the optional "population" section — one entry per
// PopulationIls member, carrying the per-tour convergence curves of a
// batched multi-start run; the top-level "convergence" section stays the
// best member's curve so single-run consumers keep working unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tspopt::obs {

class Profiler;
class Registry;
class Sampler;

inline constexpr int kRunReportSchemaVersion = 4;

class RunReport {
 public:
  // Extra key/values for the "run" header section (e.g. simd level, thread
  // count, git describe, cpu model). The id and generation timestamp are
  // stamped automatically at serialization time.
  void set_run(std::string key, std::string value);

  void set_instance(std::string name, std::int64_t n, std::string metric);
  void set_engine(std::string name);

  // Free-form configuration key/values (engine options, env knobs).
  void set_config(std::string key, std::string value);

  // Numeric result summary (iterations, best length, wall seconds, ...).
  void set_summary(std::string key, double value);

  // One device's worth of counters and derived series. `counters` holds
  // the raw monotonic counts; `derived` holds rates/ratios computed by the
  // caller (checks/s, effective bandwidths).
  struct DeviceSection {
    std::string label;
    std::string spec;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> derived;
  };
  DeviceSection& add_device(std::string label, std::string spec);

  struct ConvergencePoint {
    double seconds = 0.0;
    std::int64_t length = 0;
    std::int64_t iteration = 0;
    std::uint64_t checks = 0;
    std::int64_t passes = 0;
  };
  void add_convergence_point(const ConvergencePoint& point);

  // One PopulationIls member's outcome and per-tour convergence curve
  // (schema v4's "population" section). Fill `convergence` on the
  // returned reference.
  struct PopulationMemberSection {
    std::int32_t member = 0;
    std::int64_t best_length = 0;
    std::int64_t iterations = 0;
    std::int64_t improvements = 0;
    std::uint64_t checks = 0;
    double wall_seconds = 0.0;
    bool stopped = false;
    std::vector<ConvergencePoint> convergence;
  };
  PopulationMemberSection& add_population_member(std::int32_t member);

  // Attach a snapshot of `registry` (defaults used by callers: the global
  // registry) as the "metrics" section.
  void set_metrics(const Registry& registry);

  // Attach the sampler's retained window as the "timeseries" section.
  void set_timeseries(const Sampler& sampler);

  // Attach the sampling profiler's attribution table as the "profile"
  // section (schema v3). Call after Profiler::stop() so the final drain
  // is included.
  void set_profile(const Profiler& profiler);

  std::string to_json() const;
  void write(const std::string& path) const;

  // TSPOPT_REPORT env var, or "" when unset.
  static std::string path_from_env();
  // Write to TSPOPT_REPORT when it is set; returns the path written, or
  // "" when reporting is not requested.
  std::string write_if_requested() const;

 private:
  std::vector<std::pair<std::string, std::string>> run_;
  bool has_instance_ = false;
  std::string instance_name_;
  std::int64_t instance_n_ = 0;
  std::string instance_metric_;
  std::string engine_name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> summary_;
  std::vector<DeviceSection> devices_;
  std::vector<ConvergencePoint> convergence_;
  std::vector<PopulationMemberSection> population_;
  bool has_timeseries_ = false;
  std::string timeseries_json_;  // pre-rendered sampler window
  bool has_metrics_ = false;
  std::string metrics_json_;  // pre-rendered registry snapshot
  bool has_profile_ = false;
  std::string profile_json_;  // pre-rendered profiler attribution
};

}  // namespace tspopt::obs
