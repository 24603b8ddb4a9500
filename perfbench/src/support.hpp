// Shared plumbing for the benchmark: arguments, the metric sheet a run
// fills in, summary statistics, tour verification and the run
// fingerprint. Nothing here calls into the solve service or the solver.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tsp/instance.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch space for journals and the span export
};

// What one workload run produced. `end_to_end` must name every metric in
// kEndToEnd; `per_layer` may leave out the metrics a workload does not
// exercise (they print as 0).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed job or check
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> notes;  // extra "key: value" lines for stdout

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> xs);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

// A latency tail at a percentile each workload fixes, so the figure means
// the same thing in every run; `beyond` counts the samples above it (the
// workloads size their runs so that it stays at ten or more).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // e.g. 90 for p90
  std::size_t samples = 0;
  std::size_t beyond = 0;

  std::string describe() const;  // "p90 of 212 (21 beyond)"
};
Tail tail(const std::vector<double>& xs, double percentile);

// Empty when `order` is a permutation of 0..n-1 whose tour length equals
// `best_length`; otherwise a one-line reason.
std::string verify_tour(const tspopt::Instance& instance,
                        const std::vector<std::int32_t>& order,
                        std::int64_t best_length);

double peak_rss_mb();                         // VmHWM of this process
std::string filesystem_type(const std::string& path);  // statfs f_type name

// "key: value" lines identifying the machine and build a run came from.
std::vector<std::string> fingerprint();

void remove_dir(const std::string& path);

}  // namespace perfbench
