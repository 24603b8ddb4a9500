#include "support.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/runinfo.hpp"
#include "solver/simd.hpp"
#include "tsp/tour.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"job_latency_p50_ms", "ms"}, {"job_latency_tail_ms", "ms"},
    {"jobs_per_s", "1/s"},        {"time_to_target_s", "s"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.admit_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_tail", "ms"},
    {"serve.lease_ms_p50", "ms"},
    {"serve.run_ms_p50.pruned10k", "ms"},
    {"serve.run_ms_p50.full1k", "ms"},
    {"serve.run_ms_p50.burst", "ms"},
    {"serve.settle_ms_p50", "ms"},
    {"serve.fetch_ms_p50", "ms"},
    {"serve.result_bytes", "bytes"},
    {"serve.unattributed_ms_p50", "ms"},
    {"serve.polls_per_job", "count"},
    {"class.pruned10k.latency_p50_ms", "ms"},
    {"class.full1k.latency_p50_ms", "ms"},
    {"journal.appends_per_job", "count"},
    {"journal.bytes_per_job", "bytes"},
    {"journal.fsyncs_per_job", "count"},
    {"batcher.occupancy_mean", "count"},
    {"batcher.batches_per_round", "count"},
    {"tsp.instance_ms", "ms"},
    {"tsp.neighbor_lists_ms", "ms"},
    {"solver.constructive_ms", "ms"},
    {"solver.initial_descent_ms", "ms"},
    {"solver.pass_us_p50", "us"},
    {"solver.pass_ns_per_city", "ns"},
    {"solver.host_us_per_pass", "us"},
    {"solver.passes", "count"},
    {"solver.checks", "count"},
    {"solver.ils_iters_per_s", "1/s"},
    {"obs.report_ms", "ms"},
    {"simt.modeled_device_ms", "ms/round"},
    {"simt.kernel_launches", "count/round"},
    {"simt.h2d_bytes", "bytes/round"},
    {"simt.d2h_bytes", "bytes/round"},
    {"simt.checks", "count/round"},
    {"simt.host_ms_per_launch", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

Tail tail(const std::vector<double>& xs, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = xs.size();
  t.value = quantile(xs, percentile / 100.0);
  t.beyond = static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x > t.value; }));
  return t;
}

std::string Tail::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu (%zu beyond)", percentile, samples,
                beyond);
  return buf;
}

std::string verify_tour(const tspopt::Instance& instance,
                        const std::vector<std::int32_t>& order,
                        std::int64_t best_length) {
  const auto n = static_cast<std::size_t>(instance.n());
  if (order.size() != n) {
    return "order has " + std::to_string(order.size()) + " cities, want " +
           std::to_string(n);
  }
  std::vector<bool> seen(n, false);
  for (std::int32_t city : order) {
    if (city < 0 || static_cast<std::size_t>(city) >= n || seen[city]) {
      return "order is not a permutation (city " + std::to_string(city) + ")";
    }
    seen[static_cast<std::size_t>(city)] = true;
  }
  std::int64_t length = tspopt::Tour(order).length(instance);
  if (length != best_length) {
    return "recomputed length " + std::to_string(length) +
           " != best_length " + std::to_string(best_length);
  }
  return "";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::vector<std::string> fingerprint() {
  return {
      std::string("cpu: ") + tspopt::obs::cpu_model(),
      "nproc: " + std::to_string(std::thread::hardware_concurrency()),
      std::string("simd: ") + tspopt::simd::active().name,
      std::string("git: ") + tspopt::obs::git_describe(),
  };
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
