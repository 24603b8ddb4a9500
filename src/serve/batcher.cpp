#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.hpp"

namespace tspopt::serve {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

bool batchable_engine(const std::string& engine) {
  return !batch_engine_for(engine).empty();
}

std::string batch_engine_for(const std::string& engine) {
  // Pairings are bit-identical by construction: batch-simd IS cpu-simd,
  // run per slot, and batch-gpu launches gpu-small's block kernel with
  // one block per tour instead of gridDim blocks on one tour, folding the
  // same lexicographic-min BestMove (the equivalence tests pin it).
  if (engine == "batch-simd" || engine == "cpu-simd") return "batch-simd";
  if (engine == "batch-gpu" || engine == "gpu-small") return "batch-gpu";
  return "";
}

bool spec_batchable(const JobSpec& spec) {
  return spec.batchable && batchable_engine(spec.engine);
}

std::string batch_key(const JobSpec& spec) {
  std::string key = batch_engine_for(spec.engine);
  key += "|k=";
  key += std::to_string(spec.k);
  if (!spec.inline_payload()) {
    key += "|catalog=";
    key += spec.catalog;
    return key;
  }
  // Inline payloads coalesce on the exact coordinate bytes, not the
  // client-chosen name: Point is two floats, so hashing the contiguous
  // vector storage covers every coordinate bit.
  static_assert(sizeof(Point) == 2 * sizeof(float));
  key += "|n=";
  key += std::to_string(spec.points.size());
  key += "|pts=";
  key += std::to_string(
      fnv1a(spec.points.data(), spec.points.size() * sizeof(Point)));
  return key;
}

std::vector<std::shared_ptr<Job>> collect_batch(JobQueue& queue,
                                                const BatcherOptions& options,
                                                std::shared_ptr<Job> lead) {
  std::vector<std::shared_ptr<Job>> batch;
  batch.push_back(std::move(lead));
  const JobSpec& spec = batch.front()->spec();
  if (options.max_batch <= 1 || !spec_batchable(spec)) return batch;

  const std::string key = batch_key(spec);
  auto matches = [&](const Job& job) {
    return spec_batchable(job.spec()) && batch_key(job.spec()) == key;
  };

  WallTimer timer;
  for (;;) {
    std::vector<std::shared_ptr<Job>> more =
        queue.try_pop_matching(matches, options.max_batch - batch.size());
    for (std::shared_ptr<Job>& job : more) batch.push_back(std::move(job));
    if (batch.size() >= options.max_batch) break;
    double remaining_ms = options.max_wait_ms - timer.millis();
    if (remaining_ms <= 0.0) break;
    // The queue has no "wait for a matching push" primitive; the linger
    // window is small (single-digit ms), so a short poll keeps the lead
    // job's added latency bounded without threading a condition variable
    // through the scheduler's hot path.
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(std::min(remaining_ms, 0.25) * 1e3)));
  }
  return batch;
}

}  // namespace tspopt::serve
