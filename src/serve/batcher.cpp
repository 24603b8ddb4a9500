#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "solver/engine_factory.hpp"

namespace tspopt::serve {

bool spec_batchable(const JobSpec& spec) {
  const EngineFactory::EngineInfo* row = EngineFactory::find(spec.engine);
  return spec.batchable && row != nullptr && !row->batch_class.empty();
}

std::string batch_key(const JobSpec& spec) {
  const EngineFactory::EngineInfo* row = EngineFactory::find(spec.engine);
  std::string key = row != nullptr ? row->batch_class : std::string();
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
      fnv1a({reinterpret_cast<const char*>(spec.points.data()),
             spec.points.size() * sizeof(Point)}));
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
