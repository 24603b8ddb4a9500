// The many-tour 2-opt engine interface.
//
// A batch engine performs one full 2-opt pass over EVERY active tour of a
// TourBatch in a single sweep/launch — the `two_opt_kernel(tours,
// num_tours, n)` shape (block index = tour id) that amortizes per-launch
// overhead across B tours. Per-tour results must be bit-identical to the
// corresponding single-tour engine run on the same tour (the batch
// equivalence suite enforces this), which is what lets the serve-side
// micro-batcher coalesce independent jobs without changing their answers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "solver/batch/tour_batch.hpp"
#include "solver/engine.hpp"

namespace tspopt {

struct BatchSearchResult {
  // Indexed by batch slot; inactive slots keep a default SearchResult
  // (no pair examined, zero checks).
  std::vector<SearchResult> per_tour;
  std::uint64_t checks = 0;     // total pairs evaluated across the batch
  double wall_seconds = 0.0;    // host wall-clock for the whole pass
};

class BatchTwoOptEngine {
 public:
  virtual ~BatchTwoOptEngine() = default;

  virtual std::string name() const = 0;

  // One full pass per active tour. Engines restage each active tour's
  // coordinates from its current order before sweeping (the per-pass host
  // work of the paper's Optimization 2, done per slice).
  virtual BatchSearchResult search(TourBatch& batch) = 0;
};

// The batched "engine.pass" span: same name and args as the single-tour
// pass_span so trace tooling sees one span family, plus `batch_size` (the
// number of active tours this pass sweeps).
inline obs::Span batch_pass_span(const BatchTwoOptEngine& engine,
                                 const TourBatch& batch) {
  obs::Span span = obs::Tracer::global().span("engine.pass", "engine");
  if (span) {
    span.arg("engine", engine.name());
    span.arg("n", batch.n());
    span.arg("simd_width", std::int64_t{1});
    span.arg("batch_size", static_cast<std::int64_t>(batch.active_count()));
  }
  return span;
}

// Presents any single-tour engine as a batch engine: one engine.search per
// active slot, on the slot's own Tour, so lineage stamps (and with them
// the pruned engines' incremental pass staging) carry across passes
// exactly as in a solo descent. This is how a solo descent runs as a batch
// of one, a solo ILS as a population of one, a solo serve job as a batch
// of one, and batch-simd as cpu-simd per slot.
class PerSlotBatchEngine : public BatchTwoOptEngine {
 public:
  explicit PerSlotBatchEngine(TwoOptEngine& engine) : engine_(&engine) {}
  explicit PerSlotBatchEngine(std::unique_ptr<TwoOptEngine> engine)
      : owned_(std::move(engine)), engine_(owned_.get()) {}

  std::string name() const override { return engine_->name(); }

  BatchSearchResult search(TourBatch& batch) override {
    BatchSearchResult out;
    out.per_tour.resize(static_cast<std::size_t>(batch.size()));
    for (std::int32_t b = 0; b < batch.size(); ++b) {
      if (!batch.active(b)) continue;
      SearchResult& slot = out.per_tour[static_cast<std::size_t>(b)];
      slot = engine_->search(batch.instance(), batch.tour(b));
      out.checks += slot.checks;
      out.wall_seconds += slot.wall_seconds;
    }
    return out;
  }

  TwoOptEngine& engine() { return *engine_; }

 private:
  std::unique_ptr<TwoOptEngine> owned_;
  TwoOptEngine* engine_;
};

}  // namespace tspopt
