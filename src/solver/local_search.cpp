#include "solver/local_search.hpp"

#include <utility>
#include <vector>

#include "solver/batch/batch_local_search.hpp"

namespace tspopt {

LocalSearchStats local_search(TwoOptEngine& engine, const Instance& instance,
                              Tour& tour, const LocalSearchOptions& options) {
  // A solo descent is a batch of one. The tour moves into the slot and
  // back, lineage stamp included, so a pruned engine's staging stays
  // incremental across calls.
  std::vector<Tour> tours;
  tours.push_back(std::move(tour));
  TourBatch batch(instance, std::move(tours));
  PerSlotBatchEngine slot(engine);
  LocalSearchStats stats = batch_local_search(slot, batch, options).front();
  std::int64_t length = 0;
  batch.swap_tour(0, tour, length);
  return stats;
}

}  // namespace tspopt
