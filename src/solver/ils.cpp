#include "solver/ils.hpp"

#include <utility>

#include "solver/batch/population_ils.hpp"

namespace tspopt {

IlsResult iterated_local_search(TwoOptEngine& engine, const Instance& instance,
                                const Tour& initial,
                                const IlsOptions& options) {
  PerSlotBatchEngine slots(engine);
  std::vector<PopulationMemberOptions> member(1);
  member[0].seed = options.seed;
  member[0].on_progress = options.on_progress;
  std::vector<Tour> start;
  start.push_back(initial);
  PopulationIlsResult run =
      population_ils(slots, instance, std::move(start), member,
                     population_options(options));
  return std::move(run.members.front());
}

}  // namespace tspopt
