#include "solver/batch/batch_local_search.hpp"

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace tspopt {

std::vector<LocalSearchStats> batch_local_search(
    BatchTwoOptEngine& engine, TourBatch& batch,
    const LocalSearchOptions& options, const BatchMemberStop& member_stop) {
  WallTimer timer;
  std::vector<LocalSearchStats> stats(static_cast<std::size_t>(batch.size()));
  std::int64_t round = 0;
  while (batch.active_count() > 0) {
    // Every active slot has run exactly `round` passes.
    if (options.max_passes >= 0 && round >= options.max_passes) {
      batch.set_all_active(false);
      break;
    }
    if (options.time_limit_seconds >= 0.0 &&
        timer.seconds() >= options.time_limit_seconds) {
      break;
    }
    obs::Span span = obs::Tracer::global().span("ls.pass", "solver");
    if (span) {
      span.arg("pass", round);
      span.arg("batch_size", static_cast<std::int64_t>(batch.active_count()));
    }
    BatchSearchResult pass = engine.search(batch);
    ++round;
    for (std::int32_t b = 0; b < batch.size(); ++b) {
      if (!batch.active(b)) continue;
      LocalSearchStats& st = stats[static_cast<std::size_t>(b)];
      const SearchResult& slot = pass.per_tour[static_cast<std::size_t>(b)];
      ++st.passes;
      st.checks += slot.checks;
      if (!slot.best.improves()) {
        st.reached_local_minimum = true;
        batch.set_active(b, false);
        continue;
      }
      batch.apply_two_opt(b, slot.best.i, slot.best.j);
      ++st.moves_applied;
      st.improvement += -static_cast<std::int64_t>(slot.best.delta);
      st.wall_seconds = timer.seconds();
      if (member_stop && member_stop(b)) batch.set_active(b, false);
    }
  }
  double now = timer.seconds();
  for (std::int32_t b = 0; b < batch.size(); ++b) {
    LocalSearchStats& st = stats[static_cast<std::size_t>(b)];
    if (st.passes > 0) st.wall_seconds = now;
  }
  return stats;
}

}  // namespace tspopt
