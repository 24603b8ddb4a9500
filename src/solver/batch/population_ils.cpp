#include "solver/batch/population_ils.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "solver/batch/batch_local_search.hpp"
#include "solver/checkpoint.hpp"

namespace tspopt {

namespace {

bool accept(IlsAcceptance criterion, double epsilon, std::int64_t candidate,
            std::int64_t incumbent) {
  switch (criterion) {
    case IlsAcceptance::kBetter:
      return candidate < incumbent;
    case IlsAcceptance::kEpsilonWorse:
      return static_cast<double>(candidate) <
             static_cast<double>(incumbent) * (1.0 + epsilon);
    case IlsAcceptance::kRandomWalk:
      return true;
  }
  return false;
}

// One member's loop-carried state — exactly what the checkpoint stores per
// member.
struct MemberState {
  Tour incumbent;
  std::int64_t incumbent_len = 0;
  Pcg32 rng;
  IlsResult result;
  std::int64_t passes = 0;
  bool finished = false;

  MemberState(Tour tour, Pcg32 generator)
      : incumbent(std::move(tour)),
        rng(generator),
        result{incumbent, 0, 0, 0, 0, 0.0, false, {}} {}
};

struct PopState {
  std::vector<MemberState> members;
  std::int64_t rounds = 0;
  std::int64_t migrations = 0;
  double base_seconds = 0.0;  // wall time consumed before the round loop
};

void write_checkpoint(const std::string& path, const PopState& ps,
                      double now) {
  obs::Span span = obs::Tracer::global().span("ils.checkpoint", "ils");
  if (span) span.arg("rounds", ps.rounds);
  PopulationCheckpoint ck;
  ck.rounds = ps.rounds;
  ck.migrations = ps.migrations;
  ck.elapsed_seconds = now;
  ck.members.reserve(ps.members.size());
  for (const MemberState& st : ps.members) {
    IlsCheckpoint m;
    m.iterations = st.result.iterations;
    m.improvements = st.result.improvements;
    m.checks = st.result.checks;
    m.passes = st.passes;
    m.elapsed_seconds = now;
    m.best_order.assign(st.result.best.order().begin(),
                        st.result.best.order().end());
    m.best_length = st.result.best_length;
    m.incumbent_order.assign(st.incumbent.order().begin(),
                             st.incumbent.order().end());
    m.incumbent_length = st.incumbent_len;
    m.rng = st.rng.save();
    m.trace = st.result.trace;
    ck.members.push_back(std::move(m));
    ck.finished.push_back(st.finished ? 1 : 0);
    ck.stopped.push_back(st.result.stopped ? 1 : 0);
  }
  save_population_checkpoint(path, ck);
  obs::Log::global()
      .event(obs::LogLevel::kDebug, "ils.checkpoint")
      .arg("path", path)
      .arg("rounds", ps.rounds)
      .arg("seconds", now);
}

std::int64_t best_population_length(const PopState& ps) {
  std::int64_t best = ps.members[0].result.best_length;
  for (const MemberState& st : ps.members) {
    if (st.result.best_length < best) best = st.result.best_length;
  }
  return best;
}

// Best-replaces-worst migration over the live members: the population's
// best tour found so far overwrites the live member with the worst
// incumbent (deterministic tie-break toward the lower slot).
void migrate(PopState& ps) {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  for (std::int32_t b = 0; b < static_cast<std::int32_t>(ps.members.size());
       ++b) {
    const MemberState& st = ps.members[static_cast<std::size_t>(b)];
    if (st.finished) continue;
    if (src < 0 || st.result.best_length <
                       ps.members[static_cast<std::size_t>(src)]
                           .result.best_length) {
      src = b;
    }
    if (dst < 0 ||
        st.incumbent_len >
            ps.members[static_cast<std::size_t>(dst)].incumbent_len) {
      dst = b;
    }
  }
  if (src < 0 || dst < 0 || src == dst) return;
  MemberState& from = ps.members[static_cast<std::size_t>(src)];
  MemberState& to = ps.members[static_cast<std::size_t>(dst)];
  if (from.result.best_length >= to.incumbent_len) return;  // nothing to gain
  to.incumbent = from.result.best;
  to.incumbent_len = from.result.best_length;
  ++ps.migrations;
}

// The shared round loop: fresh runs enter it after the initial descent,
// resumed runs directly. `batch` must be sized to the population (its
// slots are overwritten every round).
PopulationIlsResult run_rounds(
    BatchTwoOptEngine& engine, TourBatch& batch,
    const std::vector<PopulationMemberOptions>& members,
    const PopulationIlsOptions& options, PopState ps) {
  WallTimer timer;
  auto now = [&] { return ps.base_seconds + timer.seconds(); };
  const auto population = static_cast<std::int32_t>(ps.members.size());

  // Per-round telemetry. Instrument references are resolved once per run;
  // the loop body pays only lock-free atomic updates.
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& m_iterations = registry.counter("ils.iterations");
  obs::Counter& m_accepted = registry.counter("ils.accepted");
  obs::Counter& m_improvements = registry.counter("ils.improvements");
  obs::Counter& m_migrations = registry.counter("ils.migrations");
  obs::Gauge& m_best = registry.gauge("ils.best_length");
  obs::Histogram& m_iteration_us = registry.histogram(
      "ils.iteration_us",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
       500000, 1000000, 5000000});
  m_best.set(static_cast<double>(best_population_length(ps)));

  auto finish_member = [&](std::int32_t b) {
    MemberState& st = ps.members[static_cast<std::size_t>(b)];
    if (st.finished) return;
    st.finished = true;
    st.result.wall_seconds = now();
  };

  // Member budget poll between the passes of a round's descent, so a
  // cancellation or member deadline lands mid-descent, not after it.
  auto member_should_stop = [&](std::int32_t b) {
    const PopulationMemberOptions& mo = members[static_cast<std::size_t>(b)];
    if (mo.should_stop && mo.should_stop()) return true;
    if (mo.time_limit_seconds >= 0.0 && now() >= mo.time_limit_seconds) {
      return true;
    }
    if (options.should_stop && options.should_stop()) return true;
    return false;
  };

  bool global_stop = false;
  while ((options.max_iterations < 0 || ps.rounds < options.max_iterations) &&
         (options.time_limit_seconds < 0.0 ||
          now() < options.time_limit_seconds)) {
    if (options.should_stop && options.should_stop()) {
      global_stop = true;
      break;
    }
    // Retire members that hit their own budgets between rounds.
    for (std::int32_t b = 0; b < population; ++b) {
      MemberState& st = ps.members[static_cast<std::size_t>(b)];
      if (st.finished) continue;
      const PopulationMemberOptions& mo =
          members[static_cast<std::size_t>(b)];
      if (mo.max_iterations >= 0 && st.result.iterations >= mo.max_iterations) {
        finish_member(b);
        continue;
      }
      if (mo.time_limit_seconds >= 0.0 && now() >= mo.time_limit_seconds) {
        finish_member(b);
        continue;
      }
      if (mo.should_stop && mo.should_stop()) {
        st.result.stopped = true;
        finish_member(b);
      }
    }

    std::int32_t live = 0;
    for (const MemberState& st : ps.members) live += st.finished ? 0 : 1;
    if (live == 0) break;

    obs::Span iter_span = obs::Tracer::global().span("ils.iteration", "ils");
    WallTimer iter_timer;

    // Perturbation (line 5): double bridge on a copy of each live member's
    // incumbent, written into the member's slot on its own RNG stream.
    for (std::int32_t b = 0; b < population; ++b) {
      MemberState& st = ps.members[static_cast<std::size_t>(b)];
      batch.set_active(b, !st.finished);
      if (st.finished) continue;
      batch.kick(b, st.incumbent, st.incumbent_len, st.rng);
    }

    // Local search (line 6), clipped to the remaining global budget.
    LocalSearchOptions round_ls = options.local_search;
    if (options.time_limit_seconds >= 0.0) {
      double remaining = options.time_limit_seconds - now();
      if (remaining <= 0.0) break;
      if (round_ls.time_limit_seconds < 0.0 ||
          round_ls.time_limit_seconds > remaining) {
        round_ls.time_limit_seconds = remaining;
      }
    }
    std::vector<LocalSearchStats> stats =
        batch_local_search(engine, batch, round_ls, member_should_stop);

    // Acceptance criterion (line 7), per member.
    for (std::int32_t b = 0; b < population; ++b) {
      MemberState& st = ps.members[static_cast<std::size_t>(b)];
      if (st.finished) continue;
      const PopulationMemberOptions& mo =
          members[static_cast<std::size_t>(b)];
      const LocalSearchStats& ls = stats[static_cast<std::size_t>(b)];
      st.result.checks += ls.checks;
      st.passes += ls.passes;
      ++st.result.iterations;

      std::int64_t length = batch.length(b);
      bool improved = length < st.result.best_length;
      if (improved) {
        st.result.best = batch.tour(b);
        st.result.best_length = length;
        ++st.result.improvements;
        m_improvements.add();
        st.result.trace.push_back({now(), st.result.best_length,
                                   st.result.iterations, st.result.checks,
                                   st.passes});
        obs::Log::global()
            .event(obs::LogLevel::kInfo, "ils.improvement")
            .arg("member", static_cast<std::int64_t>(b))
            .arg("iteration", st.result.iterations)
            .arg("best", st.result.best_length)
            .arg("seconds", now());
      }
      if (accept(options.acceptance, options.epsilon, length,
                 st.incumbent_len)) {
        // The slot is overwritten next round, so the descended tour can
        // move into the incumbent instead of being copied.
        batch.swap_tour(b, st.incumbent, st.incumbent_len);
        m_accepted.add();
      }
      if (mo.on_progress) {
        mo.on_progress(
            {st.result.iterations, st.result.best_length, now(), improved});
      }
    }

    ++ps.rounds;
    m_iterations.add(static_cast<std::uint64_t>(live));
    std::int64_t best = best_population_length(ps);
    m_best.set(static_cast<double>(best));
    if (iter_span) {
      iter_span.arg("round", ps.rounds);
      iter_span.arg("live", static_cast<std::int64_t>(live));
      iter_span.arg("best", best);
    }
    m_iteration_us.observe(iter_timer.micros());

    if (options.migrate_every > 0 &&
        ps.rounds % options.migrate_every == 0) {
      std::int64_t before = ps.migrations;
      migrate(ps);
      if (ps.migrations != before) m_migrations.add();
    }
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        ps.rounds % options.checkpoint_every == 0) {
      write_checkpoint(options.checkpoint_path, ps, now());
    }
  }

  PopulationIlsResult out;
  out.rounds = ps.rounds;
  out.migrations = ps.migrations;
  out.wall_seconds = now();
  out.stopped = global_stop;
  out.members.reserve(ps.members.size());
  std::int64_t iterations = 0;
  std::int64_t improvements = 0;
  std::uint64_t checks = 0;
  for (std::int32_t b = 0; b < population; ++b) {
    MemberState& st = ps.members[static_cast<std::size_t>(b)];
    if (!st.finished) {
      if (global_stop) st.result.stopped = true;
      st.result.wall_seconds = out.wall_seconds;
    }
    if (st.result.best_length <
        ps.members[static_cast<std::size_t>(out.best_member)]
            .result.best_length) {
      out.best_member = b;
    }
    iterations += st.result.iterations;
    improvements += st.result.improvements;
    checks += st.result.checks;
    out.members.push_back(std::move(st.result));
  }
  obs::Log::global()
      .event(obs::LogLevel::kInfo, "ils.finish")
      .arg("population", static_cast<std::int64_t>(population))
      .arg("iterations", iterations)
      .arg("improvements", improvements)
      .arg("migrations", out.migrations)
      .arg("best", out.best().best_length)
      .arg("checks", checks)
      .arg("seconds", out.wall_seconds)
      .arg("stopped", out.stopped);
  return out;
}

}  // namespace

PopulationIlsOptions population_options(const IlsOptions& options) {
  PopulationIlsOptions out;
  out.time_limit_seconds = options.time_limit_seconds;
  out.max_iterations = options.max_iterations;
  out.acceptance = options.acceptance;
  out.epsilon = options.epsilon;
  out.local_search = options.local_search;
  out.checkpoint_path = options.checkpoint_path;
  out.checkpoint_every = options.checkpoint_every;
  out.should_stop = options.should_stop;
  return out;
}

std::vector<PopulationMemberOptions> population_members(std::int32_t count,
                                                        std::uint64_t seed) {
  TSPOPT_CHECK(count >= 1);
  std::vector<PopulationMemberOptions> out(static_cast<std::size_t>(count));
  for (std::int32_t b = 0; b < count; ++b) {
    out[static_cast<std::size_t>(b)].seed =
        seed + static_cast<std::uint64_t>(b);
  }
  return out;
}

PopulationIlsResult population_ils(
    BatchTwoOptEngine& engine, const Instance& instance,
    std::vector<Tour> initial,
    const std::vector<PopulationMemberOptions>& members,
    const PopulationIlsOptions& options) {
  TSPOPT_CHECK_MSG(!members.empty() && initial.size() == members.size(),
                   "population needs one starting tour per member (got "
                       << initial.size() << " tours, " << members.size()
                       << " members)");
  WallTimer timer;
  const auto population = static_cast<std::int32_t>(members.size());

  // Initial descent (Algorithm 1 line 3), all members in one batch.
  TourBatch batch(instance, std::move(initial));
  LocalSearchOptions ls = options.local_search;
  if (options.time_limit_seconds >= 0.0 && ls.time_limit_seconds < 0.0) {
    ls.time_limit_seconds = options.time_limit_seconds;
  }
  obs::Span descent_span =
      obs::Tracer::global().span("ils.initial_descent", "ils");
  if (descent_span) {
    descent_span.arg("population", static_cast<std::int64_t>(population));
  }
  auto descent_stop = [&](std::int32_t b) {
    const PopulationMemberOptions& mo = members[static_cast<std::size_t>(b)];
    if (mo.should_stop && mo.should_stop()) return true;
    if (options.should_stop && options.should_stop()) return true;
    return false;
  };
  std::vector<LocalSearchStats> descent =
      batch_local_search(engine, batch, ls, descent_stop);
  descent_span.finish();

  PopState ps;
  ps.members.reserve(members.size());
  for (std::int32_t b = 0; b < population; ++b) {
    MemberState st(batch.tour(b), Pcg32(members[static_cast<std::size_t>(b)].seed));
    st.incumbent_len = batch.length(b);
    st.result.best_length = st.incumbent_len;
    st.result.checks = descent[static_cast<std::size_t>(b)].checks;
    st.passes = descent[static_cast<std::size_t>(b)].passes;
    st.result.trace.push_back({timer.seconds(), st.result.best_length, 0,
                               st.result.checks, st.passes});
    ps.members.push_back(std::move(st));
  }

  // The expensive part of short runs is safe before the first round.
  if (!options.checkpoint_path.empty()) {
    write_checkpoint(options.checkpoint_path, ps, timer.seconds());
  }

  ps.base_seconds = timer.seconds();
  return run_rounds(engine, batch, members, options, std::move(ps));
}

PopulationIlsResult population_ils_resume(
    BatchTwoOptEngine& engine, const Instance& instance,
    const PopulationCheckpoint& checkpoint,
    const std::vector<PopulationMemberOptions>& members,
    const PopulationIlsOptions& options) {
  validate_population_checkpoint(checkpoint, instance);
  TSPOPT_CHECK_MSG(members.size() == checkpoint.members.size(),
                   "checkpoint has " << checkpoint.members.size()
                                     << " members, options have "
                                     << members.size());

  PopState ps;
  ps.rounds = checkpoint.rounds;
  ps.migrations = checkpoint.migrations;
  ps.base_seconds = checkpoint.elapsed_seconds;
  std::vector<Tour> incumbents;
  incumbents.reserve(members.size());
  ps.members.reserve(members.size());
  for (std::size_t b = 0; b < checkpoint.members.size(); ++b) {
    const IlsCheckpoint& m = checkpoint.members[b];
    MemberState st(Tour(m.incumbent_order), Pcg32(members[b].seed));
    st.rng.restore(m.rng);  // seed is irrelevant; position restored
    st.incumbent_len = m.incumbent_length;
    st.result =
        IlsResult{Tour(m.best_order), m.best_length,     m.iterations,
                  m.improvements,     m.checks,          0.0,
                  checkpoint.stopped[b] != 0,            m.trace};
    st.passes = m.passes;
    st.finished = checkpoint.finished[b] != 0;
    if (st.finished) st.result.wall_seconds = checkpoint.elapsed_seconds;
    incumbents.push_back(st.incumbent);
    ps.members.push_back(std::move(st));
  }
  TourBatch batch(instance, std::move(incumbents));
  return run_rounds(engine, batch, members, options, std::move(ps));
}

}  // namespace tspopt
