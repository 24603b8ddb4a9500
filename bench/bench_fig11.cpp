// Reproduces Fig. 11: "Iterated Local Search Convergence Speed (GPU) -
// sw24978.tsp" — best tour length vs wall time, GPU-accelerated 2-opt vs
// the CPU implementation.
//
// The ILS trajectory is deterministic given the seed (every engine finds
// the identical best move each pass), so GPU-ILS and CPU-ILS walk the SAME
// sequence of tours; the paper's two curves differ only in the time axis.
// The bench therefore runs the trajectory once, records cumulative work
// (checks, passes) at each improvement, and re-times it under the
// calibrated GTX 680 model and the 16-core / 6-core CPU models — plus the
// measured wall time on this host for grounding.
//
// At CI scale the instance is a sw24978-geometry stand-in of
// REPRO_FIG11_N (default 1000) cities so the bench finishes in seconds;
// REPRO_SCALE=full runs the full-size stand-in (paper setup: random
// initial tour, double-bridge perturbation, §V).
#include <iostream>

#include "benchsup/table.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "simt/perf_model.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_simd.hpp"
#include "tsp/generator.hpp"
#include "tsp/point.hpp"

int main() {
  using namespace tspopt;
  using namespace tspopt::benchsup;

  const bool full = full_scale();
  const auto n = static_cast<std::int32_t>(
      env_long_or("REPRO_FIG11_N", full ? 24978 : 1000));
  const double budget = full ? 900.0 : 8.0;

  // sw24978 is a national (Sweden) instance: grid-like geometry.
  Instance inst = generate_grid("sw" + std::to_string(n), n, 24978);
  std::cout << "=== Fig 11: ILS convergence, " << inst.name()
            << " (sw24978 stand-in), random initial tour, double-bridge "
               "perturbation ===\n"
            << "One deterministic trajectory, re-timed per device model; "
               "wall-time budget " << budget << " s on this host.\n\n";

  Pcg32 rng(1);
  Tour initial = Tour::random(n, rng);
  std::int64_t initial_len = initial.length(inst);
  std::cout << "initial random tour length: " << initial_len << "\n\n";

  TwoOptSimd engine(nullptr, &ThreadPool::shared());
  IlsOptions opts;
  opts.time_limit_seconds = budget;
  opts.seed = 7;
  IlsResult r = iterated_local_search(engine, inst, initial, opts);

  simt::PerfModel gpu(simt::gtx680_cuda());
  simt::PerfModel xeon(simt::xeon_e5_2667_x2());
  simt::PerfModel i7(simt::corei7_3960x());
  auto device_seconds = [&](const simt::PerfModel& m,
                            const IlsTracePoint& p) {
    auto launches = static_cast<std::uint64_t>(p.passes);
    double us = m.kernel_time_us(p.checks, launches);
    us += m.h2d_time_us(
        static_cast<std::uint64_t>(n) * sizeof(Point) * launches, launches);
    us += m.d2h_time_us(24 * 28 * launches, launches);
    return us / 1e6;
  };

  Table trace({"best length", "vs init", "ILS iter", "checks", "GTX680 t",
               "Xeon-16c t", "i7-6c t", "host wall"});
  for (const IlsTracePoint& p : r.trace) {
    trace.add_row(
        {std::to_string(p.length),
         fmt_fixed(100.0 * static_cast<double>(p.length) /
                       static_cast<double>(initial_len),
                   1) +
             "%",
         std::to_string(p.iteration),
         fmt_count(static_cast<double>(p.checks), 1),
         fmt_fixed(device_seconds(gpu, p), 3) + " s",
         fmt_fixed(device_seconds(xeon, p), 2) + " s",
         fmt_fixed(device_seconds(i7, p), 2) + " s",
         fmt_fixed(p.seconds, 2) + " s"});
  }
  trace.print(std::cout);
  maybe_export_csv(trace, "fig11_trace");

  const IlsTracePoint& last = r.trace.back();
  double g = device_seconds(gpu, last);
  double x = device_seconds(xeon, last);
  double i = device_seconds(i7, last);
  std::cout << "\nfinal: " << r.best_length << " after " << r.iterations
            << " ILS iterations (" << r.improvements << " accepted), "
            << fmt_count(static_cast<double>(r.checks), 1) << " checks\n"
            << "modeled time to the final best: GTX 680 "
            << fmt_fixed(g, 2) << " s,  Xeon-16c " << fmt_fixed(x, 1)
            << " s (" << fmt_fixed(x / g, 1) << "x),  i7-6c "
            << fmt_fixed(i, 1) << " s (" << fmt_fixed(i / g, 1) << "x)\n"
            << "Paper shape: the GPU curve reaches every quality level "
               "many times sooner; the paper reports the whole ILS "
               "converging up to ~20x faster on sw24978 (Fig 11) and up to "
               "300x vs a single CPU core on larger instances.\n";
  return 0;
}
