// Google-benchmark micro-benchmarks: per-pass cost of every 2-opt engine,
// plus the hot primitives (delta evaluation, triangle indexing, reversal),
// on this host. Complements the table/figure harnesses with
// statistically-sound timings of the building blocks.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "simt/device.hpp"
#include "solver/constructive.hpp"
#include "solver/delta.hpp"
#include "solver/ordering.hpp"
#include "solver/simd.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_pruned.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/generator.hpp"

namespace tspopt {
namespace {

Instance bench_instance(std::int64_t n) {
  return generate_uniform("bench" + std::to_string(n),
                          static_cast<std::int32_t>(n),
                          static_cast<std::uint64_t>(n));
}

Tour bench_tour(std::int64_t n) {
  Pcg32 rng(static_cast<std::uint64_t>(n) * 17);
  return Tour::random(static_cast<std::int32_t>(n), rng);
}

void report_checks(benchmark::State& state, std::int64_t n) {
  state.SetItemsProcessed(state.iterations() * pair_count(n));
  state.counters["checks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * pair_count(n)),
      benchmark::Counter::kIsRate);
}

void BM_SequentialPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  TwoOptSequential engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
}
BENCHMARK(BM_SequentialPass)->Arg(100)->Arg(1000)->Arg(4000);

// The ISSUE's headline comparison: the vectorized single-thread pass
// (runtime dispatch, AVX2 on this host if available) against
// BM_SequentialPass above. Acceptance: >= 2x at n >= 1000 on an AVX2 host.
void BM_SimdPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  TwoOptSimd engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
  state.SetLabel(engine.kernels().name);
}
BENCHMARK(BM_SimdPass)->Arg(100)->Arg(1000)->Arg(4000)->Arg(12000);

// Same engine pinned to the scalar row kernel: isolates lane parallelism
// from the row-restructuring (hoisted removed-edge term, SoA staging).
void BM_SimdPassScalarKernel(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  TwoOptSimd engine(&simd::kernels(simd::Level::kScalar));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
}
BENCHMARK(BM_SimdPassScalarKernel)->Arg(1000)->Arg(4000);

// One row through the dispatched kernel: the W-wide inner loop itself.
void BM_SimdRowKernel(benchmark::State& state) {
  std::int64_t len = state.range(0);
  Instance inst = bench_instance(len + 2);
  Tour tour = bench_tour(len + 2);
  SoaCoords soa;
  order_coordinates_soa(inst, tour, soa);
  const simd::Kernels& k = simd::active();
  auto j = static_cast<std::int32_t>(len + 1);
  simd::RowArgs row{soa.xs(),        soa.ys(),        0,
                    static_cast<std::int32_t>(len),
                    soa.xs()[j],     soa.ys()[j],     soa.xs()[j + 1],
                    soa.ys()[j + 1], soa.succ_len()};
  for (auto _ : state) {
    simd::RowBest rb = k.row(row);
    benchmark::DoNotOptimize(rb);
  }
  state.SetItemsProcessed(state.iterations() * len);
  state.SetLabel(k.name);
}
BENCHMARK(BM_SimdRowKernel)->Arg(64)->Arg(1000)->Arg(3063);

void BM_ParallelPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  TwoOptSimd engine(nullptr, &ThreadPool::shared());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
}
BENCHMARK(BM_ParallelPass)->Arg(100)->Arg(1000)->Arg(4000)->Arg(12000)->UseRealTime();

void BM_GpuSmallPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
}
BENCHMARK(BM_GpuSmallPass)->Arg(100)->Arg(1000)->Arg(4000)->UseRealTime();

void BM_GpuTiledPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuTiled engine(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  report_checks(state, n);
}
BENCHMARK(BM_GpuTiledPass)->Arg(1000)->Arg(4000)->Arg(12000)->UseRealTime();

void BM_PrunedPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  NeighborLists nl(inst, 10);
  TwoOptPruned engine(nl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.search(inst, tour).best.delta);
  }
  state.SetItemsProcessed(state.iterations() * n * 10);
}
BENCHMARK(BM_PrunedPass)->Arg(1000)->Arg(4000)->Arg(12000);

void BM_DeltaEvaluation(benchmark::State& state) {
  Instance inst = bench_instance(1024);
  Tour tour = bench_tour(1024);
  std::vector<Point> ordered = order_coordinates(inst, tour);
  std::int32_t i = 10, j = 700;
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_opt_delta(ordered, i, j));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaEvaluation);

void BM_PairFromIndex(benchmark::State& state) {
  std::int64_t k = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair_from_index(k));
  }
}
BENCHMARK(BM_PairFromIndex);

void BM_PairAdvance(benchmark::State& state) {
  PairIJ p = pair_from_index(1000000);
  for (auto _ : state) {
    pair_advance(p, 28672);
    benchmark::DoNotOptimize(p);
    if (p.j > 2000000) p = pair_from_index(1000000);
  }
}
BENCHMARK(BM_PairAdvance);

void BM_ApplyTwoOpt(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Tour tour = bench_tour(n);
  std::int32_t i = static_cast<std::int32_t>(n) / 4;
  std::int32_t j = static_cast<std::int32_t>(n) * 3 / 4;
  for (auto _ : state) {
    tour.apply_two_opt(i, j);  // involutive: applying twice restores
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ApplyTwoOpt)->Arg(1000)->Arg(100000);

void BM_OrderCoordinates(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  Tour tour = bench_tour(n);
  std::vector<Point> out;
  for (auto _ : state) {
    order_coordinates(inst, tour, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OrderCoordinates)->Arg(1000)->Arg(100000);

void BM_MultipleFragment(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Instance inst = bench_instance(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiple_fragment(inst).n());
  }
}
BENCHMARK(BM_MultipleFragment)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tspopt

BENCHMARK_MAIN();
