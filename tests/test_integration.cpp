// End-to-end integration: the full pipeline the paper's evaluation runs —
// catalog instance -> Multiple Fragment construction -> GPU-style 2-opt
// descent -> ILS — across modules, plus cross-checks between the measured
// counters and the performance model inputs.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "simt/buffer.hpp"
#include "simt/device.hpp"
#include "simt/perf_model.hpp"
#include "solver/constructive.hpp"
#include "solver/ils.hpp"
#include "solver/local_search.hpp"
#include "solver/or_opt.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/catalog.hpp"
#include "tsp/tsplib.hpp"

namespace tspopt {
namespace {

TEST(Integration, Table2PipelineOnBerlin52) {
  // One Table II row end to end: MF initial tour, full 2-opt descent on
  // the simulated GPU, counter-driven modeled timings.
  Instance inst = berlin52();
  Tour tour = multiple_fragment(inst);
  std::int64_t initial_len = tour.length(inst);

  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuSmall engine(device);
  LocalSearchStats stats = local_search(engine, inst, tour);

  EXPECT_TRUE(stats.reached_local_minimum);
  std::int64_t optimized = tour.length(inst);
  EXPECT_LE(optimized, initial_len);
  EXPECT_GE(optimized, kBerlin52Optimum);
  EXPECT_LE(optimized, kBerlin52Optimum * 110 / 100);

  auto work = device.counters().snapshot();
  EXPECT_EQ(work.kernel_launches, static_cast<std::uint64_t>(stats.passes));
  EXPECT_EQ(work.checks, stats.checks);
  EXPECT_EQ(work.h2d_transfers, static_cast<std::uint64_t>(stats.passes));

  simt::PerfModel model(device.spec());
  auto t = model.price(work);
  EXPECT_GT(t.kernel_us, 0.0);
  EXPECT_GT(t.h2d_us, 0.0);
  EXPECT_GT(t.d2h_us, 0.0);
}

TEST(Integration, TiledAndSmallKernelsDescendIdentically) {
  auto entry = *find_catalog_entry("kroE100");
  Instance inst = make_catalog_instance(entry);
  Pcg32 rng(1);
  Tour a = Tour::random(inst.n(), rng);
  Tour b = a;

  simt::Device dev_a(simt::gtx680_cuda());
  simt::Device dev_b(simt::radeon7970());
  TwoOptGpuSmall small(dev_a);
  TwoOptGpuTiled tiled(dev_b, 48);
  local_search(small, inst, a);
  local_search(tiled, inst, b);
  EXPECT_TRUE(a == b);
}

TEST(Integration, IlsOverTiledEngineOnAClusteredCatalogInstance) {
  auto entry = *find_catalog_entry("pr226");
  Instance inst = make_catalog_instance(entry);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuTiled engine(device, 128);
  IlsOptions opts;
  opts.max_iterations = 10;
  opts.time_limit_seconds = 60.0;
  opts.seed = 5;
  IlsResult r = iterated_local_search(engine, inst,
                                      multiple_fragment(inst), opts);
  EXPECT_TRUE(r.best.is_valid());
  EXPECT_GT(device.counters().kernel_launches.load(), 0u);
  // Counted checks equal passes * pair_count.
  EXPECT_EQ(device.counters().checks.load(), r.checks);
}

TEST(Integration, TwoOptThenOrOptThenTwoOptConverges) {
  // The §VII pipeline: alternate neighborhoods until both are exhausted.
  Instance inst = make_catalog_instance(*find_catalog_entry("ch130"));
  NeighborLists nl(inst, 10);
  Pcg32 rng(2);
  Tour tour = Tour::random(inst.n(), rng);
  TwoOptSequential two_opt;
  std::int64_t prev = tour.length(inst);
  for (int round = 0; round < 8; ++round) {
    local_search(two_opt, inst, tour);
    or_opt_descend(inst, tour, nl);
    std::int64_t now = tour.length(inst);
    ASSERT_LE(now, prev);
    if (now == prev) break;
    prev = now;
  }
  // Converged state: neither neighborhood improves.
  SearchResult r = two_opt.search(inst, tour);
  EXPECT_FALSE(r.best.improves());
  OrOptStats extra = or_opt_pass(inst, tour, nl);
  EXPECT_EQ(extra.moves_applied, 0);
}

TEST(Integration, TsplibRoundTripThroughTheFullSolver) {
  // Write a catalog instance to TSPLIB text, parse it back, solve both and
  // compare: the file format must be lossless end to end.
  Instance original = make_catalog_instance(*find_catalog_entry("ch150"));
  std::ostringstream text;
  write_tsplib(text, original);
  std::istringstream in(text.str());
  Instance reloaded = parse_tsplib(in);

  Pcg32 rng(3);
  Tour t1 = Tour::random(original.n(), rng);
  Tour t2 = t1;
  TwoOptSequential engine;
  local_search(engine, original, t1);
  local_search(engine, reloaded, t2);
  EXPECT_TRUE(t1 == t2);
  EXPECT_EQ(t1.length(original), t2.length(reloaded));
}

TEST(Integration, CpuParallelMatchesGpuOnACatalogDescent) {
  Instance inst = make_catalog_instance(*find_catalog_entry("kroA200"));
  Pcg32 rng(4);
  Tour cpu_tour = Tour::random(inst.n(), rng);
  Tour gpu_tour = cpu_tour;
  TwoOptSimd cpu(nullptr, &ThreadPool::shared());
  simt::Device device(simt::radeon7970_ghz());
  TwoOptGpuSmall gpu(device);
  LocalSearchStats cpu_stats = local_search(cpu, inst, cpu_tour);
  LocalSearchStats gpu_stats = local_search(gpu, inst, gpu_tour);
  EXPECT_TRUE(cpu_tour == gpu_tour);
  EXPECT_EQ(cpu_stats.passes, gpu_stats.passes);
  EXPECT_EQ(cpu_stats.checks, gpu_stats.checks);
}

TEST(Integration, ModeledSpeedupGrowsWithInstanceSize) {
  // Fig 10's qualitative claim, produced by the counter+model pipeline on
  // real descents rather than synthetic numbers.
  simt::PerfModel gpu(simt::gtx680_cuda());
  simt::PerfModel cpu(simt::xeon_e5_2667_x2());
  double prev_speedup = 0.0;
  for (const char* name : {"kroE100", "pr439", "vm1084"}) {
    Instance inst = make_catalog_instance(*find_catalog_entry(name));
    simt::Device device(simt::gtx680_cuda());
    TwoOptGpuSmall engine(device);
    Tour tour = multiple_fragment(inst);
    local_search(engine, inst, tour, {.max_passes = 5});
    auto work = device.counters().snapshot();
    double gpu_us = gpu.price(work).total_us();
    double cpu_us = cpu.kernel_time_us(work.checks, work.kernel_launches);
    double speedup = cpu_us / gpu_us;
    EXPECT_GT(speedup, prev_speedup) << name;
    prev_speedup = speedup;
  }
  EXPECT_GT(prev_speedup, 1.0);
}

}  // namespace
}  // namespace tspopt
