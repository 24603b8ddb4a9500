// Steady-state allocation discipline of the 2-opt engines: repeated
// search() calls — the ILS inner loop — must reuse engine-owned capacity
// (SoA staging, device buffers, tile lists, partial-result arrays) instead
// of reallocating every pass.
//
// This TU replaces the global allocation functions with counting wrappers;
// each test file links into its own executable, so the replacement is
// local to this binary. The counter is thread_local: an assertion about
// the calling thread is not perturbed by pool workers allocating their
// own thread_local arenas on first use.
//
// The single-thread engines must allocate NOTHING once warmed. The
// thread-pool-backed engines allocate a fixed per-launch amount inside
// ThreadPool::run_on_all (one promise/future pair per worker per launch),
// so for them the contract is: the steady-state count is *identical*
// across passes — capacity growth would show up as pass-to-pass drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <latch>
#include <new>

namespace {
thread_local std::uint64_t t_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_news;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_news;
  auto a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "simt/device.hpp"
#include "simt/shared_memory.hpp"
#include "solver/twoopt_gpu_pruned.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_simd_pruned.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbor_lists.hpp"

namespace tspopt {
namespace {

template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  std::uint64_t before = t_news;
  fn();
  return t_news - before;
}

struct Fixture {
  Instance inst;
  Tour tour;
  Fixture(std::int32_t n, std::uint64_t seed)
      : inst(generate_uniform("alloc" + std::to_string(n), n, seed)),
        tour(Tour::identity(n)) {
    Pcg32 rng(seed);
    tour = Tour::random(n, rng);
  }
};

TEST(AllocReuse, SimdEngineSteadyStateAllocatesNothing) {
  Fixture f(500, 1);
  TwoOptSimd engine;
  // Two warm-up passes: the first grows the SoA staging and resolves the
  // lazy registry counters, the second proves the warm state is reached.
  engine.search(f.inst, f.tour);
  engine.search(f.inst, f.tour);
  EXPECT_EQ(allocations_during([&] { engine.search(f.inst, f.tour); }), 0u);
}

TEST(AllocReuse, SequentialEngineSteadyStateAllocatesNothing) {
  Fixture f(500, 2);
  TwoOptSequential engine;
  engine.search(f.inst, f.tour);
  engine.search(f.inst, f.tour);
  EXPECT_EQ(allocations_during([&] { engine.search(f.inst, f.tour); }), 0u);
}

TEST(AllocReuse, SimdEngineReusesCapacityAcrossShrinkingInstances) {
  // A pass over a smaller instance after a larger one must fit entirely in
  // the capacity the large pass left behind.
  Fixture big(1000, 3);
  Fixture small(200, 4);
  TwoOptSimd engine;
  engine.search(big.inst, big.tour);
  EXPECT_EQ(allocations_during([&] { engine.search(small.inst, small.tour); }),
            0u);
}

TEST(AllocReuse, SimdPrunedEngineSteadyStateAllocatesNothing) {
  // The pruned ILS inner loop: candidate records, row minima, and the
  // per-row fold buffers must all come out of engine-owned capacity.
  Fixture f(500, 8);
  NeighborLists neighbors(f.inst, 16);
  TwoOptSimdPruned engine(neighbors);
  engine.search(f.inst, f.tour);
  engine.search(f.inst, f.tour);
  EXPECT_EQ(allocations_during([&] { engine.search(f.inst, f.tour); }), 0u);
}

TEST(AllocReuse, SimdPrunedEngineStaysWarmAcrossAppliedMoves) {
  // Applying the selected move between passes (the descent loop) changes
  // the active-row set pass to pass; none of those shapes may reallocate.
  Fixture f(500, 9);
  NeighborLists neighbors(f.inst, 16);
  TwoOptSimdPruned engine(neighbors);
  SearchResult r = engine.search(f.inst, f.tour);
  engine.search(f.inst, f.tour);
  for (int pass = 0; pass < 5 && r.best.improves(); ++pass) {
    f.tour.apply_two_opt(r.best.i, r.best.j);
    std::uint64_t allocs =
        allocations_during([&] { r = engine.search(f.inst, f.tour); });
    EXPECT_EQ(allocs, 0u) << "pass " << pass;
  }
}

TEST(AllocReuse, SimdPrunedEngineKickOfStagedTourAllocatesNothing) {
  // An ILS kick of the staged incumbent rotates the staged arrays in
  // place; that path must not reallocate either.
  Fixture f(500, 11);
  NeighborLists neighbors(f.inst, 16);
  TwoOptSimdPruned engine(neighbors);
  engine.search(f.inst, f.tour);
  engine.search(f.inst, f.tour);
  Pcg32 rng(12);
  f.tour.double_bridge(rng);
  ASSERT_GE(f.tour.last_kick().p1, 0);
  EXPECT_EQ(allocations_during([&] { engine.search(f.inst, f.tour); }), 0u);
  EXPECT_EQ(engine.sweep().dirty().first, f.tour.last_kick().p1);
}

TEST(AllocReuse, GpuPrunedEngineSteadyStateCountIsStable) {
  Fixture f(800, 10);
  NeighborLists neighbors(f.inst, 16);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuPruned engine(device, neighbors);
  std::uint64_t first =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t second =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t third =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  // Cold pass grows the staging; warm passes pay at most the fixed
  // per-launch overhead of the simulated device.
  EXPECT_EQ(second, third);
  EXPECT_LE(third, first);
}

TEST(AllocReuse, TiledEngineSteadyStateCountIsStable) {
  Fixture f(800, 5);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuTiled engine(device, 128);
  std::uint64_t first =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t second =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t third =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  // The cold pass grows the ordered/coords/tiles/results staging; warm
  // passes pay only the fixed ThreadPool launch overhead.
  EXPECT_EQ(second, third);
  EXPECT_LT(third, first);
}

TEST(AllocReuse, ThreadPoolLaunchCountDoesNotDependOnHistory) {
  // The count the pool-backed engines pin must be the same on every
  // launch, however many tasks ran before: queueing a task may not
  // allocate once the queue has held that many.
  ThreadPool& pool = ThreadPool::shared();
  auto noop = [](std::size_t) {};
  pool.run_on_all(noop);
  const std::uint64_t first =
      allocations_during([&] { pool.run_on_all(noop); });
  for (int launch = 0; launch < 64; ++launch) {
    EXPECT_EQ(allocations_during([&] { pool.run_on_all(noop); }), first)
        << "launch " << launch;
  }
}

// --- launch-arena bounds (ISSUE satellite) -----------------------------
//
// The per-worker thread_local launch arenas (simt::SharedMemory) are
// grow-mostly but must stay *bounded*: retargeting between devices with
// different shared-memory limits must not thrash or ratchet, and the
// process-wide storage accounting must reconcile, so a long-lived solve
// server's arena fleet cannot grow without bound.

TEST(AllocReuse, ArenaAlternatingDeviceLimitsDoesNotThrash) {
  constexpr std::uint32_t kGeForce = 48u * 1024u;
  constexpr std::uint32_t kRadeon = 64u * 1024u;
  simt::SharedMemory arena(kGeForce);
  arena.set_capacity(kRadeon);  // one growth to the larger limit
  EXPECT_EQ(arena.storage_bytes(), kRadeon);

  // Alternating between the two limits is the mixed-device reuse pattern;
  // the 2x hysteresis keeps the 64 kB buffer, so zero (re)allocations.
  std::uint64_t churn = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      arena.set_capacity(i % 2 == 0 ? kGeForce : kRadeon);
      arena.alloc<float>(1024);
      arena.reset();
    }
  });
  EXPECT_EQ(churn, 0u);
  EXPECT_EQ(arena.storage_bytes(), kRadeon);
}

TEST(AllocReuse, ArenaShrinksWhenRetargetedFarSmaller) {
  simt::SharedMemory arena(1u << 20);  // 1 MB high-water mark
  arena.set_capacity(48u * 1024u);     // > 2x smaller: excess is released
  EXPECT_EQ(arena.storage_bytes(), 48u * 1024u);
  EXPECT_EQ(arena.capacity(), 48u * 1024u);
}

TEST(AllocReuse, LiveStorageAccountingTracksArenas) {
  const std::uint64_t baseline = simt::SharedMemory::live_storage_bytes();
  {
    simt::SharedMemory arena(48u * 1024u);
    EXPECT_EQ(simt::SharedMemory::live_storage_bytes(),
              baseline + 48u * 1024u);
    arena.set_capacity(256u * 1024u);
    EXPECT_EQ(simt::SharedMemory::live_storage_bytes(),
              baseline + 256u * 1024u);
  }
  EXPECT_EQ(simt::SharedMemory::live_storage_bytes(), baseline);
}

TEST(AllocReuse, ServerWorkloadWorkerArenasStayBounded) {
  // A solve-server-shaped workload: many passes of the pool-backed device
  // engine. Each pool worker owns one thread_local arena; the fleet's
  // total backing storage must reach a plateau after warm-up, bounded by
  // (workers + main thread) x 2x the device's shared-memory limit.
  Fixture f(600, 7);
  simt::Device device(simt::gtx680_cuda());
  TwoOptGpuTiled engine(device, 128);
  // Warm-up: every pool worker creates its arena at the device's limit. A
  // launch alone does not reach every worker (one worker may run several
  // of run_on_all's tasks), so each task first waits until all workers
  // hold one.
  ThreadPool& pool = ThreadPool::shared();
  std::latch all_workers(static_cast<std::ptrdiff_t>(pool.size()));
  pool.run_on_all([&](std::size_t) {
    all_workers.arrive_and_wait();
    simt::SharedMemory& arena = simt::SharedMemory::thread_arena();
    arena.reset();
    arena.set_capacity(device.spec().shared_mem_bytes);
  });
  engine.search(f.inst, f.tour);

  const std::uint64_t plateau = simt::SharedMemory::live_storage_bytes();
  for (int pass = 0; pass < 5; ++pass) {
    engine.search(f.inst, f.tour);
    EXPECT_EQ(simt::SharedMemory::live_storage_bytes(), plateau)
        << "arena fleet grew on pass " << pass;
  }
  const std::uint64_t per_arena_bound = 2u * device.spec().shared_mem_bytes;
  EXPECT_LE(plateau,
            (ThreadPool::shared().size() + 1) * per_arena_bound);
}

TEST(AllocReuse, ParallelEngineSteadyStateCountIsStable) {
  Fixture f(800, 6);
  TwoOptSimd engine(nullptr, &ThreadPool::shared());
  std::uint64_t first =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t second =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  std::uint64_t third =
      allocations_during([&] { engine.search(f.inst, f.tour); });
  EXPECT_EQ(second, third);
  EXPECT_LE(third, first);
}

}  // namespace
}  // namespace tspopt
