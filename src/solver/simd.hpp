// Vectorized 2-opt row kernels with runtime CPUID dispatch.
//
// The paper's kernels get their throughput from coalesced float2 loads out
// of shared memory (Optimization 1) over route-ordered coordinates
// (Optimization 2). The CPU analogue is SIMD over a structure-of-arrays
// split of the same route-ordered data: W consecutive positions load as
// two contiguous float vectors (xs[i..i+W), ys[i..i+W)), the W candidate
// pairs of a row evaluate in lock-step lanes, and a lane-local best-move
// record is reduced horizontally at the end of the row.
//
// The unit of dispatch is one *row* of the pair triangle: all pairs (i, j)
// with i in [i_begin, i_end) against a fixed j — exactly Listing 2's
// two-range kernel with range B pinned to the single position j. Every
// 2-opt engine's pair space decomposes into such rows (the brute-force
// triangle row-by-row, a tile rectangle row-by-row, a linearized chunk
// into row segments), so one primitive serves them all.
//
// The row kernel carries an exact *reach filter*. A 2-opt delta is
//
//   delta = d(i, j) + d(i+1, j+1) - |i, i+1| - |j, j+1|
//
// and d(i+1, j+1) >= 0, so whenever d(i, j) alone exceeds the two removed
// edges, delta > 0 and the pair cannot improve. The kernel computes
// d(i, j) first and skips the second distance of every pair (every W-lane
// block, in the vector kernel) it so proves. The comparison is strict, so
// delta-0 pairs (adjacent pairs, ties) are always evaluated; a skipped
// pair never holds a move the row could report, and the result is the
// unfiltered one bit for bit.
//
// Given the staged tiles (RowArgs::tiles, tsp/soa.hpp), the kernel first
// applies the same test to a whole tile of kTile route positions. Let
// (dx, dy) be j's offset from the tile's bounding box, each clamped at 0,
// and L = dist(dx, dy) in the kernel's own float arithmetic. For every i
// of the tile, |xs[i] - xj| >= dx and |ys[i] - yj| >= dy (IEEE
// subtraction is monotone in each operand), and square, add, sqrt, +0.5
// and truncation are each monotone, so L <= d(i, j). If
//
//   L > |j, j+1| + max over the tile of |i, i+1|,
//
// every pair of the tile passes the per-pair test, so the kernel skips it
// without computing any distance: each W-lane block wholly inside the
// tile (in AVX2, inside a run of such tiles; it tests a TileGroup's eight
// tiles at once) and each scalar-tail pair in it. A block that leaves
// such a tile or run runs the per-pair test as before. The per-pair test
// would have skipped exactly those pairs, so RowBest, `skipped` included,
// is the same with and without tiles, for any [i_begin, i_end).
//
// Implementations are selected at runtime (CPUID), so one binary runs
// everywhere: the scalar kernel is the portable fallback, the AVX2/FMA
// kernel is compiled with a function-level target attribute and only ever
// called when the CPU reports support. TSPOPT_SIMD=scalar|avx2 overrides
// the choice for A/B testing. All kernels compute bit-identical results:
// the arithmetic is plain IEEE mul/add/sqrt/truncate in both paths (the
// build globally disables FP contraction so no path fuses into FMA), and
// the lane reduction preserves the engines' lowest-index tie-break.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsp/soa.hpp"

namespace tspopt::simd {

enum class Level : std::int32_t {
  kScalar = 0,  // portable, always available
  kAvx2 = 1,    // 8-wide AVX2 (+FMA cpuid gate), x86-64 only
};

std::string to_string(Level level);

// One row of candidate pairs: positions i in [i_begin, i_end) against the
// fixed position j. `xs`/`ys` are position-indexed SoA coordinates;
// xs[i + 1] must be readable for every evaluated i (the staged +1
// successor entry, wrapping to position 0 at the tour end). `succ_len`,
// indexed like xs, holds |i, i+1| for every evaluated i (SoaCoords stages
// it once per pass); nullptr derives each length inline from xs/ys, for
// callers without a staged copy (the tiled engine's shared-memory ranges).
// `tiles` (SoaCoords::tiles(), staged from the same xs/ys/lengths, with
// xs[0] at route position 0) turns on the tile reach filter; nullptr
// tests pairs and blocks only.
struct RowArgs {
  const float* xs = nullptr;
  const float* ys = nullptr;
  std::int32_t i_begin = 0;
  std::int32_t i_end = 0;
  float xj = 0.0f, yj = 0.0f;    // coordinate of position j
  float xj1 = 0.0f, yj1 = 0.0f;  // successor of j (wraps at the tour end)
  const std::int32_t* succ_len = nullptr;
  const TileGroup* tiles = nullptr;
};

// Row result: the lexicographic minimum of (delta, i) over the row's
// non-worsening pairs (delta <= 0), matching consider_move's tie-break.
// kNoMove means no pair of the row had delta <= 0. `skipped` counts the
// row's pairs the reach filter proved delta > 0 without their second
// distance; they are still decided pairs (counted checks).
struct RowBest {
  static constexpr std::int32_t kNoMove = 1;
  std::int32_t delta = kNoMove;
  std::int32_t i = -1;
  std::int32_t skipped = 0;

  bool found() const { return delta <= 0; }
};

using RowKernelFn = RowBest (*)(const RowArgs&);

// One pruned candidate row: the k neighbor-list candidates of the city at
// tour position p (solver/twoopt_simd_pruned.hpp). A "city id" here is
// whatever numbering the caller keys its arrays by consistently; the
// pruned engines pass spatial labels (solver/pruned_sweep.hpp), and the
// kernels only index with them. Unlike the triangle row kernel this one
// writes per-candidate results instead of reducing: out_delta[c] is the
// exact 2-opt delta of the pair {p, out_q[c]} and out_q[c] the candidate
// neighbor's tour position. The caller folds the k buffered results
// through consider_move, which preserves the engines' (delta, pair-index)
// tie-break without tracking 64-bit pair indices in lanes (pair_index
// exceeds 32 bits past n ~ 65k). out_min receives the row's minimum
// delta, so the caller can skip that scalar fold whenever the row cannot
// beat or tie the incumbent best, and derive the don't-look decision (any
// delta < 0?) from the sign alone.
//
// The delta uses the symmetric rearrangement
//
//   delta = cand_dist[c] + |(p+1)->(q+1)| - succ_len[p] - succ_len[q]
//
// which needs no min/max on (p, q): integer adds are exact and every
// distance term is the same dist_euc2d value the full formula computes, so
// the result is bit-identical to two_opt_delta(min(p,q), max(p,q)) — the
// degenerate adjacent pairs and the wraparound pair {0, n-1} evaluate to
// exactly 0, as everywhere else.
struct CandRowArgs {
  const float* xs = nullptr;  // position-indexed SoA coords, n + 1 entries
  const float* ys = nullptr;
  const std::int32_t* succ_len = nullptr;   // n: |pos -> pos+1| per position
  const std::int32_t* positions = nullptr;  // n: city id -> tour position
  const std::int32_t* nbr_ids = nullptr;    // k: neighbor city ids
  const std::int32_t* cand_dist = nullptr;  // k: |city -> neighbor|
  std::int32_t k = 0;
  std::int32_t p = 0;                 // tour position of the row's city
  std::int32_t* out_delta = nullptr;  // k results
  std::int32_t* out_q = nullptr;      // k neighbor tour positions
  std::int32_t* out_min = nullptr;    // 1: min of out_delta[0..k)
};

using CandRowKernelFn = void (*)(const CandRowArgs&);

// Per-city candidate record, staged once per pass (engine host code):
// everything a candidate contributes to the symmetric delta besides its
// precomputed edge length, packed so one candidate touches one 16-byte
// slot — a single cache line — instead of four position-indexed arrays.
// On gather-slow CPUs this is what makes the sweep kernel fast: eight
// records load as eight 128-bit vectors and transpose to SoA lanes in
// registers, no gather instructions at all.
struct alignas(16) CandRecord {
  float x_succ = 0.0f;           // xs[pos + 1]
  float y_succ = 0.0f;           // ys[pos + 1]
  std::int32_t succ_len = 0;     // |pos -> pos + 1|
  std::int32_t pos = 0;          // the city's tour position
};

// Whole-pass minimum sweep: for every listed row, the minimum candidate
// delta — nothing else. The engine gates the exact consider_move fold
// (via cand_row) on this minimum, so the expensive full-delta pass only
// runs for rows that can beat or tie the incumbent best; the don't-look
// decision is its sign. Keeping the row loop inside the kernel lets the
// core overlap independent rows' memory traffic, which a per-row
// indirect call defeats. Deltas are the same arithmetic as cand_row on
// the same values (records are copies of the position-indexed arrays),
// so the minima are bit-identical to cand_row's out_min.
struct CandSweepArgs {
  const CandRecord* recs = nullptr;         // n records, city-id indexed
  const std::int32_t* ids = nullptr;        // n x k_pad padded ids, city-major
  const std::int32_t* cand_dist = nullptr;  // n x k_pad edge lengths
  std::int32_t k_pad = 0;                   // row stride, multiple of width
  const std::int32_t* rows = nullptr;       // city ids of the rows to sweep
  std::int32_t num_rows = 0;
  std::int32_t* out_min = nullptr;          // num_rows minima
};

using CandSweepFn = void (*)(const CandSweepArgs&);

// A resolved kernel set. `width` is the lane count W; rows shorter than W
// (and the final len % W positions of longer rows) run in the scalar tail.
struct Kernels {
  Level level = Level::kScalar;
  const char* name = "scalar";
  std::int32_t width = 1;
  RowKernelFn row = nullptr;
  CandRowKernelFn cand_row = nullptr;
  CandSweepFn cand_sweep = nullptr;

  std::int64_t vector_pairs(std::int64_t row_len) const {
    return row_len - row_len % width;
  }
  std::int64_t tail_pairs(std::int64_t row_len) const {
    return row_len % width;
  }
};

// True when the running CPU can execute `level` (kScalar is always true;
// kAvx2 requires the AVX2 and FMA CPUID bits).
bool cpu_supports(Level level);

// Kernel set for an explicitly chosen level. CHECK-fails if the CPU does
// not support it — callers probing optional levels use cpu_supports first.
const Kernels& kernels(Level level);

// Every level the running CPU supports, in ascending width order.
std::vector<Level> supported_levels();

// The process-wide kernel set: the widest supported level, unless the
// TSPOPT_SIMD environment variable (scalar|avx2) overrides it. Resolved
// once at first use; an override naming an unsupported or unknown level
// CHECK-fails rather than silently falling back.
const Kernels& active();

// Resolution rule behind active(), exposed for tests: `override` mimics
// the TSPOPT_SIMD value (nullptr = unset).
const Kernels& resolve(const char* override_value);

}  // namespace tspopt::simd
