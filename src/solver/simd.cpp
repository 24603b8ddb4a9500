#include "solver/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TSPOPT_SIMD_X86 1
#include <immintrin.h>
#else
#define TSPOPT_SIMD_X86 0
#endif

namespace tspopt::simd {

namespace {

// The paper's Listing-1 distance (see tsp/metric.hpp dist_euc2d), on bare
// floats. Plain mul/add/sqrt/truncate: each step is a correctly-rounded
// IEEE single operation, so the AVX2 kernel's lane arithmetic reproduces
// it bit-for-bit. The build disables FP contraction globally so neither
// path fuses the sum of squares into an FMA behind our back.
inline std::int32_t dist_offset(float dx, float dy) {
  return static_cast<std::int32_t>(std::sqrt(dx * dx + dy * dy) + 0.5f);
}

inline std::int32_t dist_f(float ax, float ay, float bx, float by) {
  return dist_offset(ax - bx, ay - by);
}

constexpr std::int32_t kTileShift = SoaCoords::kTileShift;
constexpr std::int32_t kLanes = TileGroup::kLanes;

// The tile reach filter (see simd.hpp): true when every position i of
// tile t has d(i, j) > |i, i+1| + |j, j+1|, proved from j's offset to the
// tile's box, each axis clamped at 0, and the tile's longest successor
// edge. `removed_jj1` is |j, j+1|.
inline bool tile_beyond(const RowArgs& a, std::int32_t t,
                        std::int32_t removed_jj1) {
  const TileGroup& g = a.tiles[t / kLanes];
  const std::int32_t l = t % kLanes;
  const float dx = std::max({g.x_lo[l] - a.xj, a.xj - g.x_hi[l], 0.0f});
  const float dy = std::max({g.y_lo[l] - a.yj, a.yj - g.y_hi[l], 0.0f});
  return dist_offset(dx, dy) > g.max_succ_len[l] + removed_jj1;
}

// One pair through the reach filter. Returns false, with *delta unset,
// when d(i, j) alone exceeds the two removed edges: then delta =
// d(i, j) + d(i+1, j+1) - removed > 0 because d(i+1, j+1) >= 0. Otherwise
// *delta is the exact 2-opt delta. `removed_jj1` is |j, j+1|.
inline bool reach_pair(const RowArgs& a, std::int32_t i,
                       std::int32_t removed_jj1, std::int32_t* delta) {
  const std::int32_t near = dist_f(a.xs[i], a.ys[i], a.xj, a.yj);
  const std::int32_t removed =
      (a.succ_len != nullptr
           ? a.succ_len[i]
           : dist_f(a.xs[i], a.ys[i], a.xs[i + 1], a.ys[i + 1])) +
      removed_jj1;
  if (near > removed) return false;
  *delta = (near + dist_f(a.xs[i + 1], a.ys[i + 1], a.xj1, a.yj1)) - removed;
  return true;
}

// Scalar pairs [i, i_end) into `best`. Strict < keeps the earliest
// (smallest-i) move on delta ties, and the kNoMove sentinel (+1) admits
// every delta <= 0 exactly once. With tiles, the pairs of a tile that
// tile_beyond clears are skipped without a distance.
inline void row_pairs_scalar(const RowArgs& a, std::int32_t i,
                             std::int32_t removed_jj1, RowBest& best) {
  while (i < a.i_end) {
    std::int32_t run_end = a.i_end;
    if (a.tiles != nullptr) {
      const std::int32_t t = i >> kTileShift;
      run_end = std::min((t + 1) << kTileShift, a.i_end);
      if (tile_beyond(a, t, removed_jj1)) {
        best.skipped += run_end - i;
        i = run_end;
        continue;
      }
    }
    for (; i < run_end; ++i) {
      std::int32_t d = 0;
      if (!reach_pair(a, i, removed_jj1, &d)) {
        ++best.skipped;
      } else if (d < best.delta) {
        best.delta = d;
        best.i = i;
      }
    }
  }
}

RowBest row_scalar(const RowArgs& a) {
  // The removed edge (j, j+1) is row-constant; hoist its length.
  RowBest best;
  row_pairs_scalar(a, a.i_begin, dist_f(a.xj, a.yj, a.xj1, a.yj1), best);
  return best;
}

void cand_row_scalar(const CandRowArgs& a) {
  // The row's city contributes two row-constant terms: its successor
  // coordinate (the added edge's second endpoint) and its removed
  // successor-edge length.
  const float xp1 = a.xs[a.p + 1];
  const float yp1 = a.ys[a.p + 1];
  const std::int32_t slp = a.succ_len[a.p];
  std::int32_t row_min = std::numeric_limits<std::int32_t>::max();
  for (std::int32_t c = 0; c < a.k; ++c) {
    std::int32_t q = a.positions[a.nbr_ids[c]];
    std::int32_t d =
        (a.cand_dist[c] + dist_f(xp1, yp1, a.xs[q + 1], a.ys[q + 1])) -
        (slp + a.succ_len[q]);
    a.out_delta[c] = d;
    a.out_q[c] = q;
    row_min = std::min(row_min, d);
  }
  *a.out_min = row_min;
}

void cand_sweep_scalar(const CandSweepArgs& a) {
  for (std::int32_t r = 0; r < a.num_rows; ++r) {
    const std::int32_t city = a.rows[r];
    const CandRecord& own = a.recs[city];
    const std::int32_t* ids = a.ids + static_cast<std::size_t>(city) *
                                          static_cast<std::size_t>(a.k_pad);
    const std::int32_t* cds =
        a.cand_dist + static_cast<std::size_t>(city) *
                          static_cast<std::size_t>(a.k_pad);
    std::int32_t row_min = std::numeric_limits<std::int32_t>::max();
    for (std::int32_t c = 0; c < a.k_pad; ++c) {
      const CandRecord& rec = a.recs[ids[c]];
      std::int32_t d =
          (cds[c] + dist_f(own.x_succ, own.y_succ, rec.x_succ, rec.y_succ)) -
          (own.succ_len + rec.succ_len);
      row_min = std::min(row_min, d);
    }
    a.out_min[r] = row_min;
  }
}

#if TSPOPT_SIMD_X86

__attribute__((target("avx2,fma"))) inline __m256i dist_v(__m256 ax, __m256 ay,
                                                          __m256 bx,
                                                          __m256 by) {
  __m256 dx = _mm256_sub_ps(ax, bx);
  __m256 dy = _mm256_sub_ps(ay, by);
  // Deliberately mul+add (not FMA): must match the scalar dist bit-exactly.
  __m256 s = _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy));
  __m256 r = _mm256_add_ps(_mm256_sqrt_ps(s), _mm256_set1_ps(0.5f));
  return _mm256_cvttps_epi32(r);  // truncation, as static_cast<int32>
}

// tile_beyond for the eight tiles of `g` at once, as lane bits: the same
// clamped box offsets and distance arithmetic, lane by lane. Lanes past
// the last tile hold no positions: whatever their bits, a row ends
// before them.
__attribute__((target("avx2,fma"))) inline std::uint32_t tile_group_beyond(
    const TileGroup& g, __m256 xj, __m256 yj, __m256i removed_jj1) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 dx = _mm256_max_ps(
      _mm256_max_ps(_mm256_sub_ps(_mm256_load_ps(g.x_lo), xj),
                    _mm256_sub_ps(xj, _mm256_load_ps(g.x_hi))),
      zero);
  const __m256 dy = _mm256_max_ps(
      _mm256_max_ps(_mm256_sub_ps(_mm256_load_ps(g.y_lo), yj),
                    _mm256_sub_ps(yj, _mm256_load_ps(g.y_hi))),
      zero);
  const __m256i bound = _mm256_add_epi32(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(g.max_succ_len)),
      removed_jj1);
  const __m256i beyond =
      _mm256_cmpgt_epi32(dist_v(dx, dy, zero, zero), bound);
  return static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(beyond)));
}

// kStaged reads |i, i+1| from a.succ_len; otherwise each block derives
// it from the successor loads it already holds. A template parameter, not
// a per-block branch, so neither variant pays for the other.
template <bool kStaged>
__attribute__((target("avx2,fma"))) RowBest row_avx2_body(const RowArgs& a) {
  constexpr std::int32_t kW = 8;
  const std::int32_t djj1 = dist_f(a.xj, a.yj, a.xj1, a.yj1);

  const __m256 xj = _mm256_set1_ps(a.xj);
  const __m256 yj = _mm256_set1_ps(a.yj);
  const __m256 xj1 = _mm256_set1_ps(a.xj1);
  const __m256 yj1 = _mm256_set1_ps(a.yj1);
  const __m256i removed_jj1 = _mm256_set1_epi32(djj1);

  __m256i best_d = _mm256_set1_epi32(RowBest::kNoMove);
  __m256i best_i = _mm256_set1_epi32(-1);
  __m256i iv = _mm256_add_epi32(_mm256_set1_epi32(a.i_begin),
                                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::int32_t skipped = 0;

  // Cleared-tile bits of one tile group, tested eight tiles at a time.
  std::int32_t group = -1;
  std::uint32_t cleared_tiles = 0;

  std::int32_t i = a.i_begin;
  while (i + kW <= a.i_end) {
    // Blocks run while i + kW <= run_end: the whole row without tiles;
    // with tiles, the blocks wholly inside one tile the tile test does
    // not clear, or one block that leaves a tile.
    std::int32_t run_end = a.i_end;
    if (a.tiles != nullptr) {
      const std::int32_t t = i >> kTileShift;
      if (t / kLanes != group) {
        group = t / kLanes;
        cleared_tiles =
            tile_group_beyond(a.tiles[group], xj, yj, removed_jj1);
      }
      // Tile t and the cleared tiles after it in its group form a run
      // (empty when t is not cleared); every block wholly inside the run
      // is skipped.
      const std::uint32_t ahead = cleared_tiles >> (t % kLanes);
      const std::int32_t cleared_end = std::min(
          (t + static_cast<std::int32_t>(__builtin_ctz(~ahead)))
              << kTileShift,
          a.i_end);
      if (cleared_end - i >= kW) {
        const std::int32_t span = (cleared_end - i) / kW * kW;
        skipped += span;
        i += span;
        iv = _mm256_add_epi32(iv, _mm256_set1_epi32(span));
        continue;
      }
      const std::int32_t tile_end =
          std::min((t + 1) << kTileShift, a.i_end);
      run_end = (ahead & 1u) != 0 ? i + kW : std::max(tile_end, i + kW);
    }
    for (; i + kW <= run_end; i += kW) {
      // Coalesced SoA loads: positions i..i+7 and their +1 successors.
      __m256 xi = _mm256_loadu_ps(a.xs + i);
      __m256 yi = _mm256_loadu_ps(a.ys + i);
      __m256 xi1 = _mm256_loadu_ps(a.xs + i + 1);
      __m256 yi1 = _mm256_loadu_ps(a.ys + i + 1);

      __m256i succ;
      if constexpr (kStaged) {
        succ = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a.succ_len + i));
      } else {
        succ = dist_v(xi, yi, xi1, yi1);
      }
      __m256i removed = _mm256_add_epi32(succ, removed_jj1);
      __m256i near = dist_v(xi, yi, xj, yj);

      // Reach filter: a block whose every lane has d(i, j) > removed holds
      // only delta > 0 pairs, none of which can enter the lane minimum.
      __m256i beyond = _mm256_cmpgt_epi32(near, removed);
      if (_mm256_movemask_ps(_mm256_castsi256_ps(beyond)) == 0xFF) {
        skipped += kW;
      } else {
        __m256i d = _mm256_sub_epi32(
            _mm256_add_epi32(near, dist_v(xi1, yi1, xj1, yj1)), removed);
        // d < best_d per lane: strict, so the earliest i wins lane-local
        // ties (i only grows within a lane).
        __m256i take = _mm256_cmpgt_epi32(best_d, d);
        best_d = _mm256_blendv_epi8(best_d, d, take);
        best_i = _mm256_blendv_epi8(best_i, iv, take);
      }
      iv = _mm256_add_epi32(iv, _mm256_set1_epi32(kW));
    }
  }

  // Horizontal reduction: lexicographic (delta, i) minimum across lanes.
  // Lane order does not encode i order across steps, so compare stored i.
  alignas(32) std::int32_t lane_d[kW];
  alignas(32) std::int32_t lane_i[kW];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_d), best_d);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_i), best_i);
  RowBest best;
  best.skipped = skipped;
  for (std::int32_t l = 0; l < kW; ++l) {
    if (lane_d[l] < best.delta ||
        (lane_d[l] == best.delta && best.found() && lane_i[l] < best.i)) {
      best.delta = lane_d[l];
      best.i = lane_i[l];
    }
  }

  // Scalar tail for the remaining len % W positions (tiles still apply).
  // Their i exceeds every vectorized i, so a tail move must be strictly
  // better to win.
  row_pairs_scalar(a, i, djj1, best);
  return best;
}

__attribute__((target("avx2,fma"))) RowBest row_avx2(const RowArgs& a) {
  return a.succ_len != nullptr ? row_avx2_body<true>(a)
                               : row_avx2_body<false>(a);
}

// Candidate rows vectorize the gather-heavy side: 8 candidates load their
// neighbor ids contiguously, gather their tour positions, successor
// coordinates and removed-edge lengths, and evaluate one 8-lane distance.
// Results are stored, not reduced — the delta arithmetic (int adds around
// one dist_v call) matches cand_row_scalar bit-for-bit.
__attribute__((target("avx2,fma"))) void cand_row_avx2(const CandRowArgs& a) {
  constexpr std::int32_t kW = 8;
  const float xp1 = a.xs[a.p + 1];
  const float yp1 = a.ys[a.p + 1];
  const std::int32_t slp = a.succ_len[a.p];

  const __m256 xp1v = _mm256_set1_ps(xp1);
  const __m256 yp1v = _mm256_set1_ps(yp1);
  const __m256i slpv = _mm256_set1_epi32(slp);
  const __m256i one = _mm256_set1_epi32(1);
  __m256i mnv = _mm256_set1_epi32(std::numeric_limits<std::int32_t>::max());

  std::int32_t c = 0;
  for (; c + kW <= a.k; c += kW) {
    __m256i ids = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a.nbr_ids + c));
    __m256i q = _mm256_i32gather_epi32(a.positions, ids, 4);
    __m256i q1 = _mm256_add_epi32(q, one);
    __m256 xq1 = _mm256_i32gather_ps(a.xs, q1, 4);
    __m256 yq1 = _mm256_i32gather_ps(a.ys, q1, 4);
    __m256i slq = _mm256_i32gather_epi32(a.succ_len, q, 4);
    __m256i cd = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a.cand_dist + c));

    __m256i d = _mm256_sub_epi32(
        _mm256_add_epi32(cd, dist_v(xp1v, yp1v, xq1, yq1)),
        _mm256_add_epi32(slpv, slq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out_delta + c), d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out_q + c), q);
    mnv = _mm256_min_epi32(mnv, d);
  }

  // Lane-reduce the vectorized minimum, then fold the k % W scalar-tail
  // candidates into it (padded callers have no tail).
  alignas(32) std::int32_t lanes[kW];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), mnv);
  std::int32_t row_min = std::numeric_limits<std::int32_t>::max();
  for (std::int32_t l = 0; l < kW; ++l) row_min = std::min(row_min, lanes[l]);
  for (; c < a.k; ++c) {
    std::int32_t q = a.positions[a.nbr_ids[c]];
    std::int32_t d =
        (a.cand_dist[c] + dist_f(xp1, yp1, a.xs[q + 1], a.ys[q + 1])) -
        (slp + a.succ_len[q]);
    a.out_delta[c] = d;
    a.out_q[c] = q;
    row_min = std::min(row_min, d);
  }
  *a.out_min = row_min;
}

// The whole-pass minimum sweep. Per 8-candidate group: 8 record loads
// (one 16-byte slot each) transpose in registers to x/y/succ_len lanes —
// no gather instructions, which on older cores cost several times a
// plain load per lane. The row loop stays inside the kernel so the
// out-of-order core overlaps the independent rows' L2 traffic.
__attribute__((target("avx2,fma"))) void cand_sweep_avx2(
    const CandSweepArgs& a) {
  constexpr std::int32_t kW = 8;
  const CandRecord* recs = a.recs;
  for (std::int32_t r = 0; r < a.num_rows; ++r) {
    const std::int32_t city = a.rows[r];
    const CandRecord& own = recs[city];
    const std::int32_t* ids = a.ids + static_cast<std::size_t>(city) *
                                          static_cast<std::size_t>(a.k_pad);
    const std::int32_t* cds =
        a.cand_dist + static_cast<std::size_t>(city) *
                          static_cast<std::size_t>(a.k_pad);
    const __m256 xp1 = _mm256_set1_ps(own.x_succ);
    const __m256 yp1 = _mm256_set1_ps(own.y_succ);
    const __m256i slp = _mm256_set1_epi32(own.succ_len);
    __m256i mn = _mm256_set1_epi32(std::numeric_limits<std::int32_t>::max());
    for (std::int32_t c = 0; c < a.k_pad; c += kW) {
      __m128 r0 = _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c]));
      __m128 r1 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 1]));
      __m128 r2 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 2]));
      __m128 r3 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 3]));
      __m128 r4 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 4]));
      __m128 r5 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 5]));
      __m128 r6 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 6]));
      __m128 r7 =
          _mm_load_ps(reinterpret_cast<const float*>(recs + ids[c + 7]));
      // 8x4 transpose of {x, y, sl, pos} records into SoA lanes (pos is
      // not needed for the minimum and falls out of the shuffles).
      __m256 g04 = _mm256_set_m128(r4, r0);
      __m256 g15 = _mm256_set_m128(r5, r1);
      __m256 g26 = _mm256_set_m128(r6, r2);
      __m256 g37 = _mm256_set_m128(r7, r3);
      __m256 lo01 = _mm256_unpacklo_ps(g04, g15);  // x0 x1 y0 y1 | x4 x5 ..
      __m256 lo23 = _mm256_unpacklo_ps(g26, g37);  // x2 x3 y2 y3 | x6 x7 ..
      __m256 hi01 = _mm256_unpackhi_ps(g04, g15);  // sl0 sl1 .. | sl4 sl5 ..
      __m256 hi23 = _mm256_unpackhi_ps(g26, g37);
      __m256 xq = _mm256_shuffle_ps(lo01, lo23, 0x44);
      __m256 yq = _mm256_shuffle_ps(lo01, lo23, 0xEE);
      __m256i slq =
          _mm256_castps_si256(_mm256_shuffle_ps(hi01, hi23, 0x44));
      __m256i cd =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cds + c));
      __m256i d = _mm256_sub_epi32(
          _mm256_add_epi32(cd, dist_v(xp1, yp1, xq, yq)),
          _mm256_add_epi32(slp, slq));
      mn = _mm256_min_epi32(mn, d);
    }
    alignas(32) std::int32_t lanes[kW];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), mn);
    std::int32_t row_min = lanes[0];
    for (std::int32_t l = 1; l < kW; ++l) {
      row_min = std::min(row_min, lanes[l]);
    }
    a.out_min[r] = row_min;
  }
}

#endif  // TSPOPT_SIMD_X86

const Kernels kScalarKernels{Level::kScalar, "scalar", 1, &row_scalar,
                             &cand_row_scalar, &cand_sweep_scalar};
#if TSPOPT_SIMD_X86
const Kernels kAvx2Kernels{Level::kAvx2, "avx2", 8, &row_avx2,
                           &cand_row_avx2, &cand_sweep_avx2};
#endif

}  // namespace

std::string to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool cpu_supports(Level level) {
  if (level == Level::kScalar) return true;
#if TSPOPT_SIMD_X86
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return false;
}

const Kernels& kernels(Level level) {
  TSPOPT_CHECK_MSG(cpu_supports(level),
                   "SIMD level " << to_string(level)
                                 << " not supported by this CPU");
  switch (level) {
    case Level::kScalar:
      return kScalarKernels;
    case Level::kAvx2:
#if TSPOPT_SIMD_X86
      return kAvx2Kernels;
#else
      break;
#endif
  }
  TSPOPT_CHECK_MSG(false, "unreachable SIMD level");
  return kScalarKernels;
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels = {Level::kScalar};
  if (cpu_supports(Level::kAvx2)) levels.push_back(Level::kAvx2);
  return levels;
}

const Kernels& resolve(const char* override_value) {
  if (override_value != nullptr && override_value[0] != '\0') {
    std::string v = override_value;
    TSPOPT_CHECK_MSG(v == "scalar" || v == "avx2",
                     "TSPOPT_SIMD must be 'scalar' or 'avx2' (got '" << v
                                                                     << "')");
    return kernels(v == "avx2" ? Level::kAvx2 : Level::kScalar);
  }
  return cpu_supports(Level::kAvx2) ? kernels(Level::kAvx2)
                                    : kScalarKernels;
}

const Kernels& active() {
  static const Kernels& chosen = resolve(std::getenv("TSPOPT_SIMD"));
  return chosen;
}

}  // namespace tspopt::simd
