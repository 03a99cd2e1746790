// Portable vector kernels for the column-major (SoA) hot loops.
//
// Four kernels cover the vectorized inner loops: linear scoring of a
// block of member columns fused with a per-column bar test (SB-alt's
// batch search scores a fetched function against every active member
// and learns which members' bests it may beat), first-dominator search
// over a block of skyline columns (SkylineSet::FindDominator),
// fractional-knapsack score bounds over a batch of members (SB-alt's
// fetch-worthiness probe), and fixed-width id decode (the packed
// function-list block payloads). The first two operate on dim-major
// float columns: `cols[d * stride + j]` is coordinate d of column j,
// so one vector load touches consecutive columns of one dimension; the
// knapsack kernel instead lanes over members (gathered rows), and the
// id decoder is a pure integer widening pass.
//
// Backend selection is at compile time: AVX2 when the target enables
// it, else SSE2 (any x86-64), else NEON (aarch64), else the scalar
// reference. -DFAIRMATCH_SIMD=OFF (CMake) defines
// FAIRMATCH_SIMD_DISABLED and forces the scalar reference everywhere.
//
// Every backend is bit-identical to the scalar reference, which is
// what lets the bench regression gate compare SIMD and scalar builds
// row by row:
//  * scoring lanes accumulate per column in ascending-dimension order
//    with separate IEEE mul and add (no FMA contraction, no horizontal
//    reduction), exactly the scalar sequence;
//  * bar and dominance tests are comparisons, which carry no rounding
//    at all.
// tests/perf_util_test.cc checks every kernel against its reference
// on randomized blocks, and the FAIRMATCH_SIMD=OFF CI leg re-runs the
// full suite and smoke sweep on the scalar build.
#ifndef FAIRMATCH_COMMON_SIMD_H_
#define FAIRMATCH_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#if !defined(FAIRMATCH_SIMD_DISABLED) && defined(__AVX2__)
#define FAIRMATCH_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(FAIRMATCH_SIMD_DISABLED) && \
    (defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__))
#define FAIRMATCH_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(FAIRMATCH_SIMD_DISABLED) && defined(__ARM_NEON)
#define FAIRMATCH_SIMD_NEON 1
#include <arm_neon.h>
#else
#define FAIRMATCH_SIMD_SCALAR 1
#endif

namespace fairmatch::simd {

/// Active backend, for diagnostics and bench row labels.
inline const char* BackendName() {
#if defined(FAIRMATCH_SIMD_AVX2)
  return "avx2";
#elif defined(FAIRMATCH_SIMD_SSE2)
  return "sse2";
#elif defined(FAIRMATCH_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// True when a vector backend is compiled in (bench labeling).
inline constexpr bool kVectorized =
#if defined(FAIRMATCH_SIMD_SCALAR)
    false;
#else
    true;
#endif

// ---------------------------------------------------------------------
// Kernel 1 — fused block scoring and bar test: for the kScoreBlock
// columns of one block, score[j] = sum_d weights[d] * cols[d*stride+j];
// returns the mask of lanes j < count whose score is >= bars[j] (bit j
// for lane j) and leaves those lanes' scores in out[j] (`out` holds
// kScoreBlock doubles). Callers pad `cols` (every dimension's row) and
// `bars` to a whole block: the kernel reads all kScoreBlock lanes and
// masks those at or beyond `count`, so there is no scalar tail.
// ---------------------------------------------------------------------

/// Columns per Kernel 1 block: four vectors of double accumulators.
inline constexpr int kScoreBlock =
#if defined(FAIRMATCH_SIMD_AVX2)
    16;
#else
    8;
#endif

/// `count` columns rounded up to whole Kernel 1 blocks: the padded
/// stride of a column block that the kernel walks to its end.
inline size_t ScoreBlockStride(size_t count) {
  return (count + kScoreBlock - 1) / kScoreBlock * kScoreBlock;
}

/// Bits of the lanes below `count` in one block.
inline uint32_t LiveLanes(int count) {
  if (count <= 0) return 0;
  if (count >= kScoreBlock) return (uint32_t{1} << kScoreBlock) - 1;
  return (uint32_t{1} << count) - 1;
}

/// Scalar reference. Per column the products are accumulated in
/// ascending-dimension order from 0.0 with separate IEEE mul and add;
/// every backend reproduces this sequence lane-for-lane. Writes out[j]
/// for the hit lanes only.
inline uint32_t ScoreBlockAtLeastScalar(const float* cols, size_t stride,
                                        int dims, const double* weights,
                                        const double* bars, int count,
                                        double* out) {
  const int n = count < kScoreBlock ? count : kScoreBlock;
  uint32_t mask = 0;
  for (int j = 0; j < n; ++j) {
    double s = 0.0;
    for (int d = 0; d < dims; ++d) {
      s += weights[d] * static_cast<double>(cols[static_cast<size_t>(d) *
                                                     stride + j]);
    }
    if (s >= bars[j]) {
      mask |= uint32_t{1} << j;
      out[j] = s;
    }
  }
  return mask;
}

/// Vector backends hold the block's accumulators in registers across
/// the whole dimension loop, compare them with the bars in place and
/// store them only when some live lane hits (nearly never on SB-alt's
/// scan, where a fetched function rarely beats any member's best), so
/// out[j] of a non-hit lane may hold anything.
inline uint32_t ScoreBlockAtLeast(const float* cols, size_t stride, int dims,
                                  const double* weights, const double* bars,
                                  int count, double* out) {
#if defined(FAIRMATCH_SIMD_AVX2)
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  for (int d = 0; d < dims; ++d) {
    const float* col = cols + static_cast<size_t>(d) * stride;
    const __m256d w = _mm256_set1_pd(weights[d]);
    a0 = _mm256_add_pd(a0,
                       _mm256_mul_pd(w, _mm256_cvtps_pd(_mm_loadu_ps(col))));
    a1 = _mm256_add_pd(
        a1, _mm256_mul_pd(w, _mm256_cvtps_pd(_mm_loadu_ps(col + 4))));
    a2 = _mm256_add_pd(
        a2, _mm256_mul_pd(w, _mm256_cvtps_pd(_mm_loadu_ps(col + 8))));
    a3 = _mm256_add_pd(
        a3, _mm256_mul_pd(w, _mm256_cvtps_pd(_mm_loadu_ps(col + 12))));
  }
  const auto ge = [bars](__m256d a, int lane) {
    return static_cast<uint32_t>(_mm256_movemask_pd(
               _mm256_cmp_pd(a, _mm256_loadu_pd(bars + lane), _CMP_GE_OQ)))
           << lane;
  };
  const uint32_t mask =
      (ge(a0, 0) | ge(a1, 4) | ge(a2, 8) | ge(a3, 12)) & LiveLanes(count);
  if (mask != 0) {
    _mm256_storeu_pd(out, a0);
    _mm256_storeu_pd(out + 4, a1);
    _mm256_storeu_pd(out + 8, a2);
    _mm256_storeu_pd(out + 12, a3);
  }
  return mask;
#elif defined(FAIRMATCH_SIMD_SSE2)
  const auto load2 = [](const float* p) {
    return _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  };
  __m128d a0 = _mm_setzero_pd();
  __m128d a1 = _mm_setzero_pd();
  __m128d a2 = _mm_setzero_pd();
  __m128d a3 = _mm_setzero_pd();
  for (int d = 0; d < dims; ++d) {
    const float* col = cols + static_cast<size_t>(d) * stride;
    const __m128d w = _mm_set1_pd(weights[d]);
    a0 = _mm_add_pd(a0, _mm_mul_pd(w, load2(col)));
    a1 = _mm_add_pd(a1, _mm_mul_pd(w, load2(col + 2)));
    a2 = _mm_add_pd(a2, _mm_mul_pd(w, load2(col + 4)));
    a3 = _mm_add_pd(a3, _mm_mul_pd(w, load2(col + 6)));
  }
  const auto ge = [bars](__m128d a, int lane) {
    return static_cast<uint32_t>(
               _mm_movemask_pd(_mm_cmpge_pd(a, _mm_loadu_pd(bars + lane))))
           << lane;
  };
  const uint32_t mask =
      (ge(a0, 0) | ge(a1, 2) | ge(a2, 4) | ge(a3, 6)) & LiveLanes(count);
  if (mask != 0) {
    _mm_storeu_pd(out, a0);
    _mm_storeu_pd(out + 2, a1);
    _mm_storeu_pd(out + 4, a2);
    _mm_storeu_pd(out + 6, a3);
  }
  return mask;
#elif defined(FAIRMATCH_SIMD_NEON)
  float64x2_t a0 = vdupq_n_f64(0.0);
  float64x2_t a1 = vdupq_n_f64(0.0);
  float64x2_t a2 = vdupq_n_f64(0.0);
  float64x2_t a3 = vdupq_n_f64(0.0);
  for (int d = 0; d < dims; ++d) {
    const float* col = cols + static_cast<size_t>(d) * stride;
    const float64x2_t w = vdupq_n_f64(weights[d]);
    a0 = vaddq_f64(a0, vmulq_f64(w, vcvt_f64_f32(vld1_f32(col))));
    a1 = vaddq_f64(a1, vmulq_f64(w, vcvt_f64_f32(vld1_f32(col + 2))));
    a2 = vaddq_f64(a2, vmulq_f64(w, vcvt_f64_f32(vld1_f32(col + 4))));
    a3 = vaddq_f64(a3, vmulq_f64(w, vcvt_f64_f32(vld1_f32(col + 6))));
  }
  const auto ge = [bars](float64x2_t a, int lane) {
    const uint64x2_t hit = vcgeq_f64(a, vld1q_f64(bars + lane));
    return static_cast<uint32_t>((vgetq_lane_u64(hit, 0) & 1) |
                                 (vgetq_lane_u64(hit, 1) & 2))
           << lane;
  };
  const uint32_t mask =
      (ge(a0, 0) | ge(a1, 2) | ge(a2, 4) | ge(a3, 6)) & LiveLanes(count);
  if (mask != 0) {
    vst1q_f64(out, a0);
    vst1q_f64(out + 2, a1);
    vst1q_f64(out + 4, a2);
    vst1q_f64(out + 6, a3);
  }
  return mask;
#else
  return ScoreBlockAtLeastScalar(cols, stride, dims, weights, bars, count,
                                 out);
#endif
}

// ---------------------------------------------------------------------
// Kernel 2 — first dominator: smallest j in [0, count) whose column is
// >= corner in every dimension and > in at least one; -1 if none.
// ---------------------------------------------------------------------

/// Scalar reference (Point::Dominates over one column).
inline int FirstDominatorScalar(const float* cols, size_t stride, int dims,
                                const float* corner, int count) {
  for (int j = 0; j < count; ++j) {
    bool ge = true;
    bool gt = false;
    for (int d = 0; d < dims; ++d) {
      const float v = cols[static_cast<size_t>(d) * stride + j];
      if (v < corner[d]) {
        ge = false;
        break;
      }
      if (v > corner[d]) gt = true;
    }
    if (ge && gt) return j;
  }
  return -1;
}

inline int FirstDominator(const float* cols, size_t stride, int dims,
                          const float* corner, int count) {
#if defined(FAIRMATCH_SIMD_AVX2)
  int j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256 ge = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    __m256 gt = _mm256_setzero_ps();
    for (int d = 0; d < dims; ++d) {
      const __m256 v =
          _mm256_loadu_ps(cols + static_cast<size_t>(d) * stride + j);
      const __m256 c = _mm256_set1_ps(corner[d]);
      ge = _mm256_and_ps(ge, _mm256_cmp_ps(v, c, _CMP_GE_OQ));
      gt = _mm256_or_ps(gt, _mm256_cmp_ps(v, c, _CMP_GT_OQ));
    }
    const int mask = _mm256_movemask_ps(_mm256_and_ps(ge, gt));
    if (mask != 0) return j + __builtin_ctz(mask);
  }
  if (j < count) {
    const int tail =
        FirstDominatorScalar(cols + j, stride, dims, corner, count - j);
    if (tail >= 0) return j + tail;
  }
  return -1;
#elif defined(FAIRMATCH_SIMD_SSE2)
  int j = 0;
  for (; j + 4 <= count; j += 4) {
    __m128 ge = _mm_castsi128_ps(_mm_set1_epi32(-1));
    __m128 gt = _mm_setzero_ps();
    for (int d = 0; d < dims; ++d) {
      const __m128 v =
          _mm_loadu_ps(cols + static_cast<size_t>(d) * stride + j);
      const __m128 c = _mm_set1_ps(corner[d]);
      ge = _mm_and_ps(ge, _mm_cmpge_ps(v, c));
      gt = _mm_or_ps(gt, _mm_cmpgt_ps(v, c));
    }
    const int mask = _mm_movemask_ps(_mm_and_ps(ge, gt));
    if (mask != 0) return j + __builtin_ctz(mask);
  }
  if (j < count) {
    const int tail =
        FirstDominatorScalar(cols + j, stride, dims, corner, count - j);
    if (tail >= 0) return j + tail;
  }
  return -1;
#elif defined(FAIRMATCH_SIMD_NEON)
  int j = 0;
  for (; j + 4 <= count; j += 4) {
    uint32x4_t ge = vdupq_n_u32(0xFFFFFFFFu);
    uint32x4_t gt = vdupq_n_u32(0);
    for (int d = 0; d < dims; ++d) {
      const float32x4_t v =
          vld1q_f32(cols + static_cast<size_t>(d) * stride + j);
      const float32x4_t c = vdupq_n_f32(corner[d]);
      ge = vandq_u32(ge, vcgeq_f32(v, c));
      gt = vorrq_u32(gt, vcgtq_f32(v, c));
    }
    const uint32x4_t hit = vandq_u32(ge, gt);
    if (vmaxvq_u32(hit) != 0) {
      uint32_t lanes[4];
      vst1q_u32(lanes, hit);
      for (int lane = 0; lane < 4; ++lane) {
        if (lanes[lane] != 0) return j + lane;
      }
    }
  }
  if (j < count) {
    const int tail =
        FirstDominatorScalar(cols + j, stride, dims, corner, count - j);
    if (tail >= 0) return j + tail;
  }
  return -1;
#else
  return FirstDominatorScalar(cols, stride, dims, corner, count);
#endif
}

// ---------------------------------------------------------------------
// Kernel 3 — knapsack score bounds: for each listed member m, the
// fractional-knapsack upper bound of an unseen function's score given
// the per-list frontier values (SB-alt's fetch-worthiness probe):
//   bound(m) = coef * pt_m[skip_dim]
//            + sum over k in order_m of clamp(min(budget, frontier[k]))
// with budget starting at budget0 and shrinking by the amount taken,
// and dimension skip_dim (whose exact coefficient `coef` is known)
// contributing nothing to the knapsack.
// ---------------------------------------------------------------------

/// Scalar reference. `pts`/`orders` are row-major member blocks of
/// `stride` floats/ints per row; `members[0..count)` selects the rows.
/// Per lane the products accumulate in the member's `orders` sequence
/// with separate IEEE mul and add; the beta clamp is written so every
/// backend reproduces the same bit pattern (including the +-0 cases).
inline void KnapsackBoundsScalar(const float* pts, const int* orders,
                                 size_t stride, int dims, int skip_dim,
                                 double coef, double budget0,
                                 const double* frontier, const int* members,
                                 int count, double* out) {
  for (int l = 0; l < count; ++l) {
    const int m = members[l];
    const float* pt = pts + static_cast<size_t>(m) * stride;
    const int* order = orders + static_cast<size_t>(m) * stride;
    double budget = budget0;
    double bound = coef * static_cast<double>(pt[skip_dim]);
    for (int j = 0; j < dims; ++j) {
      const int k = order[j];
      double beta = frontier[k] < budget ? frontier[k] : budget;
      if (beta < 0.0) beta = 0.0;
      if (k == skip_dim) beta = 0.0;
      bound += beta * static_cast<double>(pt[k]);
      budget -= beta;
    }
    out[l] = bound;
  }
}

/// AVX2 lanes four members through the same op sequence with gathered
/// rows (min/max/andnot reproduce the scalar clamp bit-for-bit, and the
/// zero-beta lanes add an exact +0.0). SSE2 and NEON have no gather and
/// use the scalar reference, which is what the bit-identity contract
/// requires anyway.
inline void KnapsackBounds(const float* pts, const int* orders, size_t stride,
                           int dims, int skip_dim, double coef, double budget0,
                           const double* frontier, const int* members,
                           int count, double* out) {
#if defined(FAIRMATCH_SIMD_AVX2)
  int l = 0;
  const __m256d zero = _mm256_setzero_pd();
  for (; l + 4 <= count; l += 4) {
    const __m128i mvec =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(members + l));
    const __m128i base =
        _mm_mullo_epi32(mvec, _mm_set1_epi32(static_cast<int>(stride)));
    const __m128 pt_skip = _mm_i32gather_ps(
        pts, _mm_add_epi32(base, _mm_set1_epi32(skip_dim)), 4);
    __m256d bound =
        _mm256_mul_pd(_mm256_set1_pd(coef), _mm256_cvtps_pd(pt_skip));
    __m256d budget = _mm256_set1_pd(budget0);
    for (int j = 0; j < dims; ++j) {
      const __m128i k = _mm_i32gather_epi32(
          orders, _mm_add_epi32(base, _mm_set1_epi32(j)), 4);
      const __m256d fr = _mm256_i32gather_pd(frontier, k, 8);
      __m256d beta = _mm256_max_pd(_mm256_min_pd(budget, fr), zero);
      const __m256d skip_mask = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
          _mm_cmpeq_epi32(k, _mm_set1_epi32(skip_dim))));
      beta = _mm256_andnot_pd(skip_mask, beta);
      const __m128 ptk = _mm_i32gather_ps(pts, _mm_add_epi32(base, k), 4);
      bound = _mm256_add_pd(bound, _mm256_mul_pd(beta, _mm256_cvtps_pd(ptk)));
      budget = _mm256_sub_pd(budget, beta);
    }
    _mm256_storeu_pd(out + l, bound);
  }
  if (l < count) {
    KnapsackBoundsScalar(pts, orders, stride, dims, skip_dim, coef, budget0,
                         frontier, members + l, count - l, out + l);
  }
#else
  KnapsackBoundsScalar(pts, orders, stride, dims, skip_dim, coef, budget0,
                       frontier, members, count, out);
#endif
}

// ---------------------------------------------------------------------
// Kernel 4 — packed id decode: out[i] = base + the i-th little-endian
// unsigned integer of `id_bytes` bytes (1, 2 or 4) in `src`. Integer
// widening is exact, so every backend is trivially bit-identical; the
// vector paths exist for decode throughput (a whole packed block per
// TA probe).
// ---------------------------------------------------------------------

/// Scalar reference.
inline void UnpackIdsScalar(const unsigned char* src, int id_bytes,
                            int32_t base, int count, int32_t* out) {
  for (int i = 0; i < count; ++i) {
    const unsigned char* p = src + static_cast<size_t>(i) * id_bytes;
    uint32_t v = 0;
    for (int b = 0; b < id_bytes; ++b) {
      v |= static_cast<uint32_t>(p[b]) << (8 * b);
    }
    out[i] = base + static_cast<int32_t>(v);
  }
}

inline void UnpackIds(const unsigned char* src, int id_bytes, int32_t base,
                      int count, int32_t* out) {
#if defined(FAIRMATCH_SIMD_AVX2)
  const __m256i vbase = _mm256_set1_epi32(base);
  int i = 0;
  if (id_bytes == 1) {
    for (; i + 8 <= count; i += 8) {
      const __m128i raw =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
      const __m256i v = _mm256_add_epi32(_mm256_cvtepu8_epi32(raw), vbase);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    }
  } else if (id_bytes == 2) {
    for (; i + 8 <= count; i += 8) {
      const __m128i raw = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(src + 2 * static_cast<size_t>(i)));
      const __m256i v = _mm256_add_epi32(_mm256_cvtepu16_epi32(raw), vbase);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    }
  } else if (id_bytes == 4) {
    for (; i + 8 <= count; i += 8) {
      const __m256i raw = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + 4 * static_cast<size_t>(i)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                          _mm256_add_epi32(raw, vbase));
    }
  }
  if (i < count) {
    UnpackIdsScalar(src + static_cast<size_t>(i) * id_bytes, id_bytes, base,
                    count - i, out + i);
  }
#elif defined(FAIRMATCH_SIMD_SSE2)
  const __m128i vbase = _mm_set1_epi32(base);
  const __m128i zero = _mm_setzero_si128();
  int i = 0;
  if (id_bytes == 1) {
    for (; i + 4 <= count; i += 4) {
      int32_t word;
      __builtin_memcpy(&word, src + i, 4);
      __m128i v = _mm_cvtsi32_si128(word);
      v = _mm_unpacklo_epi8(v, zero);
      v = _mm_unpacklo_epi16(v, zero);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(v, vbase));
    }
  } else if (id_bytes == 2) {
    for (; i + 4 <= count; i += 4) {
      __m128i v = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(src + 2 * static_cast<size_t>(i)));
      v = _mm_unpacklo_epi16(v, zero);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(v, vbase));
    }
  } else if (id_bytes == 4) {
    for (; i + 4 <= count; i += 4) {
      const __m128i raw = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(src + 4 * static_cast<size_t>(i)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(raw, vbase));
    }
  }
  if (i < count) {
    UnpackIdsScalar(src + static_cast<size_t>(i) * id_bytes, id_bytes, base,
                    count - i, out + i);
  }
#elif defined(FAIRMATCH_SIMD_NEON)
  const int32x4_t vbase = vdupq_n_s32(base);
  int i = 0;
  if (id_bytes == 1) {
    for (; i + 8 <= count; i += 8) {
      const uint16x8_t w = vmovl_u8(vld1_u8(src + i));
      const int32x4_t lo = vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w)));
      const int32x4_t hi = vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(w)));
      vst1q_s32(out + i, vaddq_s32(lo, vbase));
      vst1q_s32(out + i + 4, vaddq_s32(hi, vbase));
    }
  } else if (id_bytes == 2) {
    for (; i + 8 <= count; i += 8) {
      // Unaligned-safe byte load; little-endian lanes reinterpret as u16.
      const uint16x8_t w = vreinterpretq_u16_u8(
          vld1q_u8(src + 2 * static_cast<size_t>(i)));
      const int32x4_t lo = vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w)));
      const int32x4_t hi = vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(w)));
      vst1q_s32(out + i, vaddq_s32(lo, vbase));
      vst1q_s32(out + i + 4, vaddq_s32(hi, vbase));
    }
  } else if (id_bytes == 4) {
    for (; i + 4 <= count; i += 4) {
      const int32x4_t raw = vreinterpretq_s32_u8(
          vld1q_u8(src + 4 * static_cast<size_t>(i)));
      vst1q_s32(out + i, vaddq_s32(raw, vbase));
    }
  }
  if (i < count) {
    UnpackIdsScalar(src + static_cast<size_t>(i) * id_bytes, id_bytes, base,
                    count - i, out + i);
  }
#else
  UnpackIdsScalar(src, id_bytes, base, count, out);
#endif
}

}  // namespace fairmatch::simd

#endif  // FAIRMATCH_COMMON_SIMD_H_
