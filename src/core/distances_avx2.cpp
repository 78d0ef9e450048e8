// AVX2 implementations of the DistanceKernels table. Compiled with -mavx2
// and -ffp-contract=off (see src/CMakeLists.txt); only ever executed after a
// runtime __builtin_cpu_supports("avx2") check in distances.cpp.
//
// Bit-equality with the scalar reference is a hard contract here
// (tests/test_simd_equality.cpp):
//  - adc_lut_row / adc_scan_* vectorize ACROSS entries/points: lane j owns
//    output j and accumulates over d/sub in the same sequential order as the
//    scalar loop, so each lane's float rounding is identical.
//  - adc_lut_u32 (and its marked row, adc_lut_u32_marked) squares 8 int32
//    differences per vector and reduces them
//    with hadd; uint32 wraparound sums are order-independent, so any
//    reduction tree matches the scalar loop bit for bit. At dsub 8 a
//    guarded int16 multiply-add path takes blocks whose operands are small
//    enough for every intermediate to be exact (see lut_row_dsub8).
//  - l2_sq_* vectorize WITHIN a vector using 8 lane accumulators; the
//    horizontal reduction (vextractf128+addps, movehl+addps, shufps+addss)
//    is mirrored step for step by the scalar reference's reduce8.

#include "core/distances.hpp"

#if defined(DRIM_AVX2_BUILD) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace drim {
namespace {

inline std::uint32_t code_value(const std::uint8_t* point, std::size_t sub,
                                bool wide) {
  if (wide) {
    std::uint16_t v = 0;
    std::memcpy(&v, point + sub * 2, 2);
    return v;
  }
  return point[sub];
}

/// 8x8 float transpose: rows r0..r7 in, columns c0..c7 out. Standard
/// unpack/shuffle/permute2f128 ladder — no gathers (VPGATHER is microcoded
/// and slow on many parts; contiguous loads + shuffles beat it handily).
inline void transpose8x8(__m256 r0, __m256 r1, __m256 r2, __m256 r3, __m256 r4,
                         __m256 r5, __m256 r6, __m256 r7, __m256* c) {
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  c[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  c[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  c[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  c[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  c[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  c[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  c[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  c[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

void avx2_adc_lut_row(const float* sv, const float* codebook, std::size_t dsub,
                      std::size_t cb, float* row) {
  std::size_t e = 0;
  if (dsub == 8) {
    // Paper-config fast path (dim 128 / m 16): each codeword is exactly one
    // 8-float row, so 8 contiguous loads + a transpose put component d of
    // entries e..e+7 into one vector. Lane j accumulates entry e+j over
    // d = 0..7 in the same order as the scalar loop — bit-identical.
    __m256 svd[8];
    for (std::size_t d = 0; d < 8; ++d) svd[d] = _mm256_set1_ps(sv[d]);
    for (; e + 8 <= cb; e += 8) {
      const float* base = codebook + e * 8;
      __m256 c[8];
      transpose8x8(_mm256_loadu_ps(base + 0), _mm256_loadu_ps(base + 8),
                   _mm256_loadu_ps(base + 16), _mm256_loadu_ps(base + 24),
                   _mm256_loadu_ps(base + 32), _mm256_loadu_ps(base + 40),
                   _mm256_loadu_ps(base + 48), _mm256_loadu_ps(base + 56), c);
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t d = 0; d < 8; ++d) {
        const __m256 diff = _mm256_sub_ps(svd[d], c[d]);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
      }
      _mm256_storeu_ps(row + e, acc);
    }
  } else if (dsub % 8 == 0) {
    // Whole 8-float chunks (the coarse quantizer's dim 128, a k-means++ pass
    // over the points): the same transpose, one chunk of 8 components at a
    // time in ascending d, so lane j still sums entry e+j over d in order.
    for (; e + 8 <= cb; e += 8) {
      const float* base = codebook + e * dsub;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t d0 = 0; d0 < dsub; d0 += 8) {
        const float* chunk = base + d0;
        __m256 c[8];
        transpose8x8(_mm256_loadu_ps(chunk), _mm256_loadu_ps(chunk + dsub),
                     _mm256_loadu_ps(chunk + 2 * dsub), _mm256_loadu_ps(chunk + 3 * dsub),
                     _mm256_loadu_ps(chunk + 4 * dsub), _mm256_loadu_ps(chunk + 5 * dsub),
                     _mm256_loadu_ps(chunk + 6 * dsub), _mm256_loadu_ps(chunk + 7 * dsub), c);
        for (std::size_t d = 0; d < 8; ++d) {
          const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(sv[d0 + d]), c[d]);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
        }
      }
      _mm256_storeu_ps(row + e, acc);
    }
  } else {
    // General shape: lane j of the gather reads entry (e+j)'s component d
    // (codewords are row-major [cb x dsub], entries `dsub` floats apart).
    const auto stride = static_cast<int>(dsub);
    const __m256i entry_off = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(stride));
    for (; e + 8 <= cb; e += 8) {
      const float* base = codebook + e * dsub;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t d = 0; d < dsub; ++d) {
        const __m256 cw = _mm256_i32gather_ps(base + d, entry_off, 4);
        const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(sv[d]), cw);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
      }
      _mm256_storeu_ps(row + e, acc);
    }
  }
  for (; e < cb; ++e) {
    const float* cw = codebook + e * dsub;
    float acc = 0.0f;
    for (std::size_t d = 0; d < dsub; ++d) {
      const float diff = sv[d] - cw[d];
      acc += diff * diff;
    }
    row[e] = acc;
  }
}

// The ADC scan is LUT-lookup bound: m data-dependent loads per point, each
// accumulated sequentially (the bit-equality contract). A VPGATHER version
// measured ~3x SLOWER than the plain loop here (microcoded gathers + scalar
// index assembly), so the "avx2" scan is the scalar algorithm with four
// independent accumulator chains interleaved — same per-point rounding
// order, but the OoO core overlaps four L1 LUT-load chains instead of one.

void avx2_adc_scan_f32(const float* lut, std::size_t cb, std::size_t m,
                       const std::uint8_t* codes, std::size_t stride, bool wide,
                       std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint8_t* p0 = codes + (i + 0) * stride;
    const std::uint8_t* p1 = codes + (i + 1) * stride;
    const std::uint8_t* p2 = codes + (i + 2) * stride;
    const std::uint8_t* p3 = codes + (i + 3) * stride;
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    for (std::size_t sub = 0; sub < m; ++sub) {
      const float* lrow = lut + sub * cb;
      a0 += lrow[code_value(p0, sub, wide)];
      a1 += lrow[code_value(p1, sub, wide)];
      a2 += lrow[code_value(p2, sub, wide)];
      a3 += lrow[code_value(p3, sub, wide)];
    }
    out[i + 0] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) {
    const std::uint8_t* point = codes + i * stride;
    float acc = 0.0f;
    for (std::size_t sub = 0; sub < m; ++sub) {
      acc += lut[sub * cb + code_value(point, sub, wide)];
    }
    out[i] = acc;
  }
}

void avx2_adc_scan_u32(const std::uint32_t* lut, std::size_t cb, std::size_t m,
                       const std::uint8_t* codes, std::size_t stride, bool wide,
                       std::size_t n, std::uint32_t* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint8_t* p0 = codes + (i + 0) * stride;
    const std::uint8_t* p1 = codes + (i + 1) * stride;
    const std::uint8_t* p2 = codes + (i + 2) * stride;
    const std::uint8_t* p3 = codes + (i + 3) * stride;
    std::uint32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t sub = 0; sub < m; ++sub) {
      const std::uint32_t* lrow = lut + sub * cb;
      a0 += lrow[code_value(p0, sub, wide)];
      a1 += lrow[code_value(p1, sub, wide)];
      a2 += lrow[code_value(p2, sub, wide)];
      a3 += lrow[code_value(p3, sub, wide)];
    }
    out[i + 0] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) {
    const std::uint8_t* point = codes + i * stride;
    std::uint32_t acc = 0;
    for (std::size_t sub = 0; sub < m; ++sub) {
      acc += lut[sub * cb + code_value(point, sub, wide)];
    }
    out[i] = acc;
  }
}

// ---- integer ADC table ----------------------------------------------------

/// Wrapped squares of (res - cw) for 8 int32 lanes: mullo keeps the low 32
/// bits of diff*diff, which is exactly the scalar |diff|*|diff| in uint32.
inline __m256i sq_diff(__m256i res, const std::int16_t* cw) {
  const __m256i c = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(cw)));
  const __m256i diff = _mm256_sub_epi32(res, c);
  return _mm256_mullo_epi32(diff, diff);
}

/// int32 residual q[d] - c[d] for 8 consecutive components.
inline __m256i residual8(const std::int16_t* q, const std::int16_t* c) {
  const __m256i qv = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
  const __m256i cv = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(c)));
  return _mm256_sub_epi32(qv, cv);
}

inline std::uint32_t lut_entry_u32(const std::int16_t* q, const std::int16_t* c,
                                   const std::int16_t* cw, std::size_t d0,
                                   std::size_t d1) {
  std::uint32_t acc = 0;
  for (std::size_t d = d0; d < d1; ++d) {
    const std::int32_t diff = static_cast<std::int32_t>(q[d]) - c[d] - cw[d];
    const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
    acc += a * a;
  }
  return acc;
}

/// Sums of entries e..e+7 (codewords `dsub` components apart from `base`)
/// for dsub >= 8: each entry gets its own 8-lane accumulator over the
/// 8-component chunks of its codeword; a three-level hadd tree plus a
/// cross-lane add folds them into one vector of 8 sums. The dsub % 8 tail
/// is added per entry.
inline __m256i lut8_entries(const std::int16_t* q, const std::int16_t* c,
                            const std::int16_t* base, std::size_t dsub) {
  const std::size_t body = dsub & ~std::size_t{7};
  __m256i acc[8];
  for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm256_setzero_si256();
  for (std::size_t d = 0; d < body; d += 8) {
    const __m256i res = residual8(q + d, c + d);
    for (std::size_t j = 0; j < 8; ++j) {
      acc[j] = _mm256_add_epi32(acc[j], sq_diff(res, base + j * dsub + d));
    }
  }
  const __m256i h01 = _mm256_hadd_epi32(acc[0], acc[1]);
  const __m256i h23 = _mm256_hadd_epi32(acc[2], acc[3]);
  const __m256i h45 = _mm256_hadd_epi32(acc[4], acc[5]);
  const __m256i h67 = _mm256_hadd_epi32(acc[6], acc[7]);
  const __m256i h03 = _mm256_hadd_epi32(h01, h23);  // lo/hi halves of e0..e3
  const __m256i h47 = _mm256_hadd_epi32(h45, h67);  // lo/hi halves of e4..e7
  __m256i sums = _mm256_add_epi32(_mm256_permute2x128_si256(h03, h47, 0x20),
                                  _mm256_permute2x128_si256(h03, h47, 0x31));
  if (body < dsub) {
    alignas(32) std::uint32_t tail[8];
    for (std::size_t j = 0; j < 8; ++j) {
      tail[j] = lut_entry_u32(q, c, base + j * dsub, body, dsub);
    }
    sums = _mm256_add_epi32(sums, _mm256_load_si256(reinterpret_cast<const __m256i*>(tail)));
  }
  return sums;
}

// ---- guarded int16 multiply-add path (dsub == 8) ----
// The int32 path above is limited by mullo_epi32. When every residual
// component and every codeword component of a block lies within
// +-kMaddBound, each difference lies within +-32766 and fits int16, and
// madd_epi16's sum of two such squares stays below 2^31, so it is the
// exact non-negative int32 value; later sums wrap in uint32 like the
// scalar loop. Out-of-range operands fall back to the int32 path, so
// results are bit-exact always.
constexpr std::int16_t kMaddBound = 16383;

/// True when all 16 int16 lanes of `lo`..`hi`'s envelope are within
/// +-kMaddBound (`lo`/`hi` are lane-wise minima and maxima).
inline bool madd_safe(__m256i lo, __m256i hi) {
  const __m256i out =
      _mm256_or_si256(_mm256_cmpgt_epi16(hi, _mm256_set1_epi16(kMaddBound)),
                      _mm256_cmpgt_epi16(_mm256_set1_epi16(-kMaddBound), lo));
  return _mm256_testz_si256(out, out) != 0;
}

// Entry selection of the marked row builder (adc_lut_u32_marked). With
// kMarked false every entry is built, which is adc_lut_u32's row; with it
// true an 8-entry block is built only when one of its entries is marked,
// and only the marked entries are stored.
template <bool kMarked>
inline bool block_marked(const std::uint8_t* marks, std::size_t e) {
  return !kMarked || marks[e / 8] != 0;
}

template <bool kMarked>
inline bool entry_marked(const std::uint8_t* marks, std::size_t e) {
  return !kMarked || ((marks[e / 8] >> (e % 8)) & 1) != 0;
}

/// Stores the 8 sums of entries e..e+7 (e a multiple of 8).
template <bool kMarked>
inline void store8(std::uint32_t* row, std::size_t e, __m256i sums,
                   const std::uint8_t* marks) {
  if constexpr (kMarked) {
    const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i sel = _mm256_and_si256(_mm256_set1_epi32(marks[e / 8]), bits);
    _mm256_maskstore_epi32(reinterpret_cast<int*>(row + e), _mm256_cmpeq_epi32(sel, bits),
                           sums);
  } else {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + e), sums);
  }
}

/// One dsub == 8 table row. Each vector holds two codewords against the
/// int16 residual repeated in both halves; madd leaves four pair sums per
/// codeword, and the dsub == 4 path's two-level hadd + permute order
/// finishes eight entries.
template <bool kMarked>
void lut_row_dsub8(const std::int16_t* q, const std::int16_t* c, const std::int16_t* book,
                   std::size_t cb, const std::uint8_t* marks, std::uint32_t* row) {
  alignas(32) std::int16_t res16[16];
  bool res_safe = true;
  for (std::size_t d = 0; d < 8; ++d) {
    const std::int32_t r = static_cast<std::int32_t>(q[d]) - c[d];
    res_safe = res_safe && r >= -kMaddBound && r <= kMaddBound;
    res16[d] = res16[d + 8] = static_cast<std::int16_t>(r);
  }
  const __m256i res = _mm256_load_si256(reinterpret_cast<const __m256i*>(res16));
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t e = 0;
  for (; e + 8 <= cb; e += 8) {
    if (!block_marked<kMarked>(marks, e)) continue;
    const std::int16_t* base = book + e * 8;
    __m256i cw[4];
    for (std::size_t j = 0; j < 4; ++j) {
      cw[j] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 16 * j));
    }
    const __m256i lo = _mm256_min_epi16(_mm256_min_epi16(cw[0], cw[1]),
                                        _mm256_min_epi16(cw[2], cw[3]));
    const __m256i hi = _mm256_max_epi16(_mm256_max_epi16(cw[0], cw[1]),
                                        _mm256_max_epi16(cw[2], cw[3]));
    __m256i sums;
    if (res_safe && madd_safe(lo, hi)) {
      __m256i sq[4];
      for (std::size_t j = 0; j < 4; ++j) {
        const __m256i diff = _mm256_sub_epi16(res, cw[j]);
        sq[j] = _mm256_madd_epi16(diff, diff);
      }
      sums = _mm256_permutevar8x32_epi32(
          _mm256_hadd_epi32(_mm256_hadd_epi32(sq[0], sq[1]),
                            _mm256_hadd_epi32(sq[2], sq[3])),
          order);
    } else {
      sums = lut8_entries(q, c, base, 8);
    }
    store8<kMarked>(row, e, sums, marks);
  }
  for (; e < cb; ++e) {
    if (entry_marked<kMarked>(marks, e)) row[e] = lut_entry_u32(q, c, book + e * 8, 0, 8);
  }
}

/// One table row of subvector q - c against the cb codewords of `book`.
template <bool kMarked>
void lut_row_u32(const std::int16_t* q, const std::int16_t* c, const std::int16_t* book,
                 std::size_t dsub, std::size_t cb, const std::uint8_t* marks,
                 std::uint32_t* row) {
  if (dsub == 8) {
    lut_row_dsub8<kMarked>(q, c, book, cb, marks, row);
    return;
  }
  std::size_t e = 0;
  if (dsub == 4) {
    // Two codewords per 8-lane vector (the residual repeated in both
    // halves). Two hadd levels leave (e0 e2 e4 e6 | e1 e3 e5 e7); one
    // cross-lane permute restores entry order.
    alignas(16) std::int16_t qc[8] = {q[0], q[1], q[2], q[3], q[0], q[1], q[2], q[3]};
    alignas(16) std::int16_t cc[8] = {c[0], c[1], c[2], c[3], c[0], c[1], c[2], c[3]};
    const __m256i res = residual8(qc, cc);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; e + 8 <= cb; e += 8) {
      if (!block_marked<kMarked>(marks, e)) continue;
      const std::int16_t* base = book + e * 4;
      const __m256i h0 = _mm256_hadd_epi32(sq_diff(res, base), sq_diff(res, base + 8));
      const __m256i h1 = _mm256_hadd_epi32(sq_diff(res, base + 16), sq_diff(res, base + 24));
      const __m256i sums = _mm256_hadd_epi32(h0, h1);
      store8<kMarked>(row, e, _mm256_permutevar8x32_epi32(sums, order), marks);
    }
  } else if (dsub >= 8) {
    for (; e + 8 <= cb; e += 8) {
      if (!block_marked<kMarked>(marks, e)) continue;
      store8<kMarked>(row, e, lut8_entries(q, c, book + e * dsub, dsub), marks);
    }
  }
  for (; e < cb; ++e) {
    if (entry_marked<kMarked>(marks, e)) row[e] = lut_entry_u32(q, c, book + e * dsub, 0, dsub);
  }
}

void avx2_adc_lut_u32(const std::int16_t* query, const std::int16_t* centroid,
                      const std::int16_t* codebooks, std::size_t m,
                      std::size_t dsub, std::size_t cb, std::uint32_t* lut) {
  for (std::size_t sub = 0; sub < m; ++sub) {
    lut_row_u32<false>(query + sub * dsub, centroid + sub * dsub, codebooks + sub * cb * dsub,
                       dsub, cb, nullptr, lut + sub * cb);
  }
}

void avx2_adc_lut_u32_marked(const std::int16_t* query, const std::int16_t* centroid,
                             const std::int16_t* codebook, std::size_t dsub,
                             std::size_t cb, const std::uint8_t* marks,
                             std::uint32_t* row) {
  lut_row_u32<true>(query, centroid, codebook, dsub, cb, marks, row);
}

// Horizontal sum matching scalar reduce8: (a0+a4, a1+a5, a2+a6, a3+a7) ->
// (r0+r2, r1+r3) -> s0+s1.
inline float reduce8_avx(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 r = _mm_add_ps(lo, hi);              // r0 r1 r2 r3
  const __m128 s = _mm_add_ps(r, _mm_movehl_ps(r, r));  // s0 s1 . .
  const __m128 t = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(t);
}

float avx2_l2_sq_f32(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  float total = reduce8_avx(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

float avx2_l2_sq_u8(const float* a, const std::uint8_t* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i));
    const __m256 bf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(a + i), bf);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  float total = reduce8_avx(acc);
  for (; i < n; ++i) {
    const float d = a[i] - static_cast<float>(b[i]);
    total += d * d;
  }
  return total;
}

constexpr DistanceKernels kAvx2Kernels = {
    "avx2",            avx2_adc_lut_row, avx2_adc_scan_f32,
    avx2_adc_scan_u32, avx2_adc_lut_u32, avx2_adc_lut_u32_marked,
    avx2_l2_sq_f32,    avx2_l2_sq_u8,
};

}  // namespace

const DistanceKernels* detail_avx2_kernels_impl() { return &kAvx2Kernels; }

}  // namespace drim

#else  // !DRIM_AVX2_BUILD

namespace drim {
const DistanceKernels* detail_avx2_kernels_impl() { return nullptr; }
}  // namespace drim

#endif
