#pragma once
// Scalar L2 / inner-product kernels plus a runtime-dispatched SIMD seam for
// the host hot paths. The free functions below are the seed scalar kernels
// (strictly sequential accumulation).
//
// The `DistanceKernels` table is the AVX2 seam: the CPU baseline's ADC scan,
// the LUT build, the integer LUT build and integer scan (shared by
// host_exact's replay and the functional DPU search kernel in
// src/drim/kernels.cpp, whose cycle charges stay with its DpuContext and
// never depend on the table), and flat-search/rerank route through
// `kernels()`. So does index build: adc_lut_row is the distance row of every
// nearest-centroid search (core/kmeans: k-means assignment and k-means++
// passes, PQ encode, IVF coarse assignment and host CL, the index writer)
// and of DPQ's softmin weights. `kernels()` points at either the
// scalar reference or the AVX2 implementations (src/core/distances_avx2.cpp)
// picked at startup. Both implementations of every table entry produce
// bit-identical results:
//  - the float adc_* kernels vectorize ACROSS points/entries and keep each
//    output's own accumulation order sequential, so each float result
//    rounds exactly like the seed scalar loop;
//  - the integer entries (adc_lut_u32*, adc_scan_u32) accumulate in uint32
//    wraparound arithmetic, which is associative and commutative, so any
//    summation order (lane sums, hadd reductions) gives the same bits;
//  - the l2_sq_* entries use a canonical 8-lane blocked order (lane
//    accumulators, pairwise reduction, sequential tail) mirrored exactly in
//    the scalar reference.
// Both TUs are compiled with -ffp-contract=off so FMA contraction cannot
// break the equality (tests/test_simd_equality.cpp pins it).

#include <cstddef>
#include <cstdint>
#include <span>

namespace drim {

/// Squared Euclidean distance between two float vectors.
float l2_sq(std::span<const float> a, std::span<const float> b);

/// Squared Euclidean distance between a float query and a uint8 base point.
float l2_sq_u8(std::span<const float> a, std::span<const std::uint8_t> b);

/// Squared Euclidean distance between two uint8 vectors (exact, in int64).
std::int64_t l2_sq_u8u8(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// Inner product of two float vectors.
float dot(std::span<const float> a, std::span<const float> b);

/// SIMD implementation level of the kernel table.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Hot-loop kernel table. All pointers are non-null; scalar and AVX2 entries
/// are bit-identical (see header comment).
struct DistanceKernels {
  const char* name;

  /// ADC LUT row for one subquantizer: row[e] = l2_sq(sv, codebook + e*dsub)
  /// for e in [0, cb), each entry accumulated sequentially over dsub.
  void (*adc_lut_row)(const float* sv, const float* codebook, std::size_t dsub,
                      std::size_t cb, float* row);

  /// ADC scan over n packed codes: out[i] = sum over sub of
  /// lut[sub*cb + code(i, sub)], each point accumulated sequentially over
  /// sub. `codes` is the first point's code; points are `stride` bytes
  /// apart; `wide` selects uint16 code entries (cb > 256).
  void (*adc_scan_f32)(const float* lut, std::size_t cb, std::size_t m,
                       const std::uint8_t* codes, std::size_t stride, bool wide,
                       std::size_t n, float* out);

  /// Integer ADC scan (the DPU kernel's uint32 pipeline, wraparound
  /// included).
  void (*adc_scan_u32)(const std::uint32_t* lut, std::size_t cb, std::size_t m,
                       const std::uint8_t* codes, std::size_t stride, bool wide,
                       std::size_t n, std::uint32_t* out);

  /// Integer ADC table (the DPU kernel's LC): for every subquantizer
  /// sub < m and entry e < cb,
  ///   lut[sub*cb + e] = sum over d < dsub of
  ///     ((query[j] - centroid[j]) - codebooks[(sub*cb + e)*dsub + d])^2,
  /// j = sub*dsub + d, each square and the sum taken in uint32 wraparound
  /// arithmetic (squares of operands near +-32767 wrap) — the DPU kernel's
  /// exact integer pipeline.
  void (*adc_lut_u32)(const std::int16_t* query, const std::int16_t* centroid,
                      const std::int16_t* codebooks, std::size_t m,
                      std::size_t dsub, std::size_t cb, std::uint32_t* lut);

  /// One adc_lut_u32 row (m = 1) built only at the entries e < cb whose bit
  /// (marks[e / 8] >> e % 8) & 1 is set; every other entry of `row` is left
  /// as it was. The listed LC build of the DPU search kernel.
  void (*adc_lut_u32_marked)(const std::int16_t* query, const std::int16_t* centroid,
                             const std::int16_t* codebook, std::size_t dsub,
                             std::size_t cb, const std::uint8_t* marks,
                             std::uint32_t* row);

  /// Blocked-order float L2 (canonical 8-lane order; NOT the same rounding
  /// as the sequential l2_sq above).
  float (*l2_sq_f32)(const float* a, const float* b, std::size_t n);

  /// Blocked-order float-vs-u8 L2 (flat search / exact rerank inner loop).
  float (*l2_sq_u8)(const float* a, const std::uint8_t* b, std::size_t n);
};

/// True when the AVX2 kernels are compiled in AND the CPU reports AVX2.
bool avx2_available();

/// Current dispatch level.
SimdLevel simd_level();

/// Force a dispatch level; kAvx2 is ignored when unavailable. Returns the
/// effective level. The DRIM_SIMD env var ("scalar"/"avx2") sets the initial
/// level; default is AVX2 when available.
SimdLevel set_simd_level(SimdLevel level);

/// The active kernel table (per the current SimdLevel).
const DistanceKernels& kernels();

/// The two tables by level, for direct A/B comparison in tests and benches.
/// avx2 returns nullptr when unavailable.
const DistanceKernels& scalar_kernels();
const DistanceKernels* avx2_kernels();

}  // namespace drim
