#include "core/distances.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace drim {

float l2_sq(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float l2_sq_u8(std::span<const float> a, std::span<const std::uint8_t> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - static_cast<float>(b[i]);
    acc += d * d;
  }
  return acc;
}

std::int64_t l2_sq_u8u8(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  assert(a.size() == b.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t d = static_cast<std::int64_t>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

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

// ---- Scalar reference kernels -------------------------------------------
// The adc_* kernels accumulate each output strictly sequentially — the same
// rounding as the seed loops in pq.cpp / host_exact.cpp. The l2_sq_* kernels
// use the canonical 8-lane blocked order the AVX2 side mirrors:
// 8 lane accumulators over i%8, reduced pairwise exactly like
// vextractf128/movehl/shufps would, then a sequential tail.

void scalar_adc_lut_row(const float* sv, const float* codebook,
                        std::size_t dsub, std::size_t cb, float* row) {
  for (std::size_t e = 0; e < cb; ++e) {
    const float* cw = codebook + e * dsub;
    float acc = 0.0f;
    for (std::size_t d = 0; d < dsub; ++d) {
      const float diff = sv[d] - cw[d];
      acc += diff * diff;
    }
    row[e] = acc;
  }
}

void scalar_adc_scan_f32(const float* lut, std::size_t cb, std::size_t m,
                         const std::uint8_t* codes, std::size_t stride,
                         bool wide, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* point = codes + i * stride;
    float acc = 0.0f;
    for (std::size_t sub = 0; sub < m; ++sub) {
      acc += lut[sub * cb + code_value(point, sub, wide)];
    }
    out[i] = acc;
  }
}

void scalar_adc_scan_u32(const std::uint32_t* lut, std::size_t cb, std::size_t m,
                         const std::uint8_t* codes, std::size_t stride,
                         bool wide, std::size_t n, std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* point = codes + i * stride;
    std::uint32_t acc = 0;
    for (std::size_t sub = 0; sub < m; ++sub) {
      acc += lut[sub * cb + code_value(point, sub, wide)];
    }
    out[i] = acc;
  }
}

// The DPU kernel's LC arithmetic: residual component, absolute difference,
// squared and summed in uint32 (wraparound included).
std::uint32_t scalar_lut_entry_u32(const std::int16_t* q, const std::int16_t* c,
                                   const std::int16_t* cw, std::size_t dsub) {
  std::uint32_t acc = 0;
  for (std::size_t d = 0; d < dsub; ++d) {
    const std::int32_t res = static_cast<std::int32_t>(q[d]) - c[d];
    const std::int32_t diff = res - cw[d];
    const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
    acc += a * a;
  }
  return acc;
}

void scalar_adc_lut_u32(const std::int16_t* query, const std::int16_t* centroid,
                        const std::int16_t* codebooks, std::size_t m,
                        std::size_t dsub, std::size_t cb, std::uint32_t* lut) {
  for (std::size_t sub = 0; sub < m; ++sub) {
    const std::int16_t* q = query + sub * dsub;
    const std::int16_t* c = centroid + sub * dsub;
    for (std::size_t e = 0; e < cb; ++e) {
      lut[sub * cb + e] =
          scalar_lut_entry_u32(q, c, codebooks + (sub * cb + e) * dsub, dsub);
    }
  }
}

void scalar_adc_lut_u32_marked(const std::int16_t* query, const std::int16_t* centroid,
                               const std::int16_t* codebook, std::size_t dsub,
                               std::size_t cb, const std::uint8_t* marks,
                               std::uint32_t* row) {
  for (std::size_t e = 0; e < cb; ++e) {
    if (((marks[e / 8] >> (e % 8)) & 1) == 0) continue;
    row[e] = scalar_lut_entry_u32(query, centroid, codebook + e * dsub, dsub);
  }
}

// Pairwise reduction of 8 lane accumulators in the exact AVX2 order:
// vextractf128+addps -> (a0+a4 .. a3+a7); movehl+addps -> two pairs;
// shufps+addss -> total.
inline float reduce8(const float* a) {
  const float r0 = a[0] + a[4];
  const float r1 = a[1] + a[5];
  const float r2 = a[2] + a[6];
  const float r3 = a[3] + a[7];
  const float s0 = r0 + r2;
  const float s1 = r1 + r3;
  return s0 + s1;
}

float scalar_l2_sq_f32(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float d = a[i + l] - b[i + l];
      lanes[l] += d * d;
    }
  }
  float acc = reduce8(lanes);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float scalar_l2_sq_u8(const float* a, const std::uint8_t* b, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float d = a[i + l] - static_cast<float>(b[i + l]);
      lanes[l] += d * d;
    }
  }
  float acc = reduce8(lanes);
  for (; i < n; ++i) {
    const float d = a[i] - static_cast<float>(b[i]);
    acc += d * d;
  }
  return acc;
}

constexpr DistanceKernels kScalarKernels = {
    "scalar",           scalar_adc_lut_row, scalar_adc_scan_f32,
    scalar_adc_scan_u32, scalar_adc_lut_u32, scalar_adc_lut_u32_marked,
    scalar_l2_sq_f32,   scalar_l2_sq_u8,
};

// ---- Dispatch ------------------------------------------------------------

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<const DistanceKernels*>& active_table() {
  struct Init {
    const DistanceKernels* table;
    Init() {
      table = &kScalarKernels;
      const DistanceKernels* avx2 = avx2_kernels();
      const char* env = std::getenv("DRIM_SIMD");
      const bool force_scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
      if (avx2 != nullptr && !force_scalar) table = avx2;
    }
  };
  static Init init;
  static std::atomic<const DistanceKernels*> active{init.table};
  return active;
}

}  // namespace

// Defined in distances_avx2.cpp; returns nullptr when the TU was compiled
// without AVX2 support (non-x86 target or unsupported flag).
const DistanceKernels* detail_avx2_kernels_impl();

const DistanceKernels& scalar_kernels() { return kScalarKernels; }

const DistanceKernels* avx2_kernels() {
  static const DistanceKernels* table =
      cpu_has_avx2() ? detail_avx2_kernels_impl() : nullptr;
  return table;
}

bool avx2_available() { return avx2_kernels() != nullptr; }

const DistanceKernels& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

SimdLevel simd_level() {
  return &kernels() == &kScalarKernels ? SimdLevel::kScalar : SimdLevel::kAvx2;
}

SimdLevel set_simd_level(SimdLevel level) {
  const DistanceKernels* table = &kScalarKernels;
  if (level == SimdLevel::kAvx2 && avx2_available()) table = avx2_kernels();
  active_table().store(table, std::memory_order_relaxed);
  return simd_level();
}

}  // namespace drim
