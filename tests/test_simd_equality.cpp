// Bit-equality contract of the SIMD kernel seam (core/distances.hpp): every
// DistanceKernels entry must produce EXACTLY the same bits from the scalar
// reference and the AVX2 implementation, on random inputs and on the
// adversarial shapes where equality usually dies — tail-remainder sizes
// (n % 8 != 0), denormal operands, wide (uint16) PQ codes, and integer
// operands whose squares wrap uint32. The scalar adc_* entries are
// additionally pinned to the seed per-point loops so the seam cannot drift
// from pq::adc_distance / compute_adc_lut / host-exact LUT semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/distances.hpp"

namespace drim {
namespace {

std::vector<float> random_floats(std::mt19937& rng, std::size_t n,
                                 float lo = -10.0f, float hi = 10.0f) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, 4);
  std::memcpy(&ub, &b, 4);
  return ua == ub;
}

#define REQUIRE_AVX2()                                              \
  if (avx2_kernels() == nullptr) {                                  \
    GTEST_SKIP() << "AVX2 kernels unavailable on this build/CPU";   \
  }

TEST(SimdEquality, AdcLutRowMatchesBitExact) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  std::mt19937 rng(7);
  // dsub 128 is the coarse quantizer's shape: nearest-centroid search runs
  // the whole vector as one codeword, on the gather path.
  for (const std::size_t dsub : {1u, 3u, 6u, 8u, 16u, 128u}) {
    for (const std::size_t cb : {1u, 7u, 8u, 16u, 100u, 256u}) {
      const auto sv = random_floats(rng, dsub);
      const auto codebook = random_floats(rng, cb * dsub);
      std::vector<float> row_sc(cb), row_vx(cb);
      sc.adc_lut_row(sv.data(), codebook.data(), dsub, cb, row_sc.data());
      vx.adc_lut_row(sv.data(), codebook.data(), dsub, cb, row_vx.data());
      for (std::size_t e = 0; e < cb; ++e) {
        ASSERT_TRUE(same_bits(row_sc[e], row_vx[e]))
            << "dsub=" << dsub << " cb=" << cb << " e=" << e;
      }
    }
  }
}

TEST(SimdEquality, AdcLutRowMatchesSeedScalarLoop) {
  // The scalar kernel must round exactly like the seed per-codeword l2_sq.
  const DistanceKernels& sc = scalar_kernels();
  std::mt19937 rng(11);
  const std::size_t dsub = 6, cb = 64;
  const auto sv = random_floats(rng, dsub);
  const auto codebook = random_floats(rng, cb * dsub);
  std::vector<float> row(cb);
  sc.adc_lut_row(sv.data(), codebook.data(), dsub, cb, row.data());
  for (std::size_t e = 0; e < cb; ++e) {
    const float ref = l2_sq({sv.data(), dsub}, {codebook.data() + e * dsub, dsub});
    ASSERT_TRUE(same_bits(row[e], ref)) << "e=" << e;
  }
}

TEST(SimdEquality, AdcScanF32MatchesBitExact) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  std::mt19937 rng(13);
  for (const bool wide : {false, true}) {
    const std::size_t cb = wide ? 512 : 256;
    for (const std::size_t m : {1u, 8u, 16u}) {
      const std::size_t stride = m * (wide ? 2 : 1);
      const auto lut = random_floats(rng, m * cb, 0.0f, 100.0f);
      for (const std::size_t n : {1u, 7u, 8u, 9u, 64u, 100u}) {
        std::vector<std::uint8_t> codes(n * stride);
        if (wide) {
          std::uniform_int_distribution<std::uint32_t> cd(0, cb - 1);
          for (std::size_t i = 0; i < n * m; ++i) {
            const auto v = static_cast<std::uint16_t>(cd(rng));
            std::memcpy(codes.data() + i * 2, &v, 2);
          }
        } else {
          std::uniform_int_distribution<std::uint32_t> cd(0, 255);
          for (auto& c : codes) c = static_cast<std::uint8_t>(cd(rng));
        }
        std::vector<float> out_sc(n), out_vx(n);
        sc.adc_scan_f32(lut.data(), cb, m, codes.data(), stride, wide, n,
                        out_sc.data());
        vx.adc_scan_f32(lut.data(), cb, m, codes.data(), stride, wide, n,
                        out_vx.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(out_sc[i], out_vx[i]))
              << "wide=" << wide << " m=" << m << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdEquality, AdcScanU32MatchesExactIncludingWraparound) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  std::mt19937 rng(17);
  const std::size_t m = 16, cb = 256, stride = m;
  // Values big enough that sums wrap uint32 — wraparound must agree too.
  std::vector<std::uint32_t> lut(m * cb);
  std::uniform_int_distribution<std::uint32_t> ld(0, 0x7FFFFFFFu);
  for (auto& v : lut) v = ld(rng);
  for (const std::size_t n : {1u, 7u, 8u, 9u, 200u}) {
    std::vector<std::uint8_t> codes(n * stride);
    std::uniform_int_distribution<std::uint32_t> cd(0, 255);
    for (auto& c : codes) c = static_cast<std::uint8_t>(cd(rng));
    std::vector<std::uint32_t> out_sc(n), out_vx(n);
    sc.adc_scan_u32(lut.data(), cb, m, codes.data(), stride, false, n,
                    out_sc.data());
    vx.adc_scan_u32(lut.data(), cb, m, codes.data(), stride, false, n,
                    out_vx.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out_sc[i], out_vx[i]) << "n=" << n << " i=" << i;
    }
  }
}

/// int16 operands drawn from the full range, with a third pinned to the
/// extremes so residual-minus-codeword differences approach +-98301 and
/// their squares wrap uint32.
std::vector<std::int16_t> extreme_int16s(std::mt19937& rng, std::size_t n) {
  std::uniform_int_distribution<int> full(-32768, 32767);
  std::uniform_int_distribution<int> pick(0, 2);
  std::uniform_int_distribution<int> near(0, 8);
  std::vector<std::int16_t> v(n);
  for (auto& x : v) {
    switch (pick(rng)) {
      case 0: x = static_cast<std::int16_t>(32767 - near(rng)); break;
      case 1: x = static_cast<std::int16_t>(-32767 + near(rng)); break;
      default: x = static_cast<std::int16_t>(full(rng)); break;
    }
  }
  return v;
}

/// The seed host-exact LUT loop (host_build_adc_lut before the seam entry):
/// an int32 residual vector, then |res - cw| squared and summed in uint32.
std::vector<std::uint32_t> seed_lut_u32(const std::vector<std::int16_t>& query,
                                        const std::vector<std::int16_t>& centroid,
                                        const std::vector<std::int16_t>& books,
                                        std::size_t m, std::size_t dsub,
                                        std::size_t cb) {
  std::vector<std::int32_t> residual(m * dsub);
  for (std::size_t d = 0; d < m * dsub; ++d) {
    residual[d] = static_cast<std::int32_t>(query[d]) - centroid[d];
  }
  std::vector<std::uint32_t> lut(m * cb);
  for (std::size_t sub = 0; sub < m; ++sub) {
    const std::int32_t* res = residual.data() + sub * dsub;
    for (std::size_t e = 0; e < cb; ++e) {
      const std::int16_t* cw = books.data() + (sub * cb + e) * dsub;
      std::uint32_t acc = 0;
      for (std::size_t d = 0; d < dsub; ++d) {
        const std::int32_t diff = res[d] - cw[d];
        const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
        acc += a * a;
      }
      lut[sub * cb + e] = acc;
    }
  }
  return lut;
}

TEST(SimdEquality, AdcLutU32MatchesBitExactIncludingWraparound) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  std::mt19937 rng(23);
  const std::size_t m = 3;
  for (const std::size_t dsub : {1u, 2u, 4u, 8u, 12u, 16u}) {
    for (const std::size_t cb : {1u, 5u, 8u, 13u, 16u, 100u, 256u}) {
      SCOPED_TRACE("dsub=" + std::to_string(dsub) + " cb=" + std::to_string(cb));
      auto query = extreme_int16s(rng, m * dsub);
      auto centroid = extreme_int16s(rng, m * dsub);
      auto books = extreme_int16s(rng, m * cb * dsub);
      // Pin one certain wrap: entry 0 of subquantizer 0 has a component
      // difference of 3 * 32767, whose square exceeds 2^32 by more than 2x.
      query[0] = 32767;
      centroid[0] = -32767;
      books[0] = -32767;
      std::vector<std::uint32_t> lut_sc(m * cb), lut_vx(m * cb);
      sc.adc_lut_u32(query.data(), centroid.data(), books.data(), m, dsub, cb,
                     lut_sc.data());
      vx.adc_lut_u32(query.data(), centroid.data(), books.data(), m, dsub, cb,
                     lut_vx.data());
      for (std::size_t i = 0; i < m * cb; ++i) {
        ASSERT_EQ(lut_sc[i], lut_vx[i]) << "sub=" << i / cb << " e=" << i % cb;
      }
    }
  }
}

TEST(SimdEquality, AdcLutU32ScalarMatchesSeedLoop) {
  const DistanceKernels& sc = scalar_kernels();
  std::mt19937 rng(29);
  for (const std::size_t dsub : {1u, 4u, 8u, 12u}) {
    const std::size_t m = 4, cb = 37;
    const auto query = extreme_int16s(rng, m * dsub);
    const auto centroid = extreme_int16s(rng, m * dsub);
    const auto books = extreme_int16s(rng, m * cb * dsub);
    const auto ref = seed_lut_u32(query, centroid, books, m, dsub, cb);
    std::vector<std::uint32_t> lut(m * cb);
    sc.adc_lut_u32(query.data(), centroid.data(), books.data(), m, dsub, cb,
                   lut.data());
    for (std::size_t i = 0; i < m * cb; ++i) {
      ASSERT_EQ(lut[i], ref[i]) << "dsub=" << dsub << " i=" << i;
    }
  }
}

TEST(SimdEquality, AdcLutU32MaddGuardBoundaryIsBitExact) {
  // dsub == 8 takes the int16 multiply-add path only while every residual
  // and codeword component is within +-16383; just past it (+-16384, 32767,
  // -32768) the block falls back to the int32 path. Both sides of the
  // boundary, and a codebook with a single out-of-range entry, must match
  // the scalar table and the seed loop bit for bit.
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  const std::size_t m = 2, dsub = 8, cb = 19;  // two 8-entry blocks + a tail
  std::mt19937 rng(31);
  const auto check = [&](const std::vector<std::int16_t>& query,
                         const std::vector<std::int16_t>& centroid,
                         const std::vector<std::int16_t>& books, const char* what) {
    const auto ref = seed_lut_u32(query, centroid, books, m, dsub, cb);
    std::vector<std::uint32_t> lut_sc(m * cb), lut_vx(m * cb);
    sc.adc_lut_u32(query.data(), centroid.data(), books.data(), m, dsub, cb,
                   lut_sc.data());
    vx.adc_lut_u32(query.data(), centroid.data(), books.data(), m, dsub, cb,
                   lut_vx.data());
    for (std::size_t i = 0; i < m * cb; ++i) {
      ASSERT_EQ(lut_sc[i], ref[i]) << what << " sub=" << i / cb << " e=" << i % cb;
      ASSERT_EQ(lut_vx[i], ref[i]) << what << " sub=" << i / cb << " e=" << i % cb;
    }
  };
  // Components drawn from {+v, -v}, so differences reach +-2v.
  const auto signs = [&](std::size_t n, int v) {
    std::uniform_int_distribution<int> coin(0, 1);
    std::vector<std::int16_t> out(n);
    for (auto& x : out) x = static_cast<std::int16_t>(coin(rng) ? v : -v);
    return out;
  };
  const std::vector<std::int16_t> zero(m * dsub, 0);

  // Fast path at its edge: residual and codewords at +-16383 (|diff| up to
  // 32766, pair sums of squares just under 2^31).
  check(signs(m * dsub, 16383), zero, signs(m * cb * dsub, 16383), "fast +-16383");

  // Residual just past the bound, codewords inside it.
  for (const int v : {16384, 32767}) {
    check(signs(m * dsub, v), zero, signs(m * cb * dsub, 16383), "residual past bound");
  }
  std::vector<std::int16_t> low(m * dsub, -32768);
  check(low, zero, signs(m * cb * dsub, 16383), "residual -32768");
  // A residual past the bound formed from in-range query and centroid.
  check(signs(m * dsub, 12000), signs(m * dsub, 12000), signs(m * cb * dsub, 16383),
        "residual up to +-24000");

  // Codewords just past the bound, residual inside it.
  for (const int v : {16384, 32767}) {
    check(signs(m * dsub, 16383), zero, signs(m * cb * dsub, v), "codewords past bound");
  }
  std::vector<std::int16_t> books_low(m * cb * dsub, -32768);
  check(signs(m * dsub, 16383), zero, books_low, "codewords -32768");

  // One out-of-range component in one entry of each block; every other
  // entry stays on the fast path.
  for (const int bad : {16384, -16384, 32767, -32768}) {
    auto books = signs(m * cb * dsub, 16383);
    books[(0 * cb + 3) * dsub + 5] = static_cast<std::int16_t>(bad);
    books[(1 * cb + 12) * dsub + 0] = static_cast<std::int16_t>(bad);
    books[(1 * cb + 17) * dsub + 7] = static_cast<std::int16_t>(bad);  // the tail
    check(signs(m * dsub, 16383), zero, books, "one entry out of range");
  }
}

TEST(SimdEquality, AdcLutU32MarkedBuildsExactlyTheMarkedEntries) {
  // The marked row equals adc_lut_u32's row at every marked entry and
  // leaves every other entry untouched, on both tables: marks of every
  // density, all-empty and all-full 8-entry blocks, tails, and dsub on each
  // AVX2 path (4, 8 with its multiply-add guard, >= 8, and the others).
  const DistanceKernels& sc = scalar_kernels();
  std::vector<const DistanceKernels*> tables = {&sc};
  if (avx2_kernels() != nullptr) tables.push_back(avx2_kernels());
  constexpr std::uint32_t kUntouched = 0xDEADBEEFu;
  std::mt19937 rng(37);
  for (const std::size_t dsub : {1u, 2u, 4u, 8u, 12u, 16u}) {
    for (const std::size_t cb : {1u, 13u, 16u, 100u, 256u, 300u}) {
      for (const double density : {0.0, 0.1, 0.5, 1.0}) {
        SCOPED_TRACE("dsub=" + std::to_string(dsub) + " cb=" + std::to_string(cb) +
                     " density=" + std::to_string(density));
        const auto query = extreme_int16s(rng, dsub);
        const auto centroid = extreme_int16s(rng, dsub);
        const auto book = extreme_int16s(rng, cb * dsub);
        std::vector<std::uint32_t> dense(cb);
        sc.adc_lut_u32(query.data(), centroid.data(), book.data(), 1, dsub, cb,
                       dense.data());
        std::bernoulli_distribution pick(density);
        std::vector<std::uint8_t> marks((cb + 7) / 8, 0);
        std::vector<bool> marked(cb);
        for (std::size_t e = 0; e < cb; ++e) {
          marked[e] = pick(rng);
          if (marked[e]) marks[e / 8] |= static_cast<std::uint8_t>(1u << (e % 8));
        }
        for (const DistanceKernels* t : tables) {
          std::vector<std::uint32_t> row(cb, kUntouched);
          t->adc_lut_u32_marked(query.data(), centroid.data(), book.data(), dsub, cb,
                                marks.data(), row.data());
          for (std::size_t e = 0; e < cb; ++e) {
            ASSERT_EQ(row[e], marked[e] ? dense[e] : kUntouched) << t->name << " e=" << e;
          }
        }
      }
    }
  }
}

TEST(SimdEquality, L2KernelsMatchOnRandomAndTailSizes) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  std::mt19937 rng(19);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 96u, 100u, 128u}) {
    const auto a = random_floats(rng, n);
    const auto b = random_floats(rng, n);
    ASSERT_TRUE(same_bits(sc.l2_sq_f32(a.data(), b.data(), n),
                          vx.l2_sq_f32(a.data(), b.data(), n)))
        << "f32 n=" << n;
    std::vector<std::uint8_t> u(n);
    std::uniform_int_distribution<std::uint32_t> ud(0, 255);
    for (auto& x : u) x = static_cast<std::uint8_t>(ud(rng));
    ASSERT_TRUE(same_bits(sc.l2_sq_u8(a.data(), u.data(), n),
                          vx.l2_sq_u8(a.data(), u.data(), n)))
        << "u8 n=" << n;
  }
}

TEST(SimdEquality, L2KernelsMatchOnDenormals) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  const std::size_t n = 37;  // tail remainder on purpose
  std::vector<float> a(n), b(n);
  const float dmin = std::numeric_limits<float>::denorm_min();
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = dmin * static_cast<float>(i * 3 + 1);
    b[i] = dmin * static_cast<float>((n - i) * 5);
  }
  ASSERT_TRUE(same_bits(sc.l2_sq_f32(a.data(), b.data(), n),
                        vx.l2_sq_f32(a.data(), b.data(), n)));
  // A mix of denormal and normal magnitudes (catches flush-to-zero builds).
  for (std::size_t i = 0; i < n; i += 2) a[i] = 1.0f + a[i];
  ASSERT_TRUE(same_bits(sc.l2_sq_f32(a.data(), b.data(), n),
                        vx.l2_sq_f32(a.data(), b.data(), n)));
}

TEST(SimdEquality, LutRowHandlesDenormalOperands) {
  REQUIRE_AVX2();
  const DistanceKernels& sc = scalar_kernels();
  const DistanceKernels& vx = *avx2_kernels();
  const std::size_t dsub = 5, cb = 13;  // both tail-remainder shapes
  const float dmin = std::numeric_limits<float>::denorm_min();
  std::vector<float> sv(dsub), codebook(cb * dsub);
  for (std::size_t d = 0; d < dsub; ++d) sv[d] = dmin * static_cast<float>(d + 1);
  for (std::size_t i = 0; i < codebook.size(); ++i) {
    codebook[i] = dmin * static_cast<float>(7 * i % 23);
  }
  std::vector<float> row_sc(cb), row_vx(cb);
  sc.adc_lut_row(sv.data(), codebook.data(), dsub, cb, row_sc.data());
  vx.adc_lut_row(sv.data(), codebook.data(), dsub, cb, row_vx.data());
  for (std::size_t e = 0; e < cb; ++e) {
    ASSERT_TRUE(same_bits(row_sc[e], row_vx[e])) << "e=" << e;
  }
}

TEST(SimdEquality, SetSimdLevelSwitchesTables) {
  const SimdLevel initial = simd_level();
  EXPECT_EQ(set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_STREQ(kernels().name, "scalar");
  if (avx2_available()) {
    EXPECT_EQ(set_simd_level(SimdLevel::kAvx2), SimdLevel::kAvx2);
    EXPECT_STREQ(kernels().name, "avx2");
  } else {
    EXPECT_EQ(set_simd_level(SimdLevel::kAvx2), SimdLevel::kScalar);
  }
  set_simd_level(initial);
}

}  // namespace
}  // namespace drim
