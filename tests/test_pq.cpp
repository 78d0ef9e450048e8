// Tests for the product quantizer: encode/decode identity, ADC/SDC
// semantics, code widths, and accuracy monotonicity properties.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/distances.hpp"
#include "core/pq.hpp"

namespace drim {
namespace {

FloatMatrix random_points(std::size_t n, std::size_t dim, Rng& rng, float lo = -20,
                          float hi = 20) {
  FloatMatrix m(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : m.row(i)) x = rng.uniform(lo, hi);
  }
  return m;
}

ProductQuantizer train_pq(const FloatMatrix& pts, std::size_t m, std::size_t cb) {
  PQParams p;
  p.m = m;
  p.cb_entries = cb;
  p.train_iters = 8;
  ProductQuantizer pq;
  pq.train(pts, p);
  return pq;
}

TEST(PQ, GeometryAccessors) {
  Rng rng(1);
  const FloatMatrix pts = random_points(300, 32, rng);
  const ProductQuantizer pq = train_pq(pts, 8, 16);
  EXPECT_EQ(pq.dim(), 32u);
  EXPECT_EQ(pq.m(), 8u);
  EXPECT_EQ(pq.dsub(), 4u);
  EXPECT_EQ(pq.cb_entries(), 16u);
  EXPECT_EQ(pq.code_size(), 8u);
  EXPECT_FALSE(pq.wide_codes());
}

TEST(PQ, WideCodesWhenCbExceeds256) {
  Rng rng(2);
  const FloatMatrix pts = random_points(600, 16, rng);
  const ProductQuantizer pq = train_pq(pts, 4, 300);
  EXPECT_TRUE(pq.wide_codes());
  EXPECT_EQ(pq.code_size(), 8u);  // 4 subs * 2 bytes
}

/// Expect `fn` to throw std::invalid_argument whose message names `bound`.
template <typename Fn>
void expect_invalid(const Fn& fn, const std::string& bound) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument naming " << bound;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bound), std::string::npos) << e.what();
  }
}

// The geometry bounds hold in release builds too (NDEBUG compiles asserts
// out): m = 0 would divide by zero, and an m that does not divide dim would
// silently drop the trailing dimensions from every code.
TEST(PQ, TrainRejectsInvalidGeometry) {
  Rng rng(11);
  const FloatMatrix pts = random_points(64, 12, rng);
  expect_invalid([&] { train_pq(pts, 0, 16); }, "m must be > 0");
  expect_invalid([&] { train_pq(pts, 5, 16); }, "must be divisible by m 5");
  expect_invalid([&] { train_pq(pts, 4, 1); }, "cb_entries 1");
  expect_invalid([&] { train_pq(pts, 4, 65537); }, "cb_entries 65537");
}

TEST(PQ, RestoreRejectsInvalidGeometryAndCodebooks) {
  const auto books = [](std::size_t n, std::size_t rows, std::size_t cols) {
    return std::vector<FloatMatrix>(n, FloatMatrix(rows, cols));
  };
  ProductQuantizer pq;
  expect_invalid([&] { pq.restore(12, 0, 16, {}); }, "m must be > 0");
  expect_invalid([&] { pq.restore(12, 5, 16, books(5, 16, 2)); },
                 "must be divisible by m 5");
  expect_invalid([&] { pq.restore(12, 4, 1, books(4, 1, 3)); }, "cb_entries 1");
  expect_invalid([&] { pq.restore(12, 4, 65537, books(4, 1, 3)); },
                 "cb_entries 65537");
  expect_invalid([&] { pq.restore(12, 4, 16, books(3, 16, 3)); },
                 "expected m 4 codebooks, got 3");
  expect_invalid([&] { pq.restore(12, 4, 16, books(4, 15, 3)); }, "codebook shape 15 x 3");
  expect_invalid([&] { pq.restore(12, 4, 16, books(4, 16, 4)); }, "codebook shape 16 x 4");
  // The well-formed state restores.
  pq.restore(12, 4, 16, books(4, 16, 3));
  EXPECT_EQ(pq.dsub(), 3u);
}

TEST(PQ, EncodePicksNearestCodeword) {
  Rng rng(3);
  const FloatMatrix pts = random_points(400, 16, rng);
  const ProductQuantizer pq = train_pq(pts, 4, 32);
  std::vector<std::uint8_t> code(pq.code_size());
  for (std::size_t i = 0; i < 20; ++i) {
    pq.encode(pts.row(i), code);
    for (std::size_t sub = 0; sub < pq.m(); ++sub) {
      const auto sv = pts.row(i).subspan(sub * pq.dsub(), pq.dsub());
      const std::uint32_t chosen = pq.code_at(code, sub);
      const float chosen_d = l2_sq(sv, pq.codeword(sub, chosen));
      for (std::size_t e = 0; e < pq.cb_entries(); ++e) {
        EXPECT_LE(chosen_d, l2_sq(sv, pq.codeword(sub, e)) + 1e-4f);
      }
    }
  }
}

TEST(PQ, DecodeIsSelectedCodewords) {
  Rng rng(4);
  const FloatMatrix pts = random_points(300, 8, rng);
  const ProductQuantizer pq = train_pq(pts, 2, 16);
  std::vector<std::uint8_t> code(pq.code_size());
  std::vector<float> recon(8);
  pq.encode(pts.row(0), code);
  pq.decode(code, recon);
  for (std::size_t sub = 0; sub < 2; ++sub) {
    const auto cw = pq.codeword(sub, pq.code_at(code, sub));
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_FLOAT_EQ(recon[sub * 4 + d], cw[d]);
    }
  }
}

TEST(PQ, AdcEqualsDistanceToReconstruction) {
  // The defining ADC identity: adc(q, code) == ||q - decode(code)||^2.
  Rng rng(5);
  const FloatMatrix pts = random_points(500, 32, rng);
  const ProductQuantizer pq = train_pq(pts, 8, 32);
  std::vector<float> lut(pq.m() * pq.cb_entries());
  std::vector<std::uint8_t> code(pq.code_size());
  std::vector<float> recon(32);

  for (int trial = 0; trial < 10; ++trial) {
    const FloatMatrix q = random_points(1, 32, rng);
    pq.compute_adc_lut(q.row(0), lut);
    pq.encode(pts.row(static_cast<std::size_t>(trial)), code);
    pq.decode(code, recon);
    const float adc = pq.adc_distance(lut, code);
    const float direct = l2_sq(q.row(0), std::span<const float>(recon));
    EXPECT_NEAR(adc, direct, 1e-2f * std::max(1.0f, direct));
  }
}

TEST(PQ, SdcEqualsDistanceBetweenReconstructions) {
  Rng rng(6);
  const FloatMatrix pts = random_points(400, 16, rng);
  const ProductQuantizer pq = train_pq(pts, 4, 16);
  std::vector<std::uint8_t> ca(pq.code_size()), cb(pq.code_size());
  std::vector<float> ra(16), rb(16);
  pq.encode(pts.row(0), ca);
  pq.encode(pts.row(1), cb);
  pq.decode(ca, ra);
  pq.decode(cb, rb);
  EXPECT_NEAR(pq.sdc_distance(ca, cb),
              l2_sq(std::span<const float>(ra), std::span<const float>(rb)), 1e-2f);
}

TEST(PQ, ReconstructionErrorDropsWithMoreCodewords) {
  Rng rng(7);
  const FloatMatrix pts = random_points(1000, 16, rng);
  const double mse_small = train_pq(pts, 4, 8).reconstruction_error(pts);
  const double mse_large = train_pq(pts, 4, 64).reconstruction_error(pts);
  EXPECT_LT(mse_large, mse_small);
}

TEST(PQ, ReconstructionErrorDropsWithMoreSubquantizers) {
  Rng rng(8);
  const FloatMatrix pts = random_points(1000, 16, rng);
  const double mse_coarse = train_pq(pts, 2, 16).reconstruction_error(pts);
  const double mse_fine = train_pq(pts, 8, 16).reconstruction_error(pts);
  EXPECT_LT(mse_fine, mse_coarse);
}

TEST(PQ, WideCodeRoundTrip) {
  Rng rng(9);
  const FloatMatrix pts = random_points(800, 8, rng);
  const ProductQuantizer pq = train_pq(pts, 2, 400);
  std::vector<std::uint8_t> code(pq.code_size());
  pq.encode(pts.row(5), code);
  for (std::size_t sub = 0; sub < 2; ++sub) {
    EXPECT_LT(pq.code_at(code, sub), 400u);
  }
  std::vector<float> recon(8);
  pq.decode(code, recon);  // must not crash; values come from codebooks
  const double before = l2_sq(pts.row(5), std::span<const float>(recon));
  EXPECT_GE(before, 0.0);
}

// Property sweep: ADC LUT row sums must match brute-force subspace distances.
class PqLutProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PqLutProperty, LutEntriesAreSubspaceDistances) {
  const auto [m, cb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + cb));
  const std::size_t dim = 16;
  const FloatMatrix pts = random_points(600, dim, rng);
  const ProductQuantizer pq = train_pq(pts, static_cast<std::size_t>(m),
                                       static_cast<std::size_t>(cb));
  const FloatMatrix q = random_points(1, dim, rng);
  std::vector<float> lut(pq.m() * pq.cb_entries());
  pq.compute_adc_lut(q.row(0), lut);
  for (std::size_t sub = 0; sub < pq.m(); ++sub) {
    const auto sv = q.row(0).subspan(sub * pq.dsub(), pq.dsub());
    for (std::size_t e = 0; e < pq.cb_entries(); ++e) {
      EXPECT_FLOAT_EQ(lut[sub * pq.cb_entries() + e], l2_sq(sv, pq.codeword(sub, e)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PqLutProperty,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(8, 32)));

}  // namespace
}  // namespace drim
