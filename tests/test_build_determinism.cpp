// Index build is deterministic: k-means, PQ/OPQ/DPQ training and IVF add fan
// out over the host threads and compute every distance through the SIMD
// seam, and neither may change a trained bit. Each variant is built at one
// and at four host threads, on the scalar and on the AVX2 kernel table, and
// every centroid, codeword, rotation entry, id and code must match the
// one-thread scalar build bit for bit. nearest_centroid(s) are pinned
// against the seed's per-centroid l2_sq loop.
//
// Also built as drim_build_determinism_tsan (label `tsan`): PQ sub-k-means
// run concurrently on pool workers, each with thread_local scratch.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/parallel.hpp"
#include "core/distances.hpp"
#include "core/ivf.hpp"
#include "core/kmeans.hpp"
#include "core/topk.hpp"
#include "data/synthetic.hpp"

namespace drim {
namespace {

/// Restores the thread cap and SIMD level a test changed.
class BuildSettings {
 public:
  BuildSettings() : threads_(num_threads()), level_(simd_level()) {}
  ~BuildSettings() {
    set_num_threads(threads_);
    set_simd_level(level_);
  }
  BuildSettings(const BuildSettings&) = delete;
  BuildSettings& operator=(const BuildSettings&) = delete;

 private:
  int threads_;
  SimdLevel level_;
};

const SyntheticData& corpus() {
  static const SyntheticData data = [] {
    SyntheticSpec spec;
    spec.num_base = 1500;
    spec.num_queries = 1;
    // 2048 x 128 learn floats reach the coarse k-means++ parallel pass.
    spec.num_learn = 2048;
    spec.num_components = 24;
    spec.seed = 5;
    return make_sift_like(spec);
  }();
  return data;
}

IvfPqIndex build(PQVariant variant) {
  IvfPqParams p;
  p.nlist = 20;  // not a multiple of 8: the kernel rows' scalar tails run
  p.pq.m = 16;   // dsub 8
  p.pq.cb_entries = 20;
  p.pq.train_iters = 4;
  p.coarse_iters = 4;
  p.variant = variant;
  p.opq_iters = 2;
  p.dpq.iters = 2;
  IvfPqIndex index;
  index.train(corpus().learn, p);
  index.add(corpus().base);
  return index;
}

template <typename T>
bool same_bytes(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

void expect_identical(const IvfPqIndex& ref, const IvfPqIndex& got, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(ref.centroids().count(), got.centroids().count());
  EXPECT_TRUE(same_bytes(ref.centroids().data(), got.centroids().data(),
                         ref.centroids().count() * ref.centroids().dim()))
      << "coarse centroids differ";
  for (std::size_t sub = 0; sub < ref.pq().m(); ++sub) {
    const FloatMatrix& a = ref.pq().codebook(sub);
    const FloatMatrix& b = got.pq().codebook(sub);
    EXPECT_TRUE(same_bytes(a.data(), b.data(), a.count() * a.dim()))
        << "codebook " << sub << " differs";
  }
  ASSERT_EQ(ref.opq() != nullptr, got.opq() != nullptr);
  if (ref.opq() != nullptr) {
    const Matrix& a = ref.opq()->rotation();
    const Matrix& b = got.opq()->rotation();
    for (std::size_t r = 0; r < a.rows(); ++r) {
      EXPECT_TRUE(same_bytes(a.row(r).data(), b.row(r).data(), a.cols()))
          << "rotation row " << r << " differs";
    }
  }
  ASSERT_EQ(ref.ntotal(), got.ntotal());
  for (std::size_t c = 0; c < ref.nlist(); ++c) {
    EXPECT_EQ(ref.list(c).ids, got.list(c).ids) << "list " << c;
    EXPECT_EQ(ref.list(c).codes, got.list(c).codes) << "list " << c;
  }
}

void check_variant(PQVariant variant) {
  BuildSettings restore;
  set_simd_level(SimdLevel::kScalar);
  set_num_threads(1);
  const IvfPqIndex ref = build(variant);

  set_num_threads(4);
  expect_identical(ref, build(variant), "scalar, 4 threads");
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  set_simd_level(SimdLevel::kAvx2);
  set_num_threads(1);
  expect_identical(ref, build(variant), "avx2, 1 thread");
  set_num_threads(4);
  expect_identical(ref, build(variant), "avx2, 4 threads");
}

TEST(BuildDeterminism, PqTrainAndAddAreBitIdentical) { check_variant(PQVariant::kPQ); }
TEST(BuildDeterminism, OpqTrainAndAddAreBitIdentical) { check_variant(PQVariant::kOPQ); }
TEST(BuildDeterminism, DpqTrainAndAddAreBitIdentical) { check_variant(PQVariant::kDPQ); }

// ---- nearest_centroid(s) against the seed's per-centroid loop -------------

std::uint32_t seed_nearest(const FloatMatrix& cents, std::span<const float> v, float* dist) {
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < cents.count(); ++c) {
    const float d = l2_sq(cents.row(c), v);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  *dist = best_d;
  return best;
}

std::vector<std::uint32_t> seed_nearest_n(const FloatMatrix& cents, std::span<const float> v,
                                          std::size_t n) {
  TopK topk(std::min(n, cents.count()));
  for (std::size_t c = 0; c < cents.count(); ++c) {
    topk.push(l2_sq(cents.row(c), v), static_cast<std::uint32_t>(c));
  }
  std::vector<std::uint32_t> out;
  for (const Neighbor& nb : topk.take_sorted()) out.push_back(nb.id);
  return out;
}

void check_against_seed(const FloatMatrix& cents, std::span<const float> v) {
  float want_d = 0.0f;
  const std::uint32_t want = seed_nearest(cents, v, &want_d);
  float got_d = 0.0f;
  ASSERT_EQ(nearest_centroid(cents, v, &got_d), want);
  ASSERT_TRUE(same_bytes(&want_d, &got_d, 1)) << want_d << " vs " << got_d;
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, cents.count()}) {
    ASSERT_EQ(nearest_centroids(cents, v, n), seed_nearest_n(cents, v, n)) << "n=" << n;
  }
}

std::vector<SimdLevel> levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  if (avx2_available()) out.push_back(SimdLevel::kAvx2);
  return out;
}

TEST(NearestCentroid, MatchesSeedLoopAtEveryShape) {
  BuildSettings restore;
  std::mt19937 rng(17);
  std::normal_distribution<float> dist(0.0f, 30.0f);
  for (const SimdLevel level : levels()) {
    set_simd_level(level);
    for (const std::size_t dim : {std::size_t{8}, std::size_t{128}}) {
      for (const std::size_t k : {1u, 7u, 8u, 13u, 64u, 100u}) {
        SCOPED_TRACE(testing::Message() << "level=" << static_cast<int>(level)
                                        << " dim=" << dim << " k=" << k);
        FloatMatrix cents(k, dim);
        for (std::size_t i = 0; i < k * dim; ++i) cents.data()[i] = dist(rng);
        std::vector<float> v(dim);
        for (int trial = 0; trial < 8; ++trial) {
          for (float& x : v) x = dist(rng);
          check_against_seed(cents, v);
        }
      }
    }
  }
}

TEST(NearestCentroid, DuplicateCentroidsFirstMinimumWins) {
  BuildSettings restore;
  for (const SimdLevel level : levels()) {
    set_simd_level(level);
    for (const std::size_t dim : {std::size_t{8}, std::size_t{128}}) {
      SCOPED_TRACE(testing::Message() << "level=" << static_cast<int>(level)
                                      << " dim=" << dim);
      // 13 centroids; 3, 9 and 12 are the same point and the query sits on
      // it, so three entries tie at distance zero.
      FloatMatrix cents(13, dim);
      for (std::size_t c = 0; c < 13; ++c) {
        for (std::size_t d = 0; d < dim; ++d) {
          cents.row(c)[d] = static_cast<float>(c * 7 + d % 5);
        }
      }
      for (const std::size_t c : {9u, 12u}) {
        std::copy_n(cents.row(3).data(), dim, cents.row(c).data());
      }
      const std::vector<float> v(cents.row(3).begin(), cents.row(3).end());
      float d = -1.0f;
      EXPECT_EQ(nearest_centroid(cents, v, &d), 3u);
      EXPECT_EQ(d, 0.0f);
      EXPECT_EQ(nearest_centroids(cents, v, 3), (std::vector<std::uint32_t>{3, 9, 12}));
      check_against_seed(cents, v);
    }
  }
}

}  // namespace
}  // namespace drim
