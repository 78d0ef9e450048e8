#pragma once
// Lloyd's k-means with k-means++ seeding. Used for (a) the IVF coarse
// quantizer (nlist centroids over the learn set) and (b) per-subspace PQ
// codebook training. Host-side: every distance goes through the SIMD seam's
// distance row (`kernels().adc_lut_row`, core/distances.hpp); assignment and
// k-means++ passes fan out over points through drim::parallel_for, and every
// sum over points runs serially in point order, so a run is bit-identical at
// any thread count and either DRIM_SIMD level.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace drim {

/// Configuration for one k-means run.
struct KMeansParams {
  std::size_t k = 16;
  std::size_t max_iters = 20;
  double tol = 1e-4;           ///< relative centroid-shift convergence bound
  std::uint64_t seed = 123;
  bool use_kmeanspp = true;    ///< k-means++ seeding (else uniform sampling)
};

/// Result: centroids (k x dim) plus the final point assignment.
struct KMeansResult {
  FloatMatrix centroids;
  std::vector<std::uint32_t> assignment;  ///< one centroid id per input row
  double inertia = 0.0;                   ///< sum of squared distances
  std::size_t iters_run = 0;
};

/// Run k-means over float training rows. Empty clusters are re-seeded from
/// the point currently farthest from its centroid, so all k centroids remain
/// live (Faiss does the same).
KMeansResult kmeans(const FloatMatrix& points, const KMeansParams& params);

/// Index of the nearest centroid to `v` (L2; the first strict minimum wins
/// ties). When `dist` is non-null it receives that centroid's squared
/// distance, rounded exactly like l2_sq. One kernel call fills the row of all
/// distances.
std::uint32_t nearest_centroid(const FloatMatrix& centroids, std::span<const float> v,
                               float* dist = nullptr);

/// Indices of the `n` nearest centroids, ascending by distance (ties by id).
std::vector<std::uint32_t> nearest_centroids(const FloatMatrix& centroids,
                                             std::span<const float> v, std::size_t n);

}  // namespace drim
