#include "core/kmeans.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "core/distances.hpp"
#include "core/topk.hpp"

namespace drim {
namespace {

// A k-means++ pass, Lloyd assignment or final assignment over fewer point
// floats than this runs on the calling thread: a fork-join would cost more
// than it saves, and the index writer's online 2-means split runs inside a
// serving step. Points are assigned independently, so both give the same
// result.
constexpr std::size_t kFanOutFloats = std::size_t{1} << 18;
// Points per block of a parallel k-means++ pass.
constexpr std::size_t kSeedBlock = 512;

FloatMatrix seed_kmeanspp(const FloatMatrix& points, std::size_t k, Rng& rng) {
  const std::size_t n = points.count();
  const std::size_t dim = points.dim();
  FloatMatrix centroids(k, dim);

  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  std::vector<float> newest(n);
  std::size_t first = static_cast<std::size_t>(rng.next_below(n));
  std::copy_n(points.row(first).data(), dim, centroids.row(0).data());

  const DistanceKernels& kern = kernels();
  const bool fan_out = n * dim >= kFanOutFloats;
  const std::size_t block = fan_out ? kSeedBlock : n;
  for (std::size_t c = 1; c < k; ++c) {
    // Distances to the most recent centroid, one block of points per call:
    // the points are the "codebook" of the kernel's distance row, and each
    // entry rounds like l2_sq(point, centroid).
    const float* cen = centroids.row(c - 1).data();
    auto pass = [&](std::size_t b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(n, lo + block);
      kern.adc_lut_row(cen, points.row(lo).data(), dim, hi - lo, newest.data() + lo);
      for (std::size_t i = lo; i < hi; ++i) min_dist[i] = std::min(min_dist[i], newest[i]);
    };
    if (fan_out) {
      parallel_for(0, (n + block - 1) / block, pass);
    } else {
      pass(0);
    }
    // D^2-sample; the running total sums in point order.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += min_dist[i];
    std::size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.next_double() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<std::size_t>(rng.next_below(n));
    }
    std::copy_n(points.row(chosen).data(), dim, centroids.row(c).data());
  }
  return centroids;
}

FloatMatrix seed_uniform(const FloatMatrix& points, std::size_t k, Rng& rng) {
  FloatMatrix centroids(k, points.dim());
  const auto picks =
      rng.sample_without_replacement(static_cast<std::uint32_t>(points.count()),
                                     static_cast<std::uint32_t>(k));
  for (std::size_t c = 0; c < k; ++c) {
    std::copy_n(points.row(picks[c]).data(), points.dim(), centroids.row(c).data());
  }
  return centroids;
}

/// Squared distances from `v` to every centroid, in a per-thread row (a
/// scratch_buffer, so one wide codebook's row is not pinned on a pool worker).
/// Entry c is l2_sq(centroid c, v) bit for bit: each entry accumulates
/// sequentially over the components, and (a-b)^2 and (b-a)^2 round the same.
const float* distance_row(const FloatMatrix& centroids, std::span<const float> v) {
  assert(v.size() == centroids.dim());
  thread_local std::vector<float> row;
  const std::size_t k = centroids.count();
  float* out = scratch_buffer(row, k);
  kernels().adc_lut_row(v.data(), centroids.data(), centroids.dim(), k, out);
  return out;
}

}  // namespace

KMeansResult kmeans(const FloatMatrix& points, const KMeansParams& params) {
  const std::size_t n = points.count();
  const std::size_t dim = points.dim();
  const std::size_t k = params.k;
  assert(n >= k && k > 0);

  Rng rng(params.seed);
  KMeansResult res;
  res.centroids = params.use_kmeanspp ? seed_kmeanspp(points, k, rng)
                                      : seed_uniform(points, k, rng);
  res.assignment.assign(n, 0);

  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  std::vector<float> point_dist(n);
  const auto for_each_point = [&, fan_out = n * dim >= kFanOutFloats](const auto& body) {
    if (fan_out) {
      parallel_for(0, n, body);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
  };

  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < params.max_iters; ++iter) {
    res.iters_run = iter + 1;

    // Assignment step (parallel over points).
    for_each_point([&](std::size_t i) {
      res.assignment[i] = nearest_centroid(res.centroids, points.row(i), &point_dist[i]);
    });

    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) res.inertia += point_dist[i];

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = res.assignment[i];
      auto p = points.row(i);
      double* s = sums.data() + static_cast<std::size_t>(c) * dim;
      for (std::size_t d = 0; d < dim; ++d) s[d] += p[d];
      ++counts[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the farthest outlier.
        const std::size_t worst =
            static_cast<std::size_t>(std::max_element(point_dist.begin(), point_dist.end()) -
                                     point_dist.begin());
        std::copy_n(points.row(worst).data(), dim, res.centroids.row(c).data());
        point_dist[worst] = 0.0f;
        continue;
      }
      auto cen = res.centroids.row(c);
      const double* s = sums.data() + c * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        cen[d] = static_cast<float>(s[d] / static_cast<double>(counts[c]));
      }
    }

    if (prev_inertia < std::numeric_limits<double>::max() &&
        std::abs(prev_inertia - res.inertia) <= params.tol * prev_inertia) {
      break;
    }
    prev_inertia = res.inertia;
  }

  // Final assignment against the converged centroids.
  for_each_point([&](std::size_t i) {
    res.assignment[i] = nearest_centroid(res.centroids, points.row(i));
  });
  return res;
}

std::uint32_t nearest_centroid(const FloatMatrix& centroids, std::span<const float> v,
                               float* dist) {
  const float* row = distance_row(centroids, v);
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < centroids.count(); ++c) {
    if (row[c] < best_d) {
      best_d = row[c];
      best = static_cast<std::uint32_t>(c);
    }
  }
  if (dist != nullptr) *dist = best_d;
  return best;
}

std::vector<std::uint32_t> nearest_centroids(const FloatMatrix& centroids,
                                             std::span<const float> v, std::size_t n) {
  const float* row = distance_row(centroids, v);
  TopK topk(std::min(n, centroids.count()));
  for (std::size_t c = 0; c < centroids.count(); ++c) {
    topk.push(row[c], static_cast<std::uint32_t>(c));
  }
  std::vector<std::uint32_t> out;
  for (const Neighbor& nb : topk.take_sorted()) out.push_back(nb.id);
  return out;
}

}  // namespace drim
