#include "core/dpq.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "core/distances.hpp"

namespace drim {

double dpq_refine(ProductQuantizer& pq, const FloatMatrix& points, const DPQParams& params) {
  const std::size_t dsub = pq.dsub();
  const std::size_t m = pq.m();
  const std::size_t cb = pq.cb_entries();
  assert(points.dim() == pq.dim());

  // Each subquantizer's codebook moves only on its own subvectors, so the
  // subspaces refine concurrently; within one, every sum runs in point order.
  const DistanceKernels& kern = kernels();
  parallel_for(0, m, [&](std::size_t sub) {
    FloatMatrix& book = pq.codebook(sub);
    std::vector<float> dists(cb);
    std::vector<double> weights(cb);
    std::vector<double> weight_sums(cb);
    std::vector<double> weighted_means(cb * dsub);
    double temperature = params.temperature;
    for (std::size_t epoch = 0; epoch < params.iters; ++epoch) {
      std::fill(weight_sums.begin(), weight_sums.end(), 0.0);
      std::fill(weighted_means.begin(), weighted_means.end(), 0.0);

      for (std::size_t i = 0; i < points.count(); ++i) {
        const std::span<const float> sv = points.row(i).subspan(sub * dsub, dsub);
        // Softmin over codeword distances (numerically stabilized).
        kern.adc_lut_row(sv.data(), book.data(), dsub, cb, dists.data());
        double min_d = 1e300;
        for (std::size_t e = 0; e < cb; ++e) {
          weights[e] = dists[e];
          min_d = std::min(min_d, weights[e]);
        }
        double z = 0.0;
        for (std::size_t e = 0; e < cb; ++e) {
          weights[e] = std::exp(-(weights[e] - min_d) / std::max(temperature, 1e-9));
          z += weights[e];
        }
        for (std::size_t e = 0; e < cb; ++e) {
          const double w = weights[e] / z;
          if (w < 1e-12) continue;
          weight_sums[e] += w;
          double* acc = weighted_means.data() + e * dsub;
          for (std::size_t d = 0; d < dsub; ++d) acc[d] += w * sv[d];
        }
      }

      // Move each codeword toward its soft mean.
      for (std::size_t e = 0; e < cb; ++e) {
        if (weight_sums[e] < 1e-9) continue;  // dead codeword: leave as-is
        auto cw = book.row(e);
        const double* acc = weighted_means.data() + e * dsub;
        for (std::size_t d = 0; d < dsub; ++d) {
          const double target = acc[d] / weight_sums[e];
          cw[d] = static_cast<float>(cw[d] + params.learning_rate * (target - cw[d]));
        }
      }
      temperature *= params.temperature_decay;
    }
  });
  return pq.reconstruction_error(points);
}

}  // namespace drim
