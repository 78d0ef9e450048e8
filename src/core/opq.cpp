#include "core/opq.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/parallel.hpp"
#include "common/scratch.hpp"

namespace drim {
namespace {

// Rows of the Procrustes accumulator each parallel work item owns.
constexpr std::size_t kProcrustesRows = 8;

FloatMatrix apply_rotation(const Matrix& r, const FloatMatrix& points) {
  const std::size_t dim = points.dim();
  FloatMatrix out(points.count(), dim);
  parallel_for(0, points.count(), [&](std::size_t i) {
    auto src = points.row(i);
    auto dst = out.row(i);
    for (std::size_t row = 0; row < dim; ++row) {
      double acc = 0.0;
      for (std::size_t col = 0; col < dim; ++col) acc += r.at(row, col) * src[col];
      dst[row] = static_cast<float>(acc);
    }
  });
  return out;
}

/// PQ reconstruction (encode then decode) of every row, in parallel.
FloatMatrix reconstruct_all(const ProductQuantizer& pq, const FloatMatrix& points) {
  FloatMatrix recon(points.count(), points.dim());
  parallel_for(0, points.count(), [&](std::size_t i) {
    thread_local std::vector<std::uint8_t> tl_code;
    const std::span<std::uint8_t> code(scratch_buffer(tl_code, pq.code_size()),
                                       pq.code_size());
    pq.encode(points.row(i), code);
    pq.decode(code, recon.row(i));
  });
  return recon;
}

/// M = sum over points i of recon_i * x_i^T, i.e. M(c, r) accumulates
/// recon_i[c] * x_i[r] over i in point order (skipping x_i[r] == 0). Each
/// work item owns kProcrustesRows rows of M and keeps that order, so M is the
/// same at any thread count.
Matrix procrustes_target(const FloatMatrix& points, const FloatMatrix& recon) {
  const std::size_t dim = points.dim();
  Matrix m(dim, dim);
  const std::size_t blocks = (dim + kProcrustesRows - 1) / kProcrustesRows;
  parallel_for(0, blocks, [&](std::size_t b) {
    const std::size_t c0 = b * kProcrustesRows;
    const std::size_t width = std::min(kProcrustesRows, dim - c0);
    // Transposed block: acc[r * width + j] is M(c0 + j, r).
    std::vector<double> acc(dim * width, 0.0);
    for (std::size_t i = 0; i < points.count(); ++i) {
      auto x = points.row(i);
      const float* rec = recon.row(i).data() + c0;
      for (std::size_t r = 0; r < dim; ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        double* out = acc.data() + r * width;
        for (std::size_t j = 0; j < width; ++j) out[j] += rec[j] * xr;
      }
    }
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t j = 0; j < width; ++j) m.at(c0 + j, r) = acc[r * width + j];
    }
  });
  return m;
}

}  // namespace

void OptimizedProductQuantizer::train(const FloatMatrix& points, const OPQParams& params) {
  rotation_ = Matrix::identity(points.dim());

  for (std::size_t it = 0; it < params.outer_iters; ++it) {
    // (1) Train PQ in the current rotated space.
    const FloatMatrix rotated = apply_rotation(rotation_, points);
    PQParams pq_params = params.pq;
    pq_params.seed = params.pq.seed + it;
    pq_.train(rotated, pq_params);

    if (it + 1 == params.outer_iters) break;

    // (2) Procrustes: R = polar(X^T X_hat), where X_hat is the reconstruction
    // mapped back through the identity (reconstructions live in rotated
    // space, originals in input space). min_R ||R X - Xhat||_F over
    // orthogonal R has solution R = U V^T where Xhat X^T = U S V^T, and
    // procrustes_target() is exactly Xhat X^T.
    rotation_ = procrustes_rotation(procrustes_target(points, reconstruct_all(pq_, rotated)));
  }
}

void OptimizedProductQuantizer::rotate(std::span<const float> v, std::span<float> out) const {
  const std::size_t dim = rotation_.rows();
  assert(v.size() == dim && out.size() == dim);
  for (std::size_t row = 0; row < dim; ++row) {
    double acc = 0.0;
    for (std::size_t col = 0; col < dim; ++col) acc += rotation_.at(row, col) * v[col];
    out[row] = static_cast<float>(acc);
  }
}

void OptimizedProductQuantizer::encode(std::span<const float> v,
                                       std::span<std::uint8_t> code) const {
  std::vector<float> rotated(v.size());
  rotate(v, rotated);
  pq_.encode(rotated, code);
}

double OptimizedProductQuantizer::reconstruction_error(const FloatMatrix& points) const {
  return pq_.reconstruction_error(apply_rotation(rotation_, points));
}

}  // namespace drim
