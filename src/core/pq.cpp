#include "core/pq.hpp"

#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "core/distances.hpp"

namespace drim {
namespace {

/// Throws std::invalid_argument naming the violated bound when (dim, m, cb)
/// is not a PQ geometry the codes and kernels can represent: m must split dim
/// into whole subvectors, and cb must fit a 16-bit code with >= 2 entries.
void check_geometry(const char* where, std::size_t dim, std::size_t m, std::size_t cb) {
  const std::string at = std::string(where) + ": ";
  if (m == 0) throw std::invalid_argument(at + "m must be > 0");
  if (dim % m != 0) {
    throw std::invalid_argument(at + "dim " + std::to_string(dim) +
                                " must be divisible by m " + std::to_string(m));
  }
  if (cb < 2 || cb > 65536) {
    throw std::invalid_argument(at + "cb_entries " + std::to_string(cb) +
                                " must be in [2, 65536]");
  }
}

}  // namespace

void ProductQuantizer::train(const FloatMatrix& points, const PQParams& params) {
  check_geometry("ProductQuantizer::train", points.dim(), params.m, params.cb_entries);
  dim_ = points.dim();
  m_ = params.m;
  cb_ = params.cb_entries;
  const std::size_t dsub = dim_ / m_;

  // One k-means per subspace, each with its own seed, so they train
  // concurrently; each one's own loops are nested and run inline on its lane.
  codebooks_.assign(m_, FloatMatrix());
  parallel_for(0, m_, [&](std::size_t sub) {
    // Slice out this subspace from every training row.
    FloatMatrix slice(points.count(), dsub);
    for (std::size_t i = 0; i < points.count(); ++i) {
      auto src = points.row(i);
      auto dst = slice.row(i);
      for (std::size_t d = 0; d < dsub; ++d) dst[d] = src[sub * dsub + d];
    }
    KMeansParams km;
    km.k = cb_;
    km.max_iters = params.train_iters;
    km.seed = params.seed + sub;  // independent stream per subspace
    codebooks_[sub] = kmeans(slice, km).centroids;
  });
}

void ProductQuantizer::restore(std::size_t dim, std::size_t m, std::size_t cb,
                               std::vector<FloatMatrix> codebooks) {
  check_geometry("ProductQuantizer::restore", dim, m, cb);
  if (codebooks.size() != m) {
    throw std::invalid_argument("ProductQuantizer::restore: expected m " +
                                std::to_string(m) + " codebooks, got " +
                                std::to_string(codebooks.size()));
  }
  for (const FloatMatrix& book : codebooks) {
    if (book.count() != cb || book.dim() != dim / m) {
      throw std::invalid_argument(
          "ProductQuantizer::restore: codebook shape " + std::to_string(book.count()) +
          " x " + std::to_string(book.dim()) + " must be cb x dim/m = " +
          std::to_string(cb) + " x " + std::to_string(dim / m));
    }
  }
  dim_ = dim;
  m_ = m;
  cb_ = cb;
  codebooks_ = std::move(codebooks);
}

std::span<const float> ProductQuantizer::codeword(std::size_t sub, std::size_t e) const {
  return codebooks_[sub].row(e);
}

void ProductQuantizer::encode(std::span<const float> v, std::span<std::uint8_t> code) const {
  assert(v.size() == dim_ && code.size() >= code_size());
  const std::size_t dsub = this->dsub();
  for (std::size_t sub = 0; sub < m_; ++sub) {
    const std::span<const float> sv = v.subspan(sub * dsub, dsub);
    const std::uint32_t best = nearest_centroid(codebooks_[sub], sv);
    if (wide_codes()) {
      const auto v16 = static_cast<std::uint16_t>(best);
      std::memcpy(code.data() + sub * 2, &v16, 2);
    } else {
      code[sub] = static_cast<std::uint8_t>(best);
    }
  }
}

void ProductQuantizer::decode(std::span<const std::uint8_t> code, std::span<float> out) const {
  assert(out.size() == dim_);
  const std::size_t dsub = this->dsub();
  for (std::size_t sub = 0; sub < m_; ++sub) {
    const std::uint32_t e = code_at(code, sub);
    auto cw = codeword(sub, e);
    for (std::size_t d = 0; d < dsub; ++d) out[sub * dsub + d] = cw[d];
  }
}

std::uint32_t ProductQuantizer::code_at(std::span<const std::uint8_t> code,
                                        std::size_t sub) const {
  if (wide_codes()) {
    std::uint16_t v = 0;
    std::memcpy(&v, code.data() + sub * 2, 2);
    return v;
  }
  return code[sub];
}

void ProductQuantizer::compute_adc_lut(std::span<const float> query,
                                       std::span<float> lut) const {
  assert(query.size() == dim_ && lut.size() >= m_ * cb_);
  const std::size_t dsub = this->dsub();
  const DistanceKernels& kern = kernels();
  for (std::size_t sub = 0; sub < m_; ++sub) {
    // Codebooks are row-major [cb x dsub], so one kernel call fills the row;
    // per-entry accumulation order matches the old per-codeword l2_sq loop.
    kern.adc_lut_row(query.data() + sub * dsub, codebooks_[sub].data(), dsub,
                     cb_, lut.data() + sub * cb_);
  }
}

void ProductQuantizer::adc_scan(std::span<const float> lut,
                                const std::uint8_t* codes, std::size_t n,
                                float* out) const {
  assert(lut.size() >= m_ * cb_);
  kernels().adc_scan_f32(lut.data(), cb_, m_, codes, code_size(), wide_codes(),
                         n, out);
}

float ProductQuantizer::adc_distance(std::span<const float> lut,
                                     std::span<const std::uint8_t> code) const {
  float acc = 0.0f;
  for (std::size_t sub = 0; sub < m_; ++sub) {
    acc += lut[sub * cb_ + code_at(code, sub)];
  }
  return acc;
}

float ProductQuantizer::sdc_distance(std::span<const std::uint8_t> a,
                                     std::span<const std::uint8_t> b) const {
  float acc = 0.0f;
  for (std::size_t sub = 0; sub < m_; ++sub) {
    acc += l2_sq(codeword(sub, code_at(a, sub)), codeword(sub, code_at(b, sub)));
  }
  return acc;
}

double ProductQuantizer::reconstruction_error(const FloatMatrix& points) const {
  // Per-point errors in parallel, summed serially in point order.
  std::vector<float> err(points.count());
  parallel_for(0, points.count(), [&](std::size_t i) {
    thread_local std::vector<std::uint8_t> tl_code;
    thread_local std::vector<float> tl_recon;
    const std::span<std::uint8_t> code(scratch_buffer(tl_code, code_size()), code_size());
    const std::span<float> recon(scratch_buffer(tl_recon, dim_), dim_);
    encode(points.row(i), code);
    decode(code, recon);
    err[i] = l2_sq(points.row(i), recon);
  });
  double total = 0.0;
  for (const float e : err) total += e;
  return points.count() > 0 ? total / static_cast<double>(points.count()) : 0.0;
}

}  // namespace drim
