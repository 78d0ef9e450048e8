#pragma once
// Product quantization (Jégou et al., TPAMI'11): split D-dimensional vectors
// into M subvectors, k-means each subspace into CB codewords, store points as
// M small codes. Search uses asymmetric distance computation (ADC): per query
// a [M x CB] lookup table of partial squared distances is built once, after
// which each point's distance is M table loads + (M-1) additions — exactly
// the computation DRIM-ANN maps onto DPUs.
//
// CB may exceed 256 ("DRIM-ANN supports more codebook entries"); codes are
// stored as uint8 when CB <= 256 and uint16 otherwise.

#include <cstdint>
#include <vector>

#include "core/kmeans.hpp"
#include "data/dataset.hpp"

namespace drim {

/// PQ training configuration.
struct PQParams {
  std::size_t m = 16;           ///< number of subquantizers (must divide dim)
  std::size_t cb_entries = 256; ///< codewords per subquantizer (CB), <= 65536
  std::size_t train_iters = 15;
  std::uint64_t seed = 7;
};

/// A trained product quantizer.
class ProductQuantizer {
 public:
  ProductQuantizer() = default;

  /// Train per-subspace codebooks on float training rows (typically IVF
  /// residuals). Throws std::invalid_argument unless params.m > 0 divides
  /// points.dim() and 2 <= params.cb_entries <= 65536.
  void train(const FloatMatrix& points, const PQParams& params);

  std::size_t dim() const { return dim_; }
  std::size_t m() const { return m_; }
  std::size_t cb_entries() const { return cb_; }
  std::size_t dsub() const { return dim_ / m_; }
  /// Bytes per encoded point.
  std::size_t code_size() const { return m_ * (cb_ > 256 ? 2 : 1); }
  bool wide_codes() const { return cb_ > 256; }

  /// Codeword `e` of subquantizer `sub` (dsub floats).
  std::span<const float> codeword(std::size_t sub, std::size_t e) const;

  /// Encode one vector into code_size() bytes (nearest codeword per subspace).
  void encode(std::span<const float> v, std::span<std::uint8_t> code) const;

  /// Decode a code back to its reconstruction.
  void decode(std::span<const std::uint8_t> code, std::span<float> out) const;

  /// Read the sub-th code value regardless of width.
  std::uint32_t code_at(std::span<const std::uint8_t> code, std::size_t sub) const;

  /// Build the ADC lookup table for a (residual) query: lut[sub * CB + e] =
  /// squared L2 distance between query subvector `sub` and codeword `e`.
  void compute_adc_lut(std::span<const float> query, std::span<float> lut) const;

  /// ADC distance of an encoded point given a precomputed LUT.
  float adc_distance(std::span<const float> lut, std::span<const std::uint8_t> code) const;

  /// ADC distances of `n` consecutively packed codes (the inverted-list
  /// layout): out[i] = adc_distance(lut, code i). Routes through the
  /// SIMD-dispatched kernel table; bit-identical to calling adc_distance in
  /// a loop.
  void adc_scan(std::span<const float> lut, const std::uint8_t* codes,
                std::size_t n, float* out) const;

  /// Symmetric distance (SDC) between two codes; provided for completeness
  /// (the paper adopts ADC because it is more accurate at equal cost).
  float sdc_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) const;

  /// Mean squared reconstruction error over a set of rows.
  double reconstruction_error(const FloatMatrix& points) const;

  /// Raw codebooks: m() matrices of [CB x dsub] floats (mutable for DPQ-style
  /// refinement).
  FloatMatrix& codebook(std::size_t sub) { return codebooks_[sub]; }
  const FloatMatrix& codebook(std::size_t sub) const { return codebooks_[sub]; }

  /// Rebuild a quantizer from serialized state (see core/serialize.hpp).
  /// codebooks must hold m matrices of [cb x (dim/m)] each; a geometry or
  /// codebook shape that violates train()'s bounds throws
  /// std::invalid_argument.
  void restore(std::size_t dim, std::size_t m, std::size_t cb,
               std::vector<FloatMatrix> codebooks);

 private:
  std::size_t dim_ = 0, m_ = 0, cb_ = 0;
  std::vector<FloatMatrix> codebooks_;  // one [CB x dsub] matrix per subspace
};

}  // namespace drim
