#pragma once
// Integer-quantized view of a trained IvfPqIndex, ready to be laid out in DPU
// MRAM. DPUs have no floating point worth using (every FP op is emulated), so
// DRIM-ANN fixes the whole cluster-searching pipeline in int16/uint32:
//   - coarse centroids and PQ codewords are rounded to int16 (the data domain
//     is uint8, so rounding error is < 0.5 per component — measured recall
//     impact is below the ADC approximation noise; tests pin this),
//   - queries are quantized to int16 on the host before transfer,
//   - LUT entries and distances are exact uint32 integer arithmetic, which is
//     what makes the square-LUT conversion lossless.

#include <cstdint>
#include <vector>

#include "core/ivf.hpp"

namespace drim {

/// Quantized index contents shared by all DPUs (centroids + codebooks) plus
/// per-cluster code storage, produced once offline from a trained index.
class PimIndexData {
 public:
  /// Quantize `index` (must be trained and populated). `with_q4` builds the
  /// 4-bit rung's tables (per-subquantizer k-means plus a repack of every
  /// code); callers that never run the q4 rung pass false and skip that
  /// cost, leaving has_q4() false.
  explicit PimIndexData(const IvfPqIndex& index, bool with_q4 = true);

  std::size_t dim() const { return dim_; }
  std::size_t m() const { return m_; }
  std::size_t dsub() const { return dim_ / m_; }
  std::size_t cb_entries() const { return cb_; }
  std::size_t nlist() const { return nlist_; }
  std::size_t code_size() const { return code_size_; }
  bool wide_codes() const { return wide_codes_; }

  // ---- quantization ladder: packed 4-bit rung (DESIGN.md §15) ----
  // The q4 tables coarsen each subquantizer's codebook to cb4() entries
  // (8-bit code e maps to coarse entry e * cb4 / cb) and pack two 4-bit
  // codes per byte, halving the MRAM code stream. They are derived, never
  // authoritative: the full-precision codes stay the source of truth and
  // the q4 rung reranks its survivors exactly on the host. Wide-code
  // indexes (cb > 256) have no 4-bit rung — has_q4() is false there.

  /// True when the 4-bit rung's tables were built for this index (requested
  /// at construction, and narrow codes).
  bool has_q4() const { return !codebooks_q4_.empty(); }
  /// Coarse codebook entries per subquantizer (min(cb, 16)).
  std::size_t cb4() const { return cb4_; }
  /// Packed bytes per point on the q4 rung: two codes per byte.
  std::size_t code_size_q4() const { return (m_ + 1) / 2; }
  /// Coarse entry subquantizer `sub`'s full-precision code value `e` maps
  /// to (per-subquantizer k-means assignment built by build_q4_tables —
  /// codeword ids carry no geometric order, so a formulaic id-range mapping
  /// would coarsen unrelated codewords together).
  std::uint32_t q4_entry(std::size_t sub, std::uint32_t e) const {
    return q4_map_[sub * cb_ + e];
  }
  /// All coarse codebooks as one flat blob: int16[m * cb4 * dsub].
  std::span<const std::int16_t> codebooks_q4() const { return codebooks_q4_; }
  /// Packed 4-bit codes of cluster c (low nibble = even subquantizer).
  std::span<const std::uint8_t> cluster_codes_q4(std::size_t c) const {
    return lists_codes_q4_[c];
  }
  /// Per-cluster residual scalar-quantization shift: residual and coarse
  /// codeword components are arithmetic-shifted right by this many bits
  /// before the q4 LUT squaring, keeping big-magnitude clusters' operands
  /// in ~8-bit range. Deterministic from the quantized centroid alone, so
  /// the host replay and the functional kernel agree bit-for-bit.
  std::uint32_t cluster_shift(std::size_t c) const { return cluster_shifts_[c]; }

  /// Centroid of cluster c: dim() int16 values.
  std::span<const std::int16_t> centroid(std::size_t c) const {
    return {centroids_.data() + c * dim_, dim_};
  }
  /// Codeword e of subquantizer sub: dsub() int16 values.
  std::span<const std::int16_t> codeword(std::size_t sub, std::size_t e) const {
    return {codebooks_.data() + (sub * cb_ + e) * dsub(), dsub()};
  }
  /// All codebooks as one flat blob (broadcast payload).
  std::span<const std::int16_t> codebooks() const { return codebooks_; }
  /// All centroids as one flat blob (broadcast payload).
  std::span<const std::int16_t> centroids() const { return centroids_; }

  /// PQ codes / ids of cluster c (same layout as the source InvertedList).
  std::span<const std::uint8_t> cluster_codes(std::size_t c) const {
    return lists_codes_[c];
  }
  std::span<const std::uint32_t> cluster_ids(std::size_t c) const {
    return lists_ids_[c];
  }
  std::size_t cluster_size(std::size_t c) const { return lists_ids_[c].size(); }

  /// Largest |value| across centroids and codewords — determines the square
  /// LUT range needed for losslessness.
  std::int32_t max_operand_abs() const { return max_operand_abs_; }

  /// Read code value `sub` of the i-th point in a raw code blob.
  std::uint32_t code_at(std::span<const std::uint8_t> codes, std::size_t i,
                        std::size_t sub) const;

  /// Quantize a float query to the int16 transfer format.
  static std::vector<std::int16_t> quantize_query(std::span<const float> q);

 private:
  void build_q4_tables();

  std::size_t dim_ = 0, m_ = 0, cb_ = 0, nlist_ = 0, code_size_ = 0;
  bool wide_codes_ = false;
  std::int32_t max_operand_abs_ = 0;
  std::vector<std::int16_t> centroids_;  // nlist * dim
  std::vector<std::int16_t> codebooks_;  // m * cb * dsub
  std::vector<std::vector<std::uint8_t>> lists_codes_;
  std::vector<std::vector<std::uint32_t>> lists_ids_;

  // 4-bit rung tables (empty when wide_codes_).
  std::size_t cb4_ = 0;
  std::vector<std::int16_t> codebooks_q4_;  // m * cb4 * dsub
  std::vector<std::uint8_t> q4_map_;        // m * cb: code -> coarse entry
  std::vector<std::vector<std::uint8_t>> lists_codes_q4_;
  std::vector<std::uint32_t> cluster_shifts_;  // nlist
};

}  // namespace drim
