#include "drim/pim_index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace drim {
namespace {

std::int16_t to_i16(float v) {
  const float r = std::round(v);
  assert(r >= -32768.0f && r <= 32767.0f);
  return static_cast<std::int16_t>(r);
}

}  // namespace

PimIndexData::PimIndexData(const IvfPqIndex& index, bool with_q4) {
  assert(index.trained());
  dim_ = index.dim();
  const ProductQuantizer& pq = index.pq();
  m_ = pq.m();
  cb_ = pq.cb_entries();
  nlist_ = index.nlist();
  code_size_ = pq.code_size();
  wide_codes_ = pq.wide_codes();

  centroids_.resize(nlist_ * dim_);
  for (std::size_t c = 0; c < nlist_; ++c) {
    auto src = index.centroids().row(c);
    for (std::size_t d = 0; d < dim_; ++d) {
      const std::int16_t q = to_i16(src[d]);
      centroids_[c * dim_ + d] = q;
      max_operand_abs_ = std::max<std::int32_t>(max_operand_abs_, std::abs(q));
    }
  }

  const std::size_t dsub = dim_ / m_;
  codebooks_.resize(m_ * cb_ * dsub);
  for (std::size_t sub = 0; sub < m_; ++sub) {
    for (std::size_t e = 0; e < cb_; ++e) {
      auto cw = pq.codeword(sub, e);
      for (std::size_t d = 0; d < dsub; ++d) {
        const std::int16_t q = to_i16(cw[d]);
        codebooks_[(sub * cb_ + e) * dsub + d] = q;
        max_operand_abs_ = std::max<std::int32_t>(max_operand_abs_, std::abs(q));
      }
    }
  }

  lists_codes_.resize(nlist_);
  lists_ids_.resize(nlist_);
  for (std::size_t c = 0; c < nlist_; ++c) {
    const InvertedList& list = index.list(c);
    lists_ids_[c] = list.ids;
    lists_codes_[c] = list.codes;
  }

  if (with_q4) build_q4_tables();
}

void PimIndexData::build_q4_tables() {
  if (wide_codes_) return;  // cb > 256: no 4-bit rung for wide-code indexes
  cb4_ = std::min<std::size_t>(cb_, 16);
  const std::size_t dsub = dim_ / m_;

  // Coarse codebook: per-subquantizer k-means over the full codebook's
  // codewords (Lloyd's with norm-quantile seeding, a fixed iteration count,
  // and lowest-index tie-breaks — fully deterministic, no RNG). Codeword ids
  // carry no geometric order, so any formulaic id-range grouping would
  // average unrelated codewords into near-global-mean entries and destroy
  // the rung's recall.
  codebooks_q4_.assign(m_ * cb4_ * dsub, 0);
  q4_map_.assign(m_ * cb_, 0);
  for (std::size_t sub = 0; sub < m_; ++sub) {
    const std::int16_t* book = codebooks_.data() + sub * cb_ * dsub;

    // Seed centers at norm quantiles so they span the codeword cloud.
    std::vector<std::int64_t> norms(cb_, 0);
    for (std::size_t e = 0; e < cb_; ++e) {
      for (std::size_t d = 0; d < dsub; ++d) {
        const std::int64_t v = book[e * dsub + d];
        norms[e] += v * v;
      }
    }
    std::vector<std::size_t> order(cb_);
    for (std::size_t e = 0; e < cb_; ++e) order[e] = e;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return norms[a] != norms[b] ? norms[a] < norms[b] : a < b;
                     });
    std::vector<double> centers(cb4_ * dsub);
    for (std::size_t g = 0; g < cb4_; ++g) {
      const std::size_t pick = order[(2 * g + 1) * cb_ / (2 * cb4_)];
      for (std::size_t d = 0; d < dsub; ++d) {
        centers[g * dsub + d] = book[pick * dsub + d];
      }
    }

    std::vector<std::uint8_t> assign(cb_, 0);
    auto assign_all = [&] {
      for (std::size_t e = 0; e < cb_; ++e) {
        double best = 0.0;
        std::size_t best_g = 0;
        for (std::size_t g = 0; g < cb4_; ++g) {
          double dist = 0.0;
          for (std::size_t d = 0; d < dsub; ++d) {
            const double diff =
                static_cast<double>(book[e * dsub + d]) - centers[g * dsub + d];
            dist += diff * diff;
          }
          if (g == 0 || dist < best) {
            best = dist;
            best_g = g;
          }
        }
        assign[e] = static_cast<std::uint8_t>(best_g);
      }
    };
    for (int iter = 0; iter < 10; ++iter) {
      assign_all();
      std::vector<double> acc(cb4_ * dsub, 0.0);
      std::vector<std::size_t> counts(cb4_, 0);
      for (std::size_t e = 0; e < cb_; ++e) {
        for (std::size_t d = 0; d < dsub; ++d) {
          acc[assign[e] * dsub + d] += book[e * dsub + d];
        }
        ++counts[assign[e]];
      }
      for (std::size_t g = 0; g < cb4_; ++g) {
        if (counts[g] == 0) continue;  // empty group keeps its center
        for (std::size_t d = 0; d < dsub; ++d) {
          centers[g * dsub + d] = acc[g * dsub + d] / static_cast<double>(counts[g]);
        }
      }
    }
    assign_all();  // final map against the final centers

    for (std::size_t e = 0; e < cb_; ++e) q4_map_[sub * cb_ + e] = assign[e];
    std::int16_t* out = codebooks_q4_.data() + sub * cb4_ * dsub;
    for (std::size_t g = 0; g < cb4_; ++g) {
      for (std::size_t d = 0; d < dsub; ++d) {
        out[g * dsub + d] =
            static_cast<std::int16_t>(std::lround(centers[g * dsub + d]));
      }
    }
  }

  // Per-cluster residual shift: keep |residual| roughly 8-bit. The residual
  // magnitude is bounded by max|centroid| + max|query component|, and the
  // data domain is uint8-rooted, so the centroid magnitude is the driver.
  cluster_shifts_.assign(nlist_, 0);
  for (std::size_t c = 0; c < nlist_; ++c) {
    std::int32_t max_abs = 0;
    for (std::size_t d = 0; d < dim_; ++d) {
      max_abs = std::max<std::int32_t>(max_abs, std::abs(centroids_[c * dim_ + d]));
    }
    std::uint32_t shift = 0;
    for (std::int32_t bound = max_abs + 255; (bound >> shift) > 255;) ++shift;
    cluster_shifts_[c] = shift;
  }

  // Pack two 4-bit codes per byte (low nibble = even subquantizer).
  const std::size_t cs4 = code_size_q4();
  lists_codes_q4_.resize(nlist_);
  for (std::size_t c = 0; c < nlist_; ++c) {
    const std::size_t n = lists_ids_[c].size();
    std::vector<std::uint8_t>& packed = lists_codes_q4_[c];
    packed.assign(n * cs4, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t sub = 0; sub < m_; ++sub) {
        const std::uint32_t g = q4_entry(sub, code_at(lists_codes_[c], i, sub));
        std::uint8_t& byte = packed[i * cs4 + sub / 2];
        byte |= static_cast<std::uint8_t>((g & 0xF) << ((sub % 2) * 4));
      }
    }
  }
}

std::uint32_t PimIndexData::code_at(std::span<const std::uint8_t> codes, std::size_t i,
                                    std::size_t sub) const {
  const std::uint8_t* p = codes.data() + i * code_size_;
  if (wide_codes_) {
    std::uint16_t v = 0;
    std::memcpy(&v, p + sub * 2, 2);
    return v;
  }
  return p[sub];
}

std::vector<std::int16_t> PimIndexData::quantize_query(std::span<const float> q) {
  std::vector<std::int16_t> out(q.size());
  for (std::size_t d = 0; d < q.size(); ++d) out[d] = to_i16(q[d]);
  return out;
}

}  // namespace drim
