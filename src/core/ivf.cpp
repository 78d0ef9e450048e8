#include "core/ivf.hpp"

#include <cassert>
#include <vector>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "core/distances.hpp"

namespace drim {

void IvfPqIndex::train(const FloatMatrix& learn, const IvfPqParams& params) {
  assert(learn.count() >= params.nlist);
  params_ = params;

  // Coarse quantizer over the raw learn vectors.
  KMeansParams coarse;
  coarse.k = params.nlist;
  coarse.max_iters = params.coarse_iters;
  coarse.seed = params.seed;
  KMeansResult km = kmeans(learn, coarse);
  centroids_ = std::move(km.centroids);

  // Residuals of every learn vector against its assigned centroid — the
  // training distribution for the product quantizer (ADC operates on
  // residuals in cluster searching, Fig. 1).
  FloatMatrix residuals(learn.count(), learn.dim());
  parallel_for(0, learn.count(), [&](std::size_t i) {
    auto src = learn.row(i);
    auto cen = centroids_.row(km.assignment[i]);
    auto dst = residuals.row(i);
    for (std::size_t d = 0; d < learn.dim(); ++d) dst[d] = src[d] - cen[d];
  });

  switch (params.variant) {
    case PQVariant::kPQ: {
      PQParams pq = params.pq;
      pq.seed = params.seed + 1;
      pq_.train(residuals, pq);
      break;
    }
    case PQVariant::kOPQ: {
      OPQParams opq;
      opq.pq = params.pq;
      opq.pq.seed = params.seed + 1;
      opq.outer_iters = params.opq_iters;
      opq_ = std::make_unique<OptimizedProductQuantizer>();
      opq_->train(residuals, opq);
      pq_ = opq_->pq();
      break;
    }
    case PQVariant::kDPQ: {
      PQParams pq = params.pq;
      pq.seed = params.seed + 1;
      pq_.train(residuals, pq);
      dpq_refine(pq_, residuals, params.dpq);
      break;
    }
  }

  lists_.assign(params.nlist, {});
  ntotal_ = 0;
  trained_ = true;
}

void IvfPqIndex::restore(const IvfPqParams& params, FloatMatrix centroids,
                         ProductQuantizer pq,
                         std::unique_ptr<OptimizedProductQuantizer> opq,
                         std::vector<InvertedList> lists, std::size_t ntotal) {
  assert(centroids.count() == params.nlist);
  assert(lists.size() == params.nlist);
  assert((params.variant == PQVariant::kOPQ) == (opq != nullptr));
  params_ = params;
  centroids_ = std::move(centroids);
  pq_ = std::move(pq);
  opq_ = std::move(opq);
  lists_ = std::move(lists);
  ntotal_ = ntotal;
  trained_ = true;
}

IndexSnapshot make_root_snapshot(const IvfPqIndex& index) {
  IndexSnapshot snap;
  snap.version = 0;
  // Aliasing, non-owning: the caller keeps ownership, exactly as it did when
  // the layers below held a raw `const IvfPqIndex&`.
  snap.index = std::shared_ptr<const IvfPqIndex>(&index, [](const IvfPqIndex*) {});
  return snap;
}

IvfPqIndex IvfPqIndex::clone() const {
  IvfPqIndex copy;
  copy.params_ = params_;
  copy.trained_ = trained_;
  copy.ntotal_ = ntotal_;
  copy.centroids_ = centroids_;
  copy.pq_ = pq_;
  if (opq_) copy.opq_ = std::make_unique<OptimizedProductQuantizer>(*opq_);
  copy.lists_ = lists_;
  return copy;
}

void IvfPqIndex::reconstruct(std::uint32_t cluster, std::size_t i,
                             std::span<float> out) const {
  const std::size_t d = dim();
  assert(out.size() == d);
  std::vector<float> decoded(d);
  pq_.decode(lists_[cluster].code(i, code_size()), decoded);
  auto cen = centroids_.row(cluster);
  if (opq_) {
    // decode() yields the rotated residual r = R (v - c); undo with R^T.
    const Matrix& r = opq_->rotation();
    for (std::size_t a = 0; a < d; ++a) {
      double acc = 0.0;
      for (std::size_t b = 0; b < d; ++b) acc += r.at(b, a) * decoded[b];
      out[a] = static_cast<float>(acc) + cen[a];
    }
  } else {
    for (std::size_t a = 0; a < d; ++a) out[a] = decoded[a] + cen[a];
  }
}

void encode_residual(const ProductQuantizer& pq, const OptimizedProductQuantizer* opq,
                     std::span<const float> centroid, std::span<const float> v,
                     std::span<std::uint8_t> code) {
  const std::size_t dim = centroid.size();
  thread_local std::vector<float> tl_residual;
  float* residual = scratch_buffer(tl_residual, 2 * dim);
  for (std::size_t d = 0; d < dim; ++d) residual[d] = v[d] - centroid[d];
  if (opq != nullptr) {
    const std::span<float> rotated(residual + dim, dim);
    opq->rotate({residual, dim}, rotated);
    pq.encode(rotated, code);
  } else {
    pq.encode({residual, dim}, code);
  }
}

void IvfPqIndex::encode_residual(std::span<const float> v, std::uint32_t cluster,
                                 std::span<std::uint8_t> code) const {
  drim::encode_residual(pq_, opq_.get(), centroids_.row(cluster), v, code);
}

void IvfPqIndex::add(const ByteDataset& base) {
  assert(trained_);
  assert(base.dim() == dim());
  const std::size_t n = base.count();
  const std::size_t cs = code_size();
  auto point = [&](std::size_t i) {
    thread_local std::vector<float> tl_point;
    const std::span<float> v(scratch_buffer(tl_point, dim()), dim());
    base.row_as_float(i, v);
    return v;
  };

  // Assign in parallel; give every point its slot at the end of its list in
  // id order; then encode in parallel straight into those slots.
  std::vector<std::uint32_t> assign(n);
  parallel_for(0, n, [&](std::size_t i) { assign[i] = nearest_centroid(centroids_, point(i)); });

  std::vector<std::size_t> counts(params_.nlist, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[assign[i]];
  for (std::size_t c = 0; c < params_.nlist; ++c) {
    lists_[c].ids.reserve(lists_[c].ids.size() + counts[c]);
    lists_[c].codes.resize(lists_[c].codes.size() + counts[c] * cs);
  }
  const auto id_base = static_cast<std::uint32_t>(ntotal_);
  std::vector<std::uint32_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) {
    InvertedList& list = lists_[assign[i]];
    slot[i] = static_cast<std::uint32_t>(list.ids.size());
    list.ids.push_back(id_base + static_cast<std::uint32_t>(i));
  }
  parallel_for(0, n, [&](std::size_t i) {
    encode_residual(point(i), assign[i],
                    {lists_[assign[i]].codes.data() + slot[i] * cs, cs});
  });
  ntotal_ += n;
}

std::vector<std::size_t> IvfPqIndex::list_sizes() const {
  std::vector<std::size_t> sizes(lists_.size());
  for (std::size_t c = 0; c < lists_.size(); ++c) sizes[c] = lists_[c].size();
  return sizes;
}

std::vector<std::uint32_t> IvfPqIndex::locate_clusters(std::span<const float> query,
                                                       std::size_t nprobe) const {
  return nearest_centroids(centroids_, query, nprobe);
}

void IvfPqIndex::query_residual(std::span<const float> query, std::uint32_t cluster,
                                std::span<float> out) const {
  const std::size_t d = dim();
  assert(query.size() == d && out.size() == d);
  auto cen = centroids_.row(cluster);
  if (opq_) {
    std::vector<float> residual(d);
    for (std::size_t i = 0; i < d; ++i) residual[i] = query[i] - cen[i];
    opq_->rotate(residual, out);
  } else {
    for (std::size_t i = 0; i < d; ++i) out[i] = query[i] - cen[i];
  }
}

std::vector<Neighbor> IvfPqIndex::search(std::span<const float> query, std::size_t k,
                                         std::size_t nprobe) const {
  assert(trained_);
  TopK topk(k);
  std::vector<float> residual(dim());
  std::vector<float> lut(pq_.m() * pq_.cb_entries());
  std::vector<float> dists;

  // CL phase.
  const std::vector<std::uint32_t> probes = locate_clusters(query, nprobe);
  for (std::uint32_t c : probes) {
    const InvertedList& list = lists_[c];
    if (list.size() == 0) continue;
    // RC + LC phases.
    query_residual(query, c, residual);
    pq_.compute_adc_lut(residual, lut);
    // DC + TS phases.
    dists.resize(list.size());
    pq_.adc_scan(lut, list.codes.data(), list.size(), dists.data());
    for (std::size_t i = 0; i < list.size(); ++i) {
      topk.push(dists[i], list.ids[i]);
    }
  }
  return topk.take_sorted();
}

}  // namespace drim
