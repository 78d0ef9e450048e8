#include "core/mutable_index.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/kmeans.hpp"

namespace drim {

IndexWriter::IndexWriter(const IvfPqIndex& base, WriterParams params)
    : writer_params_(params),
      params_(base.params()),
      centroids_(base.centroids()),
      pq_(base.pq()),
      ntotal_(base.ntotal()),
      live_count_(base.ntotal()) {
  if (!base.trained()) throw std::invalid_argument("IndexWriter: base index not trained");
  if (base.opq()) opq_ = std::make_unique<OptimizedProductQuantizer>(*base.opq());
  lists_.reserve(params_.nlist);
  dead_.resize(params_.nlist);
  dead_count_.assign(params_.nlist, 0);
  for (std::size_t c = 0; c < params_.nlist; ++c) {
    lists_.push_back(base.list(c));
    dead_[c].assign(lists_[c].size(), 0);
    for (std::size_t i = 0; i < lists_[c].size(); ++i) {
      where_[lists_[c].ids[i]] = {static_cast<std::uint32_t>(c),
                                  static_cast<std::uint32_t>(i)};
    }
  }
}

std::size_t IndexWriter::live_size(std::uint32_t c) const {
  return lists_[c].size() - dead_count_[c];
}

bool IndexWriter::alive(std::uint32_t id) const {
  auto it = where_.find(id);
  if (it == where_.end()) return false;
  return dead_[it->second.first][it->second.second] == 0;
}

std::uint32_t IndexWriter::insert(std::span<const float> v) {
  assert(v.size() == centroids_.dim());
  const std::uint32_t c = nearest_centroid(centroids_, v);
  const std::size_t cs = pq_.code_size();
  // Encoded straight into the list's tail.
  std::vector<std::uint8_t>& codes = lists_[c].codes;
  codes.resize(codes.size() + cs);
  encode_residual(pq_, opq_.get(), centroids_.row(c), v, {codes.data() + codes.size() - cs, cs});

  const auto id = static_cast<std::uint32_t>(ntotal_++);
  where_[id] = {c, static_cast<std::uint32_t>(lists_[c].size())};
  lists_[c].ids.push_back(id);
  dead_[c].push_back(0);
  ++live_count_;
  ++pending_.inserts;
  pending_.appended_bytes += cs + sizeof(std::uint32_t);

  if (writer_params_.split_threshold > 0 &&
      live_size(c) > writer_params_.split_threshold) {
    split_cluster(c);
  }
  return id;
}

bool IndexWriter::erase(std::uint32_t id) {
  auto it = where_.find(id);
  if (it == where_.end()) return false;
  auto [c, pos] = it->second;
  if (dead_[c][pos]) return false;
  dead_[c][pos] = 1;
  ++dead_count_[c];
  --live_count_;
  ++pending_.deletes;
  pending_.tombstone_bytes += sizeof(std::uint32_t);
  return true;
}

void IndexWriter::split_cluster(std::uint32_t c) {
  const std::size_t cs = pq_.code_size();
  const std::size_t dim = centroids_.dim();

  // Gather the live members (splits compact: tombstoned entries are dropped
  // for good) and reconstruct them into the original vector space.
  std::vector<std::uint32_t> live_pos;
  live_pos.reserve(live_size(c));
  for (std::size_t i = 0; i < lists_[c].size(); ++i) {
    if (!dead_[c][i]) live_pos.push_back(static_cast<std::uint32_t>(i));
  }
  FloatMatrix points(live_pos.size(), dim);
  std::vector<float> decoded(dim);
  for (std::size_t r = 0; r < live_pos.size(); ++r) {
    pq_.decode(lists_[c].code(live_pos[r], cs), decoded);
    auto out = points.row(r);
    auto cen = centroids_.row(c);
    if (opq_) {
      const Matrix& rot = opq_->rotation();
      for (std::size_t a = 0; a < dim; ++a) {
        double acc = 0.0;
        for (std::size_t b = 0; b < dim; ++b) acc += rot.at(b, a) * decoded[b];
        out[a] = static_cast<float>(acc) + cen[a];
      }
    } else {
      for (std::size_t a = 0; a < dim; ++a) out[a] = decoded[a] + cen[a];
    }
  }

  // The same 2-means machinery the offline coarse quantizer uses, seeded
  // deterministically from the writer seed, the split ordinal, and the
  // cluster id — a given arrival trace always produces the same split.
  KMeansParams km_params;
  km_params.k = 2;
  km_params.max_iters = writer_params_.split_iters;
  km_params.seed = writer_params_.seed + 7919 * (total_splits_ + 1) + c;
  KMeansResult km = kmeans(points, km_params);

  const auto child = static_cast<std::uint32_t>(params_.nlist);
  for (std::size_t d = 0; d < dim; ++d) centroids_.row(c)[d] = km.centroids.row(0)[d];
  centroids_.push_back(km.centroids.row(1));
  params_.nlist += 1;

  // Rebuild both halves in original relative order, re-encoding every member
  // against its new centroid (codes are residual codes; the centroid moved).
  InvertedList parent_list, child_list;
  for (std::size_t r = 0; r < live_pos.size(); ++r) {
    const std::uint32_t target = km.assignment[r] == 0 ? c : child;
    InvertedList& dst = km.assignment[r] == 0 ? parent_list : child_list;
    dst.codes.resize(dst.codes.size() + cs);
    encode_residual(pq_, opq_.get(), centroids_.row(target), points.row(r),
                    {dst.codes.data() + dst.codes.size() - cs, cs});
    const std::uint32_t id = lists_[c].ids[live_pos[r]];
    where_[id] = {target, static_cast<std::uint32_t>(dst.ids.size())};
    dst.ids.push_back(id);
  }
  // Dropped tombstoned ids are gone for good; erase their locations.
  for (std::size_t i = 0; i < lists_[c].size(); ++i) {
    if (dead_[c][i]) where_.erase(lists_[c].ids[i]);
  }

  pending_.moved_bytes += parent_list.codes.size() + child_list.codes.size() +
                          sizeof(std::uint32_t) * (parent_list.ids.size() +
                                                   child_list.ids.size());
  pending_.splits.push_back(
      {c, child,
       live_pos.empty() ? 0.0
                        : static_cast<double>(child_list.ids.size()) /
                              static_cast<double>(live_pos.size())});
  ++total_splits_;

  lists_[c] = std::move(parent_list);
  lists_.push_back(std::move(child_list));
  dead_[c].assign(lists_[c].size(), 0);
  dead_.emplace_back(lists_[child].size(), 0);
  dead_count_[c] = 0;
  dead_count_.push_back(0);
}

IvfPqIndex IndexWriter::materialize(std::vector<InvertedList> lists) const {
  IvfPqIndex idx;
  std::unique_ptr<OptimizedProductQuantizer> opq;
  if (opq_) opq = std::make_unique<OptimizedProductQuantizer>(*opq_);
  idx.restore(params_, centroids_, pq_, std::move(opq), std::move(lists), ntotal_);
  return idx;
}

IndexSnapshot IndexWriter::publish(PublishDelta* delta_out) {
  ++version_;
  pending_.version = version_;
  IndexSnapshot snap;
  snap.version = version_;
  auto idx = std::make_shared<IvfPqIndex>(materialize(lists_));
  snap.index = std::move(idx);
  std::size_t dead_total = 0;
  for (std::size_t c = 0; c < params_.nlist; ++c) dead_total += dead_count_[c];
  if (dead_total > 0) {
    auto tomb = std::make_shared<Tombstones>();
    tomb->dead = dead_;
    // A cluster with no tombstones exposes a null flag pointer, so the
    // kernels skip the liveness test (and its charge) entirely for it.
    for (std::size_t c = 0; c < tomb->dead.size(); ++c) {
      if (dead_count_[c] == 0) tomb->dead[c].clear();
    }
    tomb->count = dead_total;
    snap.tombstones = std::move(tomb);
  }
  if (delta_out) *delta_out = std::move(pending_);
  pending_ = PublishDelta{};
  return snap;
}

IvfPqIndex IndexWriter::compacted_index() const {
  std::vector<InvertedList> lists(params_.nlist);
  const std::size_t cs = pq_.code_size();
  for (std::size_t c = 0; c < params_.nlist; ++c) {
    InvertedList& out = lists[c];
    out.ids.reserve(live_size(static_cast<std::uint32_t>(c)));
    for (std::size_t i = 0; i < lists_[c].size(); ++i) {
      if (dead_[c][i]) continue;
      out.ids.push_back(lists_[c].ids[i]);
      auto code = lists_[c].code(i, cs);
      out.codes.insert(out.codes.end(), code.begin(), code.end());
    }
  }
  return materialize(std::move(lists));
}

IvfPqIndex compact_snapshot(const IndexSnapshot& snapshot) {
  const IvfPqIndex& src = *snapshot.index;
  const std::size_t cs = src.code_size();
  std::vector<InvertedList> lists(src.nlist());
  for (std::size_t c = 0; c < src.nlist(); ++c) {
    const InvertedList& in = src.list(c);
    const std::uint8_t* dead = snapshot.dead_flags(c);
    InvertedList& out = lists[c];
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (dead != nullptr && dead[i]) continue;
      out.ids.push_back(in.ids[i]);
      const auto code = in.code(i, cs);
      out.codes.insert(out.codes.end(), code.begin(), code.end());
    }
  }
  IvfPqIndex idx;
  std::unique_ptr<OptimizedProductQuantizer> opq;
  if (src.opq()) opq = std::make_unique<OptimizedProductQuantizer>(*src.opq());
  // ntotal stays the id-space high-water mark (not the live count) so a
  // later add() cannot reuse a live id.
  idx.restore(src.params(), src.centroids(), src.pq(), std::move(opq),
              std::move(lists), src.ntotal());
  return idx;
}

}  // namespace drim
