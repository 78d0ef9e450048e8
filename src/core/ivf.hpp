#pragma once
// Cluster-based (IVF) index with PQ-compressed residuals — the index family
// DRIM-ANN targets (Section II-A). Train learns nlist coarse centroids plus a
// product quantizer over residuals; add() assigns base points to clusters and
// stores their PQ codes; search() is the reference host implementation of the
// five-phase pipeline (CL -> RC -> LC -> DC -> TS). The DRIM engine reuses
// the trained index but executes RC/LC/DC/TS on simulated DPUs.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dpq.hpp"
#include "core/opq.hpp"
#include "core/pq.hpp"
#include "core/topk.hpp"
#include "data/dataset.hpp"

namespace drim {

class IvfPqIndex;

/// Per-cluster positional tombstone flags for a mutable index (see
/// core/mutable_index.hpp). `dead[c][i]` is nonzero when position i of
/// cluster c's inverted list is deleted. The search path consults these at
/// scan time — before the bounded top-k — so a dead entry can never evict a
/// live one and results stay bit-identical to a cold rebuild of the live set.
struct Tombstones {
  std::vector<std::vector<std::uint8_t>> dead;  ///< [cluster][position] flags
  std::size_t count = 0;                        ///< total dead positions

  bool any() const { return count > 0; }
  /// Flags for one cluster, or nullptr when the cluster has no tombstones
  /// (callers skip the per-point liveness test entirely in that case).
  const std::uint8_t* cluster_flags(std::size_t c) const {
    if (c >= dead.size() || dead[c].empty()) return nullptr;
    return dead[c].data();
  }
};

/// An immutable, refcounted view of one version of the index — what the
/// search path consumes. Every layer (engine, platforms, backends, serving
/// runtime, cluster router) resolves a snapshot per batch instead of holding
/// raw index references, so a writer can publish a new version between
/// batches without pausing serving. `tombstones` may be null (no deletes).
struct IndexSnapshot {
  std::uint64_t version = 0;
  std::shared_ptr<const IvfPqIndex> index;
  std::shared_ptr<const Tombstones> tombstones;

  const IvfPqIndex& operator*() const { return *index; }
  const IvfPqIndex* operator->() const { return index.get(); }
  /// Tombstone flags for cluster c, or nullptr when none.
  const std::uint8_t* dead_flags(std::size_t c) const {
    return tombstones ? tombstones->cluster_flags(c) : nullptr;
  }
};

/// Wrap a caller-owned index into a version-0 snapshot without taking
/// ownership (aliasing shared_ptr with a no-op deleter). This is how the
/// read-only construction paths — tests, benches, the CLI search command —
/// enter the snapshot world unchanged.
IndexSnapshot make_root_snapshot(const IvfPqIndex& index);

/// Which PQ variant encodes residuals.
enum class PQVariant : std::uint8_t { kPQ, kOPQ, kDPQ };

/// Index construction parameters (the paper's K/P/C/M/CB map to: K = search k,
/// P = nprobe, C = N/nlist, M = pq.m, CB = pq.cb_entries).
struct IvfPqParams {
  std::size_t nlist = 256;    ///< number of coarse clusters
  PQParams pq;                ///< residual quantizer shape (M, CB)
  PQVariant variant = PQVariant::kPQ;
  std::size_t opq_iters = 6;  ///< OPQ alternations (variant == kOPQ)
  DPQParams dpq;              ///< refinement knobs (variant == kDPQ)
  std::size_t coarse_iters = 15;
  std::uint64_t seed = 2024;
};

/// One inverted list: ids plus contiguous PQ codes.
struct InvertedList {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> codes;  ///< ids.size() * code_size bytes

  std::size_t size() const { return ids.size(); }
  std::span<const std::uint8_t> code(std::size_t i, std::size_t code_size) const {
    return {codes.data() + i * code_size, code_size};
  }
};

/// The one residual-encode path: residual of `v` against `centroid`, rotated
/// by `opq` when non-null, PQ-encoded into `code`. Works in per-thread
/// scratch, so it allocates nothing once warm. IvfPqIndex::add and the
/// mutable-index writer (streamed inserts, online splits) both encode here.
void encode_residual(const ProductQuantizer& pq, const OptimizedProductQuantizer* opq,
                     std::span<const float> centroid, std::span<const float> v,
                     std::span<std::uint8_t> code);

/// Trained, populated IVF-PQ index.
class IvfPqIndex {
 public:
  /// Learn coarse centroids and the residual quantizer from float rows.
  void train(const FloatMatrix& learn, const IvfPqParams& params);

  /// Assign base points to clusters, encode residuals, append to inverted
  /// lists. May be called repeatedly after train(); ids are assigned
  /// sequentially across calls (first batch gets 0..n-1, the next continues
  /// from ntotal()).
  void add(const ByteDataset& base);

  bool trained() const { return trained_; }
  std::size_t nlist() const { return params_.nlist; }
  std::size_t dim() const { return centroids_.dim(); }
  std::size_t ntotal() const { return ntotal_; }
  std::size_t code_size() const { return pq_.code_size(); }
  const IvfPqParams& params() const { return params_; }

  const FloatMatrix& centroids() const { return centroids_; }
  const ProductQuantizer& pq() const { return pq_; }
  const InvertedList& list(std::size_t c) const { return lists_[c]; }
  PQVariant variant() const { return params_.variant; }
  /// The OPQ rotation owner, or nullptr for non-OPQ variants.
  const OptimizedProductQuantizer* opq() const { return opq_.get(); }

  /// Rebuild a trained index from serialized state (see core/serialize.hpp).
  /// `opq` must be non-null iff params.variant == kOPQ.
  void restore(const IvfPqParams& params, FloatMatrix centroids, ProductQuantizer pq,
               std::unique_ptr<OptimizedProductQuantizer> opq,
               std::vector<InvertedList> lists, std::size_t ntotal);

  /// Sizes of all inverted lists (the paper's uneven-cluster observation).
  std::vector<std::size_t> list_sizes() const;

  /// Deep copy (duplicates the OPQ rotation owner when present). The mutable
  /// index writer clones the base index once, then materializes immutable
  /// per-version snapshots via restore().
  IvfPqIndex clone() const;

  /// Encode a raw (original-space) vector against `cluster`: residual,
  /// OPQ rotation when applicable, PQ encode. Public so the mutable-index
  /// writer can encode streamed inserts and re-encode points moved by an
  /// online cluster split.
  void encode_residual(std::span<const float> v, std::uint32_t cluster,
                       std::span<std::uint8_t> code) const;

  /// Reconstruct position `i` of cluster `c` back into the original vector
  /// space: decode the PQ code, undo the OPQ rotation when applicable, add
  /// the centroid. Deterministic; the online splitter re-clusters on these.
  void reconstruct(std::uint32_t cluster, std::size_t i, std::span<float> out) const;

  /// CL phase: ids of the nprobe closest centroids, ascending by distance.
  std::vector<std::uint32_t> locate_clusters(std::span<const float> query,
                                             std::size_t nprobe) const;

  /// RC phase for one (query, cluster) pair, including the OPQ rotation when
  /// applicable: out = R * (query - centroid). out.size() == dim().
  void query_residual(std::span<const float> query, std::uint32_t cluster,
                      std::span<float> out) const;

  /// Reference host search for one query: exact five-phase ADC pipeline.
  std::vector<Neighbor> search(std::span<const float> query, std::size_t k,
                               std::size_t nprobe) const;

 private:
  IvfPqParams params_;
  bool trained_ = false;
  std::size_t ntotal_ = 0;
  FloatMatrix centroids_;
  ProductQuantizer pq_;              // operates in (possibly rotated) space
  std::unique_ptr<OptimizedProductQuantizer> opq_;  // rotation owner when kOPQ
  std::vector<InvertedList> lists_;
};

}  // namespace drim
