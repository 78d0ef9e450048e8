#pragma once
// Inter-shard index partitioning for the multi-shard cluster tier
// (DESIGN.md §13). This is the paper's Section IV-C heat-balancing greedy
// allocation lifted one level up: instead of placing cluster slices on DPUs
// inside one array, the plan places whole clusters on shard nodes (each a
// full PimPlatform behind an AnnBackend), replicating the hottest
// `replication_fraction` of clusters across several shards so the router can
// send a hot cluster's traffic to whichever owner is least loaded.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace drim::cluster {

/// Planning knobs (the inter-shard analogue of drim::LayoutParams).
struct ShardPlanParams {
  std::size_t num_shards = 1;
  /// Fraction of the hottest clusters replicated onto extra shards (the
  /// paper's dup_fraction at the inter-shard level).
  double replication_fraction = 0.10;
  /// Extra owners for each replicated cluster (clamped to num_shards - 1).
  std::size_t replica_copies = 1;
  /// Relative cost of one LUT build vs scanning one point, matching
  /// LayoutParams::lut_cost_points — a cluster visit costs lut + size.
  double lut_cost_points = 64.0;
};

/// The computed cluster -> shards assignment. Deterministic: ties in the
/// greedy placement break toward the lowest shard id, and the unit order is
/// a strict total order, so the plan is identical across runs and platforms.
class ShardPlan {
 public:
  /// Plan ownership of `cluster_sizes.size()` clusters across
  /// `params.num_shards` shards, balancing `heat[c] * (lut + size[c])`
  /// expected load. Throws std::invalid_argument on infeasible parameters;
  /// the num_shards > nlist error names the max feasible shard count.
  ShardPlan(const std::vector<std::size_t>& cluster_sizes,
            const std::vector<double>& cluster_heat, const ShardPlanParams& params);

  std::size_t num_shards() const { return params_.num_shards; }
  std::size_t nlist() const { return owners_.size(); }
  const ShardPlanParams& params() const { return params_; }

  /// Owning shards of one cluster, ascending; size 1 unless replicated.
  const std::vector<std::uint32_t>& owners(std::uint32_t cluster) const {
    return owners_[cluster];
  }
  /// Clusters owned by one shard, ascending cluster id.
  const std::vector<std::uint32_t>& shard_clusters(std::uint32_t shard) const {
    return shard_clusters_[shard];
  }
  /// nlist-sized mask of one shard's clusters, in the form
  /// LayoutParams::owned_clusters consumes: 0 where the shard does not own
  /// the cluster, else the cluster's owner count (saturating at 255).
  /// Owners flagged nonzero in `drained` (indexed by shard) serve no visit
  /// and are not counted.
  std::vector<std::uint8_t> owned_mask(std::uint32_t shard,
                                       std::span<const std::uint8_t> drained = {}) const;
  bool replicated(std::uint32_t cluster) const { return owners_[cluster].size() > 1; }

  /// Expected per-visit cost of a cluster (the dispatch policy's load unit).
  double cluster_cost(std::uint32_t cluster) const {
    return params_.lut_cost_points + static_cast<double>(sizes_[cluster]);
  }
  /// Mean per-visit cost over one shard's clusters (converts a shard's
  /// queued task count into comparable load units).
  double mean_cluster_cost(std::uint32_t shard) const;
  /// Heat-weighted load the planner assigned each shard (what it balanced).
  const std::vector<double>& planned_load() const { return planned_load_; }

  // ---- online mutation (recovery / snapshot publishes) ----
  /// Add `shard` as an owner of `cluster` (failure recovery re-replicates a
  /// drained shard's exclusive clusters this way). No-op when the shard
  /// already owns the cluster. The shard's planned load grows by the
  /// cluster's per-visit cost (heat is unknown post-hoc; cost is the proxy
  /// the dispatch policy already uses).
  void add_owner(std::uint32_t cluster, std::uint32_t shard);
  /// Extend the plan for one online cluster split: the child (whose id is
  /// nlist() before the call) inherits every owner of its parent, and both
  /// recorded sizes refresh so cluster_cost() stays meaningful for dispatch.
  void add_split_child(std::uint32_t parent, std::size_t parent_size,
                       std::size_t child_size);

 private:
  ShardPlanParams params_;
  std::vector<std::size_t> sizes_;
  std::vector<std::vector<std::uint32_t>> owners_;         // cluster -> shards
  std::vector<std::vector<std::uint32_t>> shard_clusters_; // shard -> clusters
  std::vector<double> planned_load_;
};

}  // namespace drim::cluster
