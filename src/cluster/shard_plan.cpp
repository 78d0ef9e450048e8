#include "cluster/shard_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace drim::cluster {

ShardPlan::ShardPlan(const std::vector<std::size_t>& cluster_sizes,
                     const std::vector<double>& cluster_heat,
                     const ShardPlanParams& params)
    : params_(params), sizes_(cluster_sizes) {
  const std::size_t nlist = cluster_sizes.size();
  const std::size_t S = params.num_shards;
  if (S == 0) {
    throw std::invalid_argument("ShardPlan: num_shards must be at least 1");
  }
  if (S > nlist) {
    throw std::invalid_argument(
        "ShardPlan: " + std::to_string(S) + " shards cannot each own a cluster; "
        "maximum feasible shard count for this index is " + std::to_string(nlist) +
        " (one per IVF cluster)");
  }
  if (cluster_heat.size() != nlist) {
    throw std::invalid_argument(
        "ShardPlan: cluster_heat has " + std::to_string(cluster_heat.size()) +
        " entries for " + std::to_string(nlist) + " clusters");
  }
  if (!(params.replication_fraction >= 0.0 && params.replication_fraction <= 1.0)) {
    throw std::invalid_argument(
        "ShardPlan: replication_fraction must be in [0, 1]");
  }

  owners_.resize(nlist);
  shard_clusters_.resize(S);
  planned_load_.assign(S, 0.0);

  // Rank clusters by expected load (heat x per-visit cost), exactly as the
  // intra-array layout ranks duplication victims.
  auto expected_load = [&](std::uint32_t c) {
    return cluster_heat[c] * cluster_cost(c);
  };
  std::vector<std::uint32_t> by_load(nlist);
  for (std::uint32_t c = 0; c < nlist; ++c) by_load[c] = c;
  std::sort(by_load.begin(), by_load.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double la = expected_load(a), lb = expected_load(b);
    if (la != lb) return la > lb;
    return a < b;  // deterministic tie-break
  });
  const std::size_t num_hot =
      S > 1 ? static_cast<std::size_t>(static_cast<double>(nlist) *
                                       params.replication_fraction)
            : 0;
  std::vector<std::uint32_t> copies(nlist, 0);
  const std::size_t max_copies = std::min(params.replica_copies, S - 1);
  for (std::size_t i = 0; i < num_hot; ++i) {
    copies[by_load[i]] = static_cast<std::uint32_t>(max_copies);
  }

  // One placement unit per (cluster, replica); a replica splits the
  // cluster's expected traffic, mirroring DataLayout's visit_share.
  struct Unit {
    std::uint32_t cluster, replica;
    double load;
  };
  std::vector<Unit> units;
  units.reserve(nlist);
  for (std::uint32_t c = 0; c < nlist; ++c) {
    const double share = expected_load(c) / static_cast<double>(copies[c] + 1);
    for (std::uint32_t r = 0; r <= copies[c]; ++r) {
      units.push_back({c, r, share});
    }
  }
  std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
    if (a.load != b.load) return a.load > b.load;
    if (a.cluster != b.cluster) return a.cluster < b.cluster;
    return a.replica < b.replica;
  });

  // Greedy: heaviest unit onto the least-loaded shard that does not already
  // own the cluster (two replicas on one shard would defeat replication).
  for (const Unit& u : units) {
    auto& taken = owners_[u.cluster];
    std::uint32_t best = 0;
    double best_load = 1e300;
    bool found = false;
    for (std::uint32_t s = 0; s < S; ++s) {
      if (std::find(taken.begin(), taken.end(), s) != taken.end()) continue;
      if (planned_load_[s] < best_load) {
        best_load = planned_load_[s];
        best = s;
        found = true;
      }
    }
    if (!found) continue;  // more replicas than shards (clamped above; safety)
    planned_load_[best] += u.load;
    taken.push_back(best);
    shard_clusters_[best].push_back(u.cluster);
  }
  for (auto& o : owners_) std::sort(o.begin(), o.end());
  for (auto& sc : shard_clusters_) std::sort(sc.begin(), sc.end());
}

std::vector<std::uint8_t> ShardPlan::owned_mask(
    std::uint32_t shard, std::span<const std::uint8_t> drained) const {
  std::vector<std::uint8_t> mask(nlist(), 0);
  for (std::uint32_t c : shard_clusters_[shard]) {
    std::size_t live = 0;
    for (std::uint32_t s : owners_[c]) {
      if (s >= drained.size() || drained[s] == 0) ++live;
    }
    mask[c] = static_cast<std::uint8_t>(std::clamp<std::size_t>(live, 1, 255));
  }
  return mask;
}

void ShardPlan::add_owner(std::uint32_t cluster, std::uint32_t shard) {
  if (cluster >= owners_.size()) {
    throw std::invalid_argument("ShardPlan::add_owner: cluster out of range");
  }
  if (shard >= params_.num_shards) {
    throw std::invalid_argument("ShardPlan::add_owner: shard out of range");
  }
  auto& owners = owners_[cluster];
  if (std::find(owners.begin(), owners.end(), shard) != owners.end()) return;
  owners.insert(std::upper_bound(owners.begin(), owners.end(), shard), shard);
  auto& clusters = shard_clusters_[shard];
  clusters.insert(std::upper_bound(clusters.begin(), clusters.end(), cluster),
                  cluster);
  planned_load_[shard] += cluster_cost(cluster);
}

void ShardPlan::add_split_child(std::uint32_t parent, std::size_t parent_size,
                                std::size_t child_size) {
  if (parent >= owners_.size()) {
    throw std::invalid_argument("ShardPlan::add_split_child: parent out of range");
  }
  const auto child = static_cast<std::uint32_t>(owners_.size());
  sizes_[parent] = parent_size;
  sizes_.push_back(child_size);
  owners_.push_back(owners_[parent]);
  for (std::uint32_t s : owners_[parent]) {
    shard_clusters_[s].push_back(child);  // child id == old nlist: stays sorted
    planned_load_[s] += cluster_cost(child);
  }
}

double ShardPlan::mean_cluster_cost(std::uint32_t shard) const {
  const auto& clusters = shard_clusters_[shard];
  if (clusters.empty()) return params_.lut_cost_points;
  double total = 0.0;
  for (std::uint32_t c : clusters) total += cluster_cost(c);
  return total / static_cast<double>(clusters.size());
}

}  // namespace drim::cluster
