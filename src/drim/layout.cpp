#include "drim/layout.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"

namespace drim {

std::vector<double> estimate_heat(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                                  std::size_t nprobe) {
  // Locate every sample query in parallel, then count serially in query
  // order. The counts are whole numbers, so the heat is exact either way.
  const std::size_t nq = sample_queries.count();
  const std::size_t width = std::min(nprobe, index.nlist());
  std::vector<std::uint32_t> probes(nq * width);
  parallel_for(0, nq, [&](std::size_t q) {
    const std::vector<std::uint32_t> located =
        index.locate_clusters(sample_queries.row(q), nprobe);
    assert(located.size() == width);
    std::copy(located.begin(), located.end(), probes.begin() + q * width);
  });
  std::vector<double> heat(index.nlist(), 0.0);
  for (const std::uint32_t c : probes) heat[c] += 1.0;
  // Laplace smoothing: unseen clusters still carry their size-proportional
  // base cost so the allocator does not pile them all on one DPU.
  for (auto& h : heat) h += 0.5;
  return heat;
}

DataLayout::DataLayout(const PimIndexData& data, std::size_t num_dpus,
                       const std::vector<double>& cluster_heat, const LayoutParams& params)
    : num_dpus_(num_dpus), params_(params) {
  assert(num_dpus > 0);
  assert(cluster_heat.size() == data.nlist());
  const std::size_t nlist = data.nlist();
  if (!params.owned_clusters.empty() && params.owned_clusters.size() != nlist) {
    throw std::invalid_argument(
        "LayoutParams::owned_clusters must be empty or have one entry per "
        "cluster (nlist = " + std::to_string(nlist) + ", mask has " +
        std::to_string(params.owned_clusters.size()) + ")");
  }
  auto owned = [&](std::uint32_t c) {
    return params.owned_clusters.empty() || params.owned_clusters[c] != 0;
  };
  // The share of a cluster's heat this array serves: all of it, unless
  // other shards own the cluster too.
  auto heat = [&](std::uint32_t c) {
    return params.owned_clusters.empty() || params.owned_clusters[c] <= 1
               ? cluster_heat[c]
               : cluster_heat[c] / static_cast<double>(params.owned_clusters[c]);
  };
  cluster_slices_.resize(nlist);

  struct PendingShard {
    std::uint32_t cluster, begin, end, replica, slice;
    double heat;  // expected per-batch cost contribution
  };
  std::vector<PendingShard> pending;

  // Rank duplication victims by expected load — heat x per-visit cost — not
  // raw heat: a rarely-duplicated giant cluster otherwise pins its DPU even
  // when mid-sized clusters are accessed more often. (The paper ranks by
  // access frequency and notes size correlates with it; expected load is
  // the quantity both signals proxy.)
  auto expected_load = [&](std::uint32_t c) {
    return heat(c) * (params.lut_cost_points + static_cast<double>(data.cluster_size(c)));
  };
  std::vector<std::uint32_t> by_heat;
  by_heat.reserve(nlist);
  for (std::uint32_t c = 0; c < nlist; ++c) {
    if (owned(c)) by_heat.push_back(c);
  }
  std::sort(by_heat.begin(), by_heat.end(), [&](std::uint32_t a, std::uint32_t b) {
    return expected_load(a) > expected_load(b);
  });
  const std::size_t num_hot = params.enable_duplicate
      ? static_cast<std::size_t>(static_cast<double>(by_heat.size()) * params.dup_fraction)
      : 0;
  std::vector<std::uint8_t> is_hot(nlist, 0);
  for (std::size_t i = 0; i < num_hot; ++i) is_hot[by_heat[i]] = 1;

  // ---- Data Partition + Data Duplication: enumerate shards ----
  for (std::uint32_t c = 0; c < nlist; ++c) {
    if (!owned(c)) continue;  // unowned clusters keep empty slice_groups
    const auto size = static_cast<std::uint32_t>(data.cluster_size(c));
    const std::uint32_t threshold =
        params.enable_split ? static_cast<std::uint32_t>(params.split_threshold)
                            : std::max<std::uint32_t>(size, 1);
    const std::uint32_t num_slices =
        size == 0 ? 0 : (size + threshold - 1) / threshold;
    cluster_slices_[c].resize(num_slices);

    const std::uint32_t replicas =
        1 + (is_hot[c] ? static_cast<std::uint32_t>(params.dup_copies) : 0);
    for (std::uint32_t s = 0; s < num_slices; ++s) {
      const std::uint32_t begin = s * threshold;
      const std::uint32_t end = std::min(size, begin + threshold);
      for (std::uint32_t r = 0; r < replicas; ++r) {
        // A replica splits the cluster's expected traffic; a slice carries a
        // size-proportional share of scan cost plus one full LUT build.
        const double visit_share = heat(c) / static_cast<double>(replicas);
        const double cost =
            visit_share * (params.lut_cost_points + static_cast<double>(end - begin));
        pending.push_back({c, begin, end, r, s, cost});
      }
    }
  }

  dpu_shards_.resize(num_dpus);
  shards_.reserve(pending.size());
  shard_heat_.reserve(pending.size());

  auto place = [&](const PendingShard& p, std::uint32_t dpu) {
    Shard sh;
    sh.cluster = p.cluster;
    sh.begin = p.begin;
    sh.end = p.end;
    sh.replica = p.replica;
    sh.dpu = dpu;
    sh.id = static_cast<std::uint32_t>(shards_.size());
    cluster_slices_[p.cluster][p.slice].push_back(sh.id);
    dpu_shards_[dpu].push_back(sh.id);
    shards_.push_back(sh);
    shard_heat_.push_back(p.heat);
  };

  // ---- Data Allocation ----
  if (params.heat_allocation) {
    // Greedy: heaviest shard first onto the coolest DPU, never co-locating
    // two replicas of the same slice (that would defeat duplication).
    std::vector<std::size_t> order(pending.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pending[a].heat > pending[b].heat;
    });
    std::vector<double> load(num_dpus, 0.0);
    // (cluster, slice) -> DPUs already holding a replica of that slice.
    std::vector<std::vector<std::vector<std::uint32_t>>> placed(nlist);
    for (std::uint32_t c = 0; c < nlist; ++c) {
      placed[c].resize(cluster_slices_[c].size());
    }
    for (std::size_t idx : order) {
      const PendingShard& p = pending[idx];
      auto& taken = placed[p.cluster][p.slice];
      std::uint32_t best = num_dpus_ > taken.size() ? 0 : taken.front();
      double best_load = 1e300;
      for (std::uint32_t dpu = 0; dpu < num_dpus; ++dpu) {
        const bool conflict =
            num_dpus > taken.size() &&
            std::find(taken.begin(), taken.end(), dpu) != taken.end();
        if (conflict) continue;
        if (load[dpu] < best_load) {
          best_load = load[dpu];
          best = dpu;
        }
      }
      load[best] += p.heat;
      taken.push_back(best);
      place(p, best);
    }
  } else {
    // Paper baseline: place shards in cluster-ID order, filling DPUs evenly
    // by shard count.
    std::size_t next = 0;
    for (const PendingShard& p : pending) {
      place(p, static_cast<std::uint32_t>(next % num_dpus));
      ++next;
    }
  }
}

double DataLayout::duplication_bytes_per_dpu(const PimIndexData& data) const {
  double extra = 0.0;
  for (const Shard& sh : shards_) {
    if (sh.replica == 0) continue;
    extra += static_cast<double>(sh.size()) *
             (static_cast<double>(data.code_size()) + sizeof(std::uint32_t));
  }
  return extra / static_cast<double>(num_dpus_);
}

std::vector<double> DataLayout::dpu_heat() const {
  std::vector<double> heat(num_dpus_, 0.0);
  for (const Shard& sh : shards_) heat[sh.dpu] += shard_heat_[sh.id];
  return heat;
}

}  // namespace drim
