#pragma once
// Offline data-layout generation (Section IV-C). Three mechanisms, each tied
// to one of the paper's load-imbalance observations:
//   - Data Partition (Obs. 1, uneven cluster sizes): clusters larger than a
//     threshold are split into shards placed on different DPUs.
//   - Data Duplication (Obs. 2, many queries hitting one cluster per batch):
//     hot clusters are replicated so concurrent queries fan out.
//   - Data Allocation (Obs. 3, hot clusters colliding on one DPU): shards are
//     assigned greedily to the DPU with the lowest accumulated "heat", where
//     heat is estimated from a sample query set.
// The generator also provides the paper's baseline ("clusters allocated to
// DPUs in ID order, no split, no duplication") for the Fig. 11 comparisons.

#include <cstdint>
#include <vector>

#include "drim/pim_index.hpp"

namespace drim {

/// One placed unit: a contiguous range of one original cluster's points, one
/// replica of it.
struct Shard {
  std::uint32_t cluster = 0;   ///< original cluster id
  std::uint32_t begin = 0;     ///< first point index within the cluster
  std::uint32_t end = 0;       ///< one past the last point
  std::uint32_t replica = 0;   ///< replica number (0 = primary)
  std::uint32_t dpu = 0;       ///< owning DPU
  std::uint32_t id = 0;        ///< global shard id (dense)

  std::uint32_t size() const { return end - begin; }
};

/// Layout policy knobs.
struct LayoutParams {
  bool enable_split = true;
  bool enable_duplicate = true;
  bool heat_allocation = true;   ///< false = ID-order round-robin placement
  std::size_t split_threshold = 512;  ///< max points per shard (Fig. 12a knob)
  std::size_t dup_copies = 1;    ///< extra replicas for hot clusters (Fig. 12b)
  double dup_fraction = 0.10;    ///< fraction of hottest clusters duplicated
  /// Relative cost of building one LUT vs scanning one point, used when
  /// balancing heat (a shard costs lut_cost + size per expected visit).
  double lut_cost_points = 64.0;
  /// Cluster-ownership mask for multi-shard serving (src/cluster): when
  /// non-empty (size must equal nlist), only clusters with a nonzero entry
  /// are enumerated and placed; the rest get empty slice_groups. An entry
  /// is the number of shards owning the cluster: the router splits its
  /// visits among them, so this array expects 1/owners of its heat. An
  /// empty mask means "own everything" and reproduces the single-node
  /// layout bit-for-bit.
  std::vector<std::uint8_t> owned_clusters;
};

/// Per-cluster access-frequency estimate from a sample query set
/// ("The accessing frequency of each cluster is estimated by a sample query
/// set", Section IV-A).
std::vector<double> estimate_heat(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                                  std::size_t nprobe);

/// The generated layout.
class DataLayout {
 public:
  /// Generate a layout for `num_dpus` DPUs.
  DataLayout(const PimIndexData& data, std::size_t num_dpus,
             const std::vector<double>& cluster_heat, const LayoutParams& params);

  std::size_t num_dpus() const { return num_dpus_; }
  const LayoutParams& params() const { return params_; }

  const std::vector<Shard>& shards() const { return shards_; }
  /// Shard ids hosted by one DPU.
  const std::vector<std::uint32_t>& dpu_shards(std::size_t dpu) const {
    return dpu_shards_[dpu];
  }
  /// All replicas covering one (cluster, slice): grouped by slice so a task
  /// for cluster c = one shard chosen per slice group.
  /// slice_groups(c)[s] lists the shard ids of replicas of slice s.
  const std::vector<std::vector<std::uint32_t>>& slice_groups(std::uint32_t cluster) const {
    return cluster_slices_[cluster];
  }

  const Shard& shard(std::uint32_t id) const { return shards_[id]; }

  /// Total extra MRAM bytes per DPU introduced by duplication (Fig. 12b
  /// reports the memory cost of replication).
  double duplication_bytes_per_dpu(const PimIndexData& data) const;

  /// Sum of shard heats per DPU (what the greedy allocator balanced).
  std::vector<double> dpu_heat() const;

 private:
  std::size_t num_dpus_;
  LayoutParams params_;
  std::vector<Shard> shards_;
  std::vector<std::vector<std::uint32_t>> dpu_shards_;
  // cluster -> slice -> replica shard ids
  std::vector<std::vector<std::vector<std::uint32_t>>> cluster_slices_;
  std::vector<double> shard_heat_;
};

}  // namespace drim
