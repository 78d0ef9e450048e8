// Tests for offline data-layout generation: partition coverage, duplication
// replica structure, heat-greedy allocation quality, and the trivial
// baseline used in the Fig. 11 comparisons.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "drim/layout.hpp"

namespace drim {
namespace {

/// Small trained index shared by all layout tests.
class LayoutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 100;
    spec.num_learn = 2000;
    spec.num_components = 48;
    spec.query_skew = 1.1;  // pronounced hot-cluster skew
    data_ = new SyntheticData(make_sift_like(spec));

    IvfPqParams p;
    p.nlist = 48;
    p.pq.m = 16;
    p.pq.cb_entries = 32;
    index_ = new IvfPqIndex();
    index_->train(data_->learn, p);
    index_->add(data_->base);
    pim_data_ = new PimIndexData(*index_);
    heat_ = new std::vector<double>(estimate_heat(*index_, data_->queries, 8));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete pim_data_;
    delete heat_;
  }

  static SyntheticData* data_;
  static IvfPqIndex* index_;
  static PimIndexData* pim_data_;
  static std::vector<double>* heat_;
};

SyntheticData* LayoutTest::data_ = nullptr;
IvfPqIndex* LayoutTest::index_ = nullptr;
PimIndexData* LayoutTest::pim_data_ = nullptr;
std::vector<double>* LayoutTest::heat_ = nullptr;

TEST_F(LayoutTest, HeatCoversAllClusters) {
  ASSERT_EQ(heat_->size(), index_->nlist());
  for (double h : *heat_) EXPECT_GT(h, 0.0);  // Laplace smoothing
  // Skewed queries: max heat well above median.
  std::vector<double> sorted = *heat_;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), 2.0 * sorted[sorted.size() / 2]);
}

TEST_F(LayoutTest, PrimarySlicesPartitionEveryCluster) {
  LayoutParams params;
  params.split_threshold = 64;
  const DataLayout layout(*pim_data_, 16, *heat_, params);

  for (std::uint32_t c = 0; c < pim_data_->nlist(); ++c) {
    const std::size_t size = pim_data_->cluster_size(c);
    const auto& groups = layout.slice_groups(c);
    std::vector<bool> covered(size, false);
    for (const auto& group : groups) {
      ASSERT_FALSE(group.empty());
      // Replica 0 of each slice covers a distinct range.
      const Shard& sh = layout.shard(group.front());
      for (std::uint32_t i = sh.begin; i < sh.end; ++i) {
        EXPECT_FALSE(covered[i]) << "overlap in cluster " << c;
        covered[i] = true;
      }
      EXPECT_LE(sh.size(), params.split_threshold);
    }
    for (std::size_t i = 0; i < size; ++i) EXPECT_TRUE(covered[i]);
  }
}

TEST_F(LayoutTest, ReplicasOfSliceNeverShareDpu) {
  LayoutParams params;
  params.split_threshold = 64;
  params.dup_copies = 2;
  params.dup_fraction = 0.3;
  const DataLayout layout(*pim_data_, 16, *heat_, params);

  for (std::uint32_t c = 0; c < pim_data_->nlist(); ++c) {
    for (const auto& group : layout.slice_groups(c)) {
      std::set<std::uint32_t> dpus;
      for (std::uint32_t sid : group) dpus.insert(layout.shard(sid).dpu);
      EXPECT_EQ(dpus.size(), group.size()) << "replicas co-located";
    }
  }
}

TEST_F(LayoutTest, DuplicationTargetsHottestClusters) {
  LayoutParams params;
  params.dup_copies = 1;
  params.dup_fraction = 0.2;
  const DataLayout layout(*pim_data_, 16, *heat_, params);

  // Hot clusters (top 20% by heat) must have > 1 replica per slice.
  std::vector<std::uint32_t> by_heat(pim_data_->nlist());
  for (std::uint32_t i = 0; i < by_heat.size(); ++i) by_heat[i] = i;
  std::sort(by_heat.begin(), by_heat.end(),
            [&](std::uint32_t a, std::uint32_t b) { return (*heat_)[a] > (*heat_)[b]; });
  const std::size_t num_hot = by_heat.size() / 5;
  for (std::size_t i = 0; i < num_hot; ++i) {
    for (const auto& group : layout.slice_groups(by_heat[i])) {
      EXPECT_EQ(group.size(), 2u) << "hot cluster " << by_heat[i] << " not duplicated";
    }
  }
  // The coldest cluster should not be duplicated.
  for (const auto& group : layout.slice_groups(by_heat.back())) {
    EXPECT_EQ(group.size(), 1u);
  }
}

TEST_F(LayoutTest, CoOwnedClustersCountOnlyTheirShareOfHeat) {
  // X is the one duplication victim by expected load, 1.5x ahead of Y. A
  // shard that owns X together with one other shard expects half of X's
  // visits, so Y takes the duplicate there instead.
  std::vector<std::uint32_t> by_size(pim_data_->nlist());
  for (std::uint32_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(), [&](std::uint32_t a, std::uint32_t b) {
    return pim_data_->cluster_size(a) > pim_data_->cluster_size(b);
  });
  const std::uint32_t x = by_size[0];
  const std::uint32_t y = by_size[1];
  LayoutParams params;
  params.dup_copies = 1;
  params.dup_fraction = 1.5 / static_cast<double>(pim_data_->nlist());  // one victim
  auto points = [&](std::uint32_t c) {
    return params.lut_cost_points + static_cast<double>(pim_data_->cluster_size(c));
  };
  std::vector<double> heat(pim_data_->nlist(), 1.0);
  heat[y] = 10.0;
  heat[x] = 1.5 * heat[y] * points(y) / points(x);

  auto replicas = [](const DataLayout& layout, std::uint32_t c) {
    return layout.slice_groups(c).front().size();
  };
  params.owned_clusters.assign(pim_data_->nlist(), 1);
  const DataLayout sole(*pim_data_, 16, heat, params);
  EXPECT_EQ(replicas(sole, x), 2u);
  EXPECT_EQ(replicas(sole, y), 1u);
  // A mask of ones is "own everything": the unmasked layout, shard for shard.
  params.owned_clusters.clear();
  const DataLayout unmasked(*pim_data_, 16, heat, params);
  ASSERT_EQ(sole.shards().size(), unmasked.shards().size());
  for (std::size_t i = 0; i < sole.shards().size(); ++i) {
    EXPECT_EQ(sole.shard(static_cast<std::uint32_t>(i)).dpu,
              unmasked.shard(static_cast<std::uint32_t>(i)).dpu);
  }

  params.owned_clusters.assign(pim_data_->nlist(), 1);
  params.owned_clusters[x] = 2;
  const DataLayout shared(*pim_data_, 16, heat, params);
  EXPECT_EQ(replicas(shared, x), 1u);
  EXPECT_EQ(replicas(shared, y), 2u);
}

TEST_F(LayoutTest, NoSplitKeepsWholeClusters) {
  LayoutParams params;
  params.enable_split = false;
  params.enable_duplicate = false;
  const DataLayout layout(*pim_data_, 16, *heat_, params);
  for (std::uint32_t c = 0; c < pim_data_->nlist(); ++c) {
    if (pim_data_->cluster_size(c) == 0) continue;
    ASSERT_EQ(layout.slice_groups(c).size(), 1u);
    const Shard& sh = layout.shard(layout.slice_groups(c)[0][0]);
    EXPECT_EQ(sh.size(), pim_data_->cluster_size(c));
  }
}

TEST_F(LayoutTest, HeatAllocationBalancesBetterThanIdOrder) {
  LayoutParams balanced;
  balanced.split_threshold = 64;
  balanced.dup_copies = 0;
  balanced.enable_duplicate = false;
  LayoutParams trivial = balanced;
  trivial.heat_allocation = false;

  const DataLayout a(*pim_data_, 16, *heat_, balanced);
  const DataLayout b(*pim_data_, 16, *heat_, trivial);
  EXPECT_LT(imbalance_factor(a.dpu_heat()), imbalance_factor(b.dpu_heat()));
}

TEST_F(LayoutTest, DuplicationMemoryCostReported) {
  LayoutParams params;
  params.dup_copies = 1;
  params.dup_fraction = 0.2;
  const DataLayout dup(*pim_data_, 16, *heat_, params);
  EXPECT_GT(dup.duplication_bytes_per_dpu(*pim_data_), 0.0);

  LayoutParams no_dup = params;
  no_dup.enable_duplicate = false;
  const DataLayout plain(*pim_data_, 16, *heat_, no_dup);
  EXPECT_DOUBLE_EQ(plain.duplication_bytes_per_dpu(*pim_data_), 0.0);
}

TEST_F(LayoutTest, EveryShardAppearsInItsDpuList) {
  LayoutParams params;
  params.split_threshold = 128;
  const DataLayout layout(*pim_data_, 8, *heat_, params);
  for (const Shard& sh : layout.shards()) {
    const auto& list = layout.dpu_shards(sh.dpu);
    EXPECT_NE(std::find(list.begin(), list.end(), sh.id), list.end());
  }
}

// Property sweep over split thresholds: partition invariants hold for all.
class SplitThresholdTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitThresholdTest, ShardSizesRespectThreshold) {
  SyntheticSpec spec;
  spec.num_base = 3000;
  spec.num_queries = 40;
  spec.num_learn = 1000;
  spec.num_components = 24;
  const SyntheticData data = make_sift_like(spec);
  IvfPqParams p;
  p.nlist = 24;
  p.pq.m = 8;
  p.pq.cb_entries = 16;
  IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);
  const PimIndexData pim_data(index);
  const auto heat = estimate_heat(index, data.queries, 4);

  LayoutParams params;
  params.split_threshold = GetParam();
  const DataLayout layout(pim_data, 8, heat, params);
  std::size_t total_primary = 0;
  for (const Shard& sh : layout.shards()) {
    EXPECT_LE(sh.size(), GetParam());
    if (sh.replica == 0) total_primary += sh.size();
  }
  EXPECT_EQ(total_primary, 3000u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SplitThresholdTest,
                         ::testing::Values(16, 64, 256, 1024, 100000));

}  // namespace
}  // namespace drim
