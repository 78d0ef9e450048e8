// ShardPlan unit tests: constructor validation (errors name the max feasible
// shard count, matching the batch-size-validation style), coverage (every
// cluster owned, every shard non-empty), replication (hot clusters get extra
// owners, never two replicas on one shard, each owner's mask carries the
// owner count), and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "cluster/shard_plan.hpp"

namespace drim::cluster {
namespace {

std::vector<std::size_t> uniform_sizes(std::size_t nlist, std::size_t size) {
  return std::vector<std::size_t>(nlist, size);
}

std::vector<double> smooth_heat(std::vector<double> heat) {
  for (double& h : heat) h += 0.5;  // estimate_heat's Laplace smoothing
  return heat;
}

TEST(ShardPlan, RejectsZeroShards) {
  ShardPlanParams p;
  p.num_shards = 0;
  EXPECT_THROW(ShardPlan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(8, 0.0)), p),
               std::invalid_argument);
}

TEST(ShardPlan, TooManyShardsErrorNamesMaxFeasibleCount) {
  ShardPlanParams p;
  p.num_shards = 9;
  try {
    ShardPlan plan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(8, 0.0)), p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must name the max feasible shard count for this nlist.
    EXPECT_NE(std::string(e.what()).find("maximum feasible shard count"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("8"), std::string::npos) << e.what();
  }
}

TEST(ShardPlan, RejectsBadReplicationFraction) {
  ShardPlanParams p;
  p.num_shards = 2;
  p.replication_fraction = 1.5;
  EXPECT_THROW(ShardPlan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(8, 0.0)), p),
               std::invalid_argument);
  p.replication_fraction = -0.1;
  EXPECT_THROW(ShardPlan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(8, 0.0)), p),
               std::invalid_argument);
}

TEST(ShardPlan, RejectsHeatSizeMismatch) {
  ShardPlanParams p;
  p.num_shards = 2;
  EXPECT_THROW(ShardPlan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(7, 0.0)), p),
               std::invalid_argument);
}

TEST(ShardPlan, EveryClusterOwnedEveryShardNonEmpty) {
  ShardPlanParams p;
  p.num_shards = 4;
  p.replication_fraction = 0.0;
  const std::size_t nlist = 16;
  std::vector<double> heat(nlist, 0.0);
  for (std::size_t c = 0; c < nlist; ++c) heat[c] = static_cast<double>(c);
  ShardPlan plan(uniform_sizes(nlist, 200), smooth_heat(heat), p);

  std::size_t covered = 0;
  for (std::uint32_t c = 0; c < nlist; ++c) {
    ASSERT_EQ(plan.owners(c).size(), 1u) << "cluster " << c;
    ++covered;
  }
  EXPECT_EQ(covered, nlist);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(plan.shard_clusters(s).empty()) << "shard " << s;
    // owned_mask agrees with shard_clusters.
    const auto mask = plan.owned_mask(s);
    std::size_t set = 0;
    for (std::uint32_t c = 0; c < nlist; ++c) {
      if (mask[c]) {
        ++set;
        EXPECT_TRUE(std::binary_search(plan.shard_clusters(s).begin(),
                                       plan.shard_clusters(s).end(), c));
      }
    }
    EXPECT_EQ(set, plan.shard_clusters(s).size());
  }
}

TEST(ShardPlan, HotClustersReplicatedAcrossDistinctShards) {
  ShardPlanParams p;
  p.num_shards = 4;
  p.replication_fraction = 0.25;  // hottest 4 of 16
  p.replica_copies = 2;
  const std::size_t nlist = 16;
  std::vector<double> heat(nlist, 0.0);
  // Clusters 12..15 are the hottest by a wide margin.
  for (std::size_t c = 12; c < nlist; ++c) heat[c] = 100.0 + static_cast<double>(c);
  ShardPlan plan(uniform_sizes(nlist, 200), smooth_heat(heat), p);

  std::size_t replicated = 0;
  for (std::uint32_t c = 0; c < nlist; ++c) {
    const auto& owners = plan.owners(c);
    // Owners are distinct shards (sorted + unique).
    for (std::size_t i = 1; i < owners.size(); ++i) {
      EXPECT_LT(owners[i - 1], owners[i]);
    }
    if (c >= 12) {
      EXPECT_EQ(owners.size(), 3u) << "hot cluster " << c;  // 1 + 2 copies
      EXPECT_TRUE(plan.replicated(c));
      ++replicated;
    } else {
      EXPECT_EQ(owners.size(), 1u) << "cold cluster " << c;
    }
  }
  EXPECT_EQ(replicated, 4u);
}

TEST(ShardPlan, OwnedMaskCarriesOwnerCounts) {
  ShardPlanParams p;
  p.num_shards = 4;
  p.replication_fraction = 0.25;
  p.replica_copies = 2;
  const std::size_t nlist = 16;
  std::vector<double> heat(nlist, 0.0);
  for (std::size_t c = 12; c < nlist; ++c) heat[c] = 100.0 + static_cast<double>(c);
  ShardPlan plan(uniform_sizes(nlist, 200), smooth_heat(heat), p);
  // Each owning shard sees the cluster's owner count, so its layout can
  // expect only its share of the cluster's visits.
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto mask = plan.owned_mask(s);
    for (std::uint32_t c = 0; c < nlist; ++c) {
      const auto& owners = plan.owners(c);
      const bool owns = std::binary_search(owners.begin(), owners.end(), s);
      EXPECT_EQ(mask[c], owns ? owners.size() : 0u) << "shard " << s << " cluster " << c;
    }
  }
}

TEST(ShardPlan, ReplicaCopiesClampedToShardCount) {
  ShardPlanParams p;
  p.num_shards = 2;
  p.replication_fraction = 0.5;
  p.replica_copies = 7;  // clamped to num_shards - 1 = 1
  ShardPlan plan(uniform_sizes(8, 100), smooth_heat(std::vector<double>(8, 1.0)), p);
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_LE(plan.owners(c).size(), 2u) << "cluster " << c;
  }
}

TEST(ShardPlan, DeterministicAcrossRuns) {
  ShardPlanParams p;
  p.num_shards = 3;
  p.replication_fraction = 0.2;
  const std::size_t nlist = 24;
  std::vector<double> heat(nlist);
  for (std::size_t c = 0; c < nlist; ++c) {
    heat[c] = static_cast<double>((c * 37) % 11);
  }
  std::vector<std::size_t> sizes(nlist);
  for (std::size_t c = 0; c < nlist; ++c) sizes[c] = 50 + (c * 101) % 400;

  ShardPlan a(sizes, smooth_heat(heat), p);
  ShardPlan b(sizes, smooth_heat(heat), p);
  for (std::uint32_t c = 0; c < nlist; ++c) {
    EXPECT_EQ(a.owners(c), b.owners(c)) << "cluster " << c;
  }
  EXPECT_EQ(a.planned_load(), b.planned_load());
}

TEST(ShardPlan, BalancesLoadBetterThanWorstCase) {
  // With heavily skewed heat, the greedy allocator should keep the max
  // shard load well below "everything hot on one shard".
  ShardPlanParams p;
  p.num_shards = 4;
  p.replication_fraction = 0.0;
  const std::size_t nlist = 32;
  std::vector<double> heat(nlist, 0.1);
  heat[0] = heat[1] = heat[2] = heat[3] = 50.0;  // four hot clusters
  ShardPlan plan(uniform_sizes(nlist, 100), smooth_heat(heat), p);
  // Each hot cluster should land on its own shard.
  std::vector<std::uint32_t> hot_shards;
  for (std::uint32_t c = 0; c < 4; ++c) hot_shards.push_back(plan.owners(c)[0]);
  std::sort(hot_shards.begin(), hot_shards.end());
  EXPECT_EQ(std::unique(hot_shards.begin(), hot_shards.end()), hot_shards.end());
}

}  // namespace
}  // namespace drim::cluster
