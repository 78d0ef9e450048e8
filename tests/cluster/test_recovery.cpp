// Cluster-tier failure recovery and snapshot propagation tests: a drained
// shard's exclusive clusters are re-replicated onto live survivors (closing
// the host-exact fallback path — its counters return to zero), nothing in
// flight is dropped across the rebuild, and a writer-published snapshot
// staged on the router reaches every shard with answers identical to an
// unsharded backend on the same version.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace drim::cluster {
namespace {

class ClusterRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 48;
    spec.num_learn = 2500;
    spec.num_components = 48;
    data_ = new SyntheticData(make_sift_like(spec));
    base_float_ = new FloatMatrix(data_->base.to_float());

    IvfPqParams p;
    p.nlist = 48;
    p.pq.m = 16;
    p.pq.cb_entries = 32;
    index_ = new IvfPqIndex();
    index_->train(data_->learn, p);
    index_->add(data_->base);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete base_float_;
    delete index_;
  }

  static DrimEngineOptions options() {
    DrimEngineOptions o;
    o.pim.num_dpus = 8;  // per shard
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 16;
    o.platform = PimPlatformKind::kSim;
    return o;
  }

  static std::unique_ptr<ClusterBackend> make_shards(std::size_t n,
                                                     double replication = 0.25) {
    ClusterOptions copts;
    copts.num_shards = n;
    copts.replication_fraction = replication;
    auto backend = make_cluster_backend(BackendKind::kDrim, *index_, data_->learn,
                                        options(), copts);
    auto* cb = dynamic_cast<ClusterBackend*>(backend.release());
    return std::unique_ptr<ClusterBackend>(cb);
  }

  static void expect_identical(const std::vector<std::vector<Neighbor>>& a,
                               const std::vector<std::vector<Neighbor>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
      for (std::size_t i = 0; i < a[q].size(); ++i) {
        EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
        EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q << " rank " << i;
      }
    }
  }

  static inline SyntheticData* data_ = nullptr;
  static inline FloatMatrix* base_float_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(ClusterRecoveryTest, RecoveryRehomesClustersAndClosesTheFallbackPath) {
  DrimBackend plain(*index_, data_->learn, options());
  const auto baseline = plain.search(data_->queries, 10, 8);

  const auto cluster = make_shards(2);
  cluster->set_shard_drained(1, true);

  // Degraded: shard 1's exclusive clusters go through the host-exact
  // fallback (answers still correct).
  expect_identical(cluster->search(data_->queries, 10, 8), baseline);
  auto health = cluster->shard_health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_GT(health[1].fallback_tasks, 0u);

  // Recover: every orphaned cluster is re-homed onto the survivor, the
  // survivor is rebuilt with the wider mask, and the fallback counters are
  // zeroed — the degraded path is closed.
  const auto report = cluster->recover_shard(1);
  EXPECT_GT(report.clusters_rehomed, 0u);
  EXPECT_EQ(report.rebuilt_shards, 1u);
  EXPECT_GT(report.moved_bytes, 0u);
  EXPECT_GT(report.seconds, 0.0);
  health = cluster->shard_health();
  EXPECT_EQ(health[0].fallback_tasks, 0u);
  EXPECT_EQ(health[1].fallback_tasks, 0u);

  // Post-recovery: answers unchanged and NO new fallbacks — everything has
  // a live owner again even though shard 1 stays drained.
  expect_identical(cluster->search(data_->queries, 10, 8), baseline);
  health = cluster->shard_health();
  EXPECT_EQ(health[0].fallback_tasks, 0u);
  EXPECT_EQ(health[1].fallback_tasks, 0u);
  EXPECT_GT(health[0].dispatched_queries, 0u);
  EXPECT_TRUE(health[1].draining);
}

TEST_F(ClusterRecoveryTest, RecoveryMidStreamDropsNothing) {
  DrimBackend plain(*index_, data_->learn, options());
  const auto baseline = plain.search(data_->queries, 10, 8);

  const auto cluster = make_shards(3);
  cluster->reset_stream();
  std::vector<std::uint32_t> handles;
  for (std::size_t q = 0; q < data_->queries.count(); ++q) {
    handles.push_back(cluster->enqueue(data_->queries.row(q), 10, 8));
  }
  // Half the stream runs, then shard 2 fails (drain) and is recovered while
  // the rest is still queued; the recovery flushes in-flight work and
  // stashes finished partials before the survivor rebuild.
  cluster->step(handles.size() / 2, /*flush=*/false);
  cluster->set_shard_drained(2, true);
  const auto report = cluster->recover_shard(2);
  EXPECT_GE(report.clusters_rehomed, 1u);
  while (!std::all_of(handles.begin(), handles.end(),
                      [&](std::uint32_t h) { return cluster->finished(h); })) {
    cluster->step(0, /*flush=*/true);
  }

  std::vector<std::vector<Neighbor>> results;
  for (std::uint32_t h : handles) results.push_back(cluster->take_results(h));
  expect_identical(results, baseline);
  for (const ShardHealth& h : cluster->shard_health()) {
    EXPECT_EQ(h.fallback_tasks, 0u);
  }
}

TEST_F(ClusterRecoveryTest, RecoveryMasksCountOnlyLiveOwners) {
  DrimBackend plain(*index_, data_->learn, options());
  const auto baseline = plain.search(data_->queries, 10, 8);

  const auto cluster = make_shards(3);
  // Record the owned-cluster mask every rebuilt survivor is built with.
  // recover_shard builds the survivors concurrently, so the log is locked.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> built;
  std::mutex built_mutex;
  cluster->set_shard_factory([&](std::uint32_t s, const IndexSnapshot& snap,
                                 const std::vector<std::uint8_t>& mask) {
    {
      const std::lock_guard<std::mutex> lock(built_mutex);
      built.emplace_back(s, mask);
    }
    DrimEngineOptions o = options();
    o.layout.owned_clusters = mask;
    return std::make_unique<DrimBackend>(snap, data_->learn, o);
  });
  cluster->set_shard_drained(1, true);
  const auto report = cluster->recover_shard(1);
  ASSERT_GE(report.clusters_rehomed, 1u);
  ASSERT_EQ(built.size(), report.rebuilt_shards);

  // The drained shard stays in the plan's owner lists but serves no visit,
  // so a survivor's layout expects heat / live owners: a re-homed cluster's
  // only live owner expects all of its heat.
  const ShardPlan& plan = cluster->plan();
  std::size_t rehomed_seen = 0;
  for (const auto& [s, mask] : built) {
    for (std::uint32_t c = 0; c < plan.nlist(); ++c) {
      const auto& owners = plan.owners(c);
      if (!std::binary_search(owners.begin(), owners.end(), s)) {
        EXPECT_EQ(mask[c], 0u) << "shard " << s << " cluster " << c;
        continue;
      }
      const auto live = static_cast<std::size_t>(
          std::count_if(owners.begin(), owners.end(), [](std::uint32_t o) { return o != 1; }));
      EXPECT_EQ(mask[c], live) << "shard " << s << " cluster " << c;
      if (live == 1 && owners.size() > 1) ++rehomed_seen;
    }
  }
  EXPECT_GE(rehomed_seen, report.clusters_rehomed);
  expect_identical(cluster->search(data_->queries, 10, 8), baseline);
}

TEST_F(ClusterRecoveryTest, RecoveryValidatesItsPreconditions) {
  const auto single = make_shards(1);
  EXPECT_THROW(single->recover_shard(0), std::logic_error);

  const auto cluster = make_shards(2);
  EXPECT_THROW(cluster->recover_shard(5), std::invalid_argument);
  EXPECT_THROW(cluster->recover_shard(1), std::logic_error)
      << "recovery requires the shard to be drained first";
  cluster->set_shard_drained(0, true);
  cluster->set_shard_drained(1, true);
  EXPECT_THROW(cluster->recover_shard(1), std::logic_error)
      << "no live survivor to recover onto";
}

TEST_F(ClusterRecoveryTest, StagedSnapshotReachesEveryShard) {
  const auto cluster = make_shards(2);
  ASSERT_TRUE(cluster->supports_updates());
  EXPECT_EQ(cluster->snapshot_version(), 0u);

  // Mutate: tombstone current top hits (so surfacing would be caught) and
  // insert duplicates of a few query payloads.
  const auto before = cluster->search(data_->queries, 10, 8);
  IndexWriter writer(*index_);
  std::unordered_set<std::uint32_t> erased;
  for (std::size_t q = 0; q < 8; ++q) erased.insert(before[q][0].id);
  for (const std::uint32_t id : erased) ASSERT_TRUE(writer.erase(id));
  std::vector<std::uint32_t> inserted;
  for (std::size_t q = 0; q < 4; ++q) {
    inserted.push_back(writer.insert(data_->queries.row(q)));
  }

  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  const double cost = cluster->stage_snapshot(snap, delta);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(cluster->snapshot_version(), 1u);

  // The routed cluster on the new version answers exactly like an unsharded
  // backend on the same snapshot; tombstones never surface.
  DrimBackend plain(snap, data_->learn, options());
  const auto routed = cluster->search(data_->queries, 10, 8);
  expect_identical(routed, plain.search(data_->queries, 10, 8));
  for (const auto& per_query : routed) {
    for (const Neighbor& n : per_query) EXPECT_EQ(erased.count(n.id), 0u);
  }
  const auto full = cluster->search(data_->queries, 10, index_->params().nlist);
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_TRUE(std::any_of(full[q].begin(), full[q].end(), [&](const Neighbor& n) {
      return n.id == inserted[q];
    })) << "inserted duplicate of query " << q << " not visible after staging";
  }
}

TEST_F(ClusterRecoveryTest, StagedSplitExtendsThePlanAndKeepsAnswers) {
  const auto cluster = make_shards(2);

  WriterParams wp;
  wp.split_threshold = 200;  // base lists average 125; appends trip it
  IndexWriter writer(*index_, wp);
  for (std::size_t i = 0; i < 1200 && writer.nlist() == index_->params().nlist;
       ++i) {
    writer.insert(base_float_->row(i % base_float_->count()));
  }
  ASSERT_GT(writer.nlist(), index_->params().nlist) << "no split triggered";

  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  ASSERT_FALSE(delta.splits.empty());
  cluster->stage_snapshot(snap, delta);

  // The plan grew to cover the split children and the routed answers match
  // an unsharded backend on the same snapshot — including probes into the
  // new clusters (full probe depth).
  DrimBackend plain(snap, data_->learn, options());
  expect_identical(cluster->search(data_->queries, 10, 8),
                   plain.search(data_->queries, 10, 8));
  expect_identical(cluster->search(data_->queries, 10, writer.nlist()),
                   plain.search(data_->queries, 10, writer.nlist()));
}

TEST_F(ClusterRecoveryTest, RecoveryAfterStagingServesTheLatestVersion) {
  const auto cluster = make_shards(2, /*replication=*/0.1);

  IndexWriter writer(*index_);
  for (std::uint32_t id = 0; id < 200; id += 7) writer.erase(id);
  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  cluster->stage_snapshot(snap, delta);

  // Fail shard 0 after the publish: the survivors must be rebuilt from the
  // CURRENT snapshot, not the construction-time index, so the tombstones
  // stay in force on the re-homed clusters.
  cluster->set_shard_drained(0, true);
  const auto report = cluster->recover_shard(0);
  EXPECT_GT(report.clusters_rehomed, 0u);

  DrimBackend plain(snap, data_->learn, options());
  const auto results = cluster->search(data_->queries, 10, 8);
  expect_identical(results, plain.search(data_->queries, 10, 8));
  for (const auto& per_query : results) {
    for (const Neighbor& n : per_query) EXPECT_TRUE(writer.alive(n.id));
  }
  for (const ShardHealth& h : cluster->shard_health()) {
    EXPECT_EQ(h.fallback_tasks, 0u);
  }
}

}  // namespace
}  // namespace drim::cluster
