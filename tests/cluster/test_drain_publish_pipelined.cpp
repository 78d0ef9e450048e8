// Combined-scenario test: IndexWriter publishes landing on a cluster whose
// shard engines run pipelined (pipeline_depth >= 2) while one shard is
// drained. The three mechanisms compose without weakening each other's
// contracts: every search is served in full (no query dropped), every update
// op is consumed, publishes install between batches, and the final published
// state answers bit-identically to a cold offline rebuild of the same
// logical index — through the drained cluster's fallback path included.

#include <gtest/gtest.h>

#include <memory>

#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"

namespace drim::cluster {
namespace {

class DrainPublishPipelinedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 48;
    spec.num_learn = 2500;
    spec.num_components = 48;
    data_ = new SyntheticData(make_sift_like(spec));

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
    delete index_;
  }

  /// Shard engines pipelined: the cluster event loop stays serial (its
  /// pipeline_depth() is 1 for >1 shards), but each shard's engine runs
  /// double-buffered steps internally, which is what the publish must
  /// quiesce through stage_snapshot's flush_all().
  static DrimEngineOptions options() {
    DrimEngineOptions o;
    o.pim.num_dpus = 8;  // per shard
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 16;
    o.pipeline_depth = 2;
    o.platform = PimPlatformKind::kSim;
    return o;
  }

  static std::unique_ptr<ClusterBackend> make_two_shards() {
    ClusterOptions copts;
    copts.num_shards = 2;
    copts.replication_fraction = 0.25;
    auto backend = make_cluster_backend(BackendKind::kDrim, *index_,
                                        data_->learn, options(), copts);
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
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(DrainPublishPipelinedTest, PublishUnderDrainServesEverythingAndMatchesColdRebuild) {
  ASSERT_GE(options().pipeline_depth, 2u);
  const auto cluster = make_two_shards();
  ASSERT_TRUE(cluster->supports_updates());
  cluster->set_shard_drained(1, true);

  serve::ServeParams sp;
  sp.admission.enabled = false;  // nothing shed: every request must complete
  sp.batcher.max_batch = 16;
  serve::ServingRuntime runtime(*cluster, data_->queries, sp);

  serve::WorkloadParams wp;
  wp.num_requests = 128;
  wp.offered_qps = 2000.0;
  wp.k_choices = {10};
  wp.nprobe_choices = {8};
  const auto searches = serve::generate_workload(data_->queries.count(), wp);

  const FloatMatrix pool = data_->base.to_float();
  serve::UpdateWorkloadParams up;
  up.update_rate = 0.15;
  up.insert_fraction = 0.5;
  up.delete_skew = 0.8;
  const auto trace =
      serve::generate_update_trace(searches, pool, index_->ntotal(), up);
  ASSERT_FALSE(trace.ops.empty());

  IndexWriter writer(*index_);
  serve::UpdateStream updates;
  updates.trace = &trace;
  updates.writer = &writer;
  updates.publish_every_batches = 2;
  runtime.set_update_stream(&updates);
  const serve::ServeResult res = runtime.run(searches);

  // No query dropped: everything offered was served with a full result list,
  // drained shard and mid-stream publishes notwithstanding.
  EXPECT_EQ(res.report.offered, searches.size());
  EXPECT_EQ(res.report.served, searches.size());
  EXPECT_EQ(res.report.shed, 0u);
  for (const serve::RequestRecord& r : res.records) {
    EXPECT_FALSE(r.shed);
    EXPECT_EQ(r.results, 10u);
  }

  // Every op consumed; publishes actually landed on the drained cluster and
  // were billed onto the timeline.
  EXPECT_EQ(updates.applied, trace.ops.size());
  EXPECT_GE(updates.publishes, 1u);
  EXPECT_GT(updates.publish_seconds, 0.0);
  EXPECT_EQ(cluster->snapshot_version(), writer.version());

  // The drain stayed in effect through every publish: shard 1 reports
  // draining and its exclusive clusters went through the fallback, while
  // shard 0 kept dispatching.
  const std::vector<ShardHealth> health = cluster->shard_health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_FALSE(health[0].draining);
  EXPECT_TRUE(health[1].draining);
  EXPECT_GT(health[0].dispatched_queries, 0u);
  EXPECT_EQ(health[1].dispatched_queries, 0u);

  // Fold post-last-publish stragglers in, then pin the acceptance contract:
  // the drained, pipelined, repeatedly-published cluster answers exactly as
  // a cold offline rebuild of the same logical state.
  PublishDelta delta;
  const IndexSnapshot snap = writer.publish(&delta);
  cluster->stage_snapshot(snap, delta);
  EXPECT_EQ(cluster->snapshot_version(), writer.version());
  const IvfPqIndex cold = writer.compacted_index();
  DrimBackend rebuilt(cold, data_->learn, options());
  expect_identical(cluster->search(data_->queries, 10, 8),
                   rebuilt.search(data_->queries, 10, 8));
}

}  // namespace
}  // namespace drim::cluster
