// Update-serving tests (DESIGN.md §14): the generated insert/delete trace,
// the brute-force oracle that mirrors the writer, and the serving runtime's
// interleaving of update application + snapshot publishes with an open-loop
// search trace — deterministic, no serving pause, and the final published
// state bit-identical to a cold offline rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/mutable_index.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using UpdateServingTest = ServeTest;

WorkloadParams trace_params(double qps, std::size_t n) {
  WorkloadParams wp;
  wp.offered_qps = qps;
  wp.num_requests = n;
  wp.k_choices = {10};
  wp.nprobe_choices = {8};
  return wp;
}

ServeParams serve_params(DrimAnnEngine& engine) {
  ServeParams sp;
  sp.batcher.max_batch = 16;
  const double est = engine.estimate_batch_seconds(16, 8, 10);
  sp.batcher.max_wait_s = 4.0 * est;
  sp.admission.enabled = false;  // nothing shed: every request must be served
  return sp;
}

UpdateWorkloadParams update_params(double rate, double insert_fraction = 0.5) {
  UpdateWorkloadParams up;
  up.update_rate = rate;
  up.insert_fraction = insert_fraction;
  up.delete_skew = 0.8;
  return up;
}

TEST_F(UpdateServingTest, GeneratedTraceIsShapedAndDeterministic) {
  const auto searches = generate_workload(data_->queries.count(), trace_params(500.0, 200));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.10));
  EXPECT_EQ(trace.ops.size(), 20u);  // round(0.10 * 200)

  std::size_t inserts = 0;
  double last = 0.0;
  for (const UpdateOp& op : trace.ops) {
    EXPECT_GE(op.arrival_s, last) << "ops must be sorted by arrival";
    EXPECT_LE(op.arrival_s, searches.back().arrival_s);
    last = op.arrival_s;
    if (op.kind == UpdateKind::kInsert) {
      // Insert targets index the payload matrix in issue order.
      EXPECT_EQ(op.target, inserts);
      ++inserts;
    } else {
      EXPECT_LT(op.target, index_->ntotal() + inserts);
    }
  }
  EXPECT_EQ(trace.insert_vectors.count(), inserts);
  EXPECT_GT(inserts, 0u);
  EXPECT_LT(inserts, trace.ops.size());

  // Same seed, same trace — bit for bit.
  const auto again = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.10));
  ASSERT_EQ(again.ops.size(), trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    EXPECT_EQ(again.ops[i].arrival_s, trace.ops[i].arrival_s);
    EXPECT_EQ(again.ops[i].kind, trace.ops[i].kind);
    EXPECT_EQ(again.ops[i].target, trace.ops[i].target);
  }

  EXPECT_THROW(generate_update_trace(searches, pool, index_->ntotal(),
                                     update_params(-0.1)),
               std::invalid_argument);
  EXPECT_THROW(generate_update_trace(searches, FloatMatrix(), index_->ntotal(),
                                     update_params(0.1, 1.0)),
               std::invalid_argument);
}

TEST_F(UpdateServingTest, OracleMirrorsTheWriter) {
  const auto searches = generate_workload(data_->queries.count(), trace_params(500.0, 300));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.2));

  IndexWriter writer(*index_);
  UpdateOracle oracle(pool);
  ASSERT_EQ(oracle.live_count(), writer.live_count());
  for (const UpdateOp& op : trace.ops) {
    const std::uint32_t oracle_id = oracle.apply(op, trace.insert_vectors);
    if (op.kind == UpdateKind::kInsert) {
      const std::uint32_t writer_id =
          writer.insert(trace.insert_vectors.row(op.target));
      EXPECT_EQ(writer_id, oracle_id) << "id assignment diverged";
    } else {
      writer.erase(op.target);
      EXPECT_EQ(writer.alive(op.target), oracle.alive(op.target));
    }
    EXPECT_EQ(writer.live_count(), oracle.live_count());
  }
}

TEST_F(UpdateServingTest, RuntimeAppliesPublishesAndServesEverything) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServingRuntime runtime(engine, data_->queries, serve_params(engine));

  const auto searches = generate_workload(data_->queries.count(), trace_params(400.0, 160));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.15));
  ASSERT_FALSE(trace.ops.empty());

  IndexWriter writer(*index_);
  UpdateStream updates;
  updates.trace = &trace;
  updates.writer = &writer;
  updates.publish_every_batches = 2;
  updates.relayout_every_batches = 6;
  runtime.set_update_stream(&updates);
  const ServeResult res = runtime.run(searches);

  // Every op on the trace was consumed, every search served in full.
  EXPECT_EQ(updates.applied, trace.ops.size());
  EXPECT_EQ(updates.inserts + updates.deletes, updates.applied);
  EXPECT_GT(updates.inserts, 0u);
  EXPECT_GT(updates.deletes, 0u);
  EXPECT_EQ(res.report.served, searches.size());
  EXPECT_EQ(res.report.shed, 0u);
  for (const RequestRecord& r : res.records) EXPECT_EQ(r.results, 10u);

  // Publishes happened between batches and were billed onto the timeline.
  EXPECT_GE(updates.publishes, 1u);
  EXPECT_GT(updates.publish_seconds, 0.0);
  EXPECT_GE(updates.relayouts, 1u);
  EXPECT_EQ(engine.snapshot().version, writer.version());
  EXPECT_GE(writer.version(), updates.publishes);
}

TEST_F(UpdateServingTest, UpdateServingIsDeterministic) {
  const auto searches = generate_workload(data_->queries.count(), trace_params(600.0, 128));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.1));

  auto run_once = [&](ServeResult& out, std::uint64_t& version,
                      UpdateStream& updates) {
    DrimAnnEngine engine(*index_, data_->learn, default_options());
    ServingRuntime runtime(engine, data_->queries, serve_params(engine));
    IndexWriter writer(*index_);
    updates.trace = &trace;
    updates.writer = &writer;
    updates.publish_every_batches = 3;
    runtime.set_update_stream(&updates);
    out = runtime.run(searches);
    version = engine.snapshot().version;
  };

  ServeResult a, b;
  std::uint64_t va = 0, vb = 0;
  UpdateStream ua, ub;
  run_once(a, va, ua);
  run_once(b, vb, ub);

  EXPECT_EQ(va, vb);
  EXPECT_EQ(ua.applied, ub.applied);
  EXPECT_EQ(ua.publishes, ub.publishes);
  EXPECT_EQ(ua.publish_seconds, ub.publish_seconds);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].done_s, b.records[i].done_s);
    EXPECT_EQ(a.records[i].latency_s, b.records[i].latency_s);
  }
}

TEST_F(UpdateServingTest, FinalStateMatchesColdRebuildAndOracle) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServingRuntime runtime(engine, data_->queries, serve_params(engine));

  const auto searches = generate_workload(data_->queries.count(), trace_params(400.0, 160));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.2, 0.6));

  IndexWriter writer(*index_);
  UpdateStream updates;
  updates.trace = &trace;
  updates.writer = &writer;
  updates.publish_every_batches = 2;
  runtime.set_update_stream(&updates);
  runtime.run(searches);
  ASSERT_EQ(updates.applied, trace.ops.size());

  // Fold any post-last-publish stragglers in, then pin the acceptance
  // contract: the served snapshot equals a cold offline build of the same
  // logical state, bit for bit.
  IndexSnapshot snap = writer.publish();
  const IvfPqIndex cold = writer.compacted_index();
  DrimAnnEngine live(snap, data_->learn, default_options());
  DrimAnnEngine rebuilt(cold, data_->learn, default_options());
  const auto live_res = live.search(data_->queries, 10, 8);
  const auto cold_res = rebuilt.search(data_->queries, 10, 8);
  ASSERT_EQ(live_res.size(), cold_res.size());
  for (std::size_t q = 0; q < live_res.size(); ++q) {
    ASSERT_EQ(live_res[q].size(), cold_res[q].size()) << "query " << q;
    for (std::size_t i = 0; i < live_res[q].size(); ++i) {
      EXPECT_EQ(live_res[q][i].id, cold_res[q][i].id) << "query " << q;
      EXPECT_EQ(live_res[q][i].dist, cold_res[q][i].dist) << "query " << q;
    }
  }

  // Quality floor against the brute-force oracle over the live set, at full
  // probe depth (PQ quantization is the only loss).
  UpdateOracle oracle(pool);
  for (const UpdateOp& op : trace.ops) oracle.apply(op, trace.insert_vectors);
  EXPECT_EQ(oracle.live_count(), writer.live_count());
  const auto full = live.search(data_->queries, 10, writer.nlist());
  double recall = 0.0;
  for (std::size_t q = 0; q < data_->queries.count(); ++q) {
    const auto truth = oracle.topk(data_->queries.row(q), 10);
    std::unordered_set<std::uint32_t> truth_ids;
    for (const Neighbor& n : truth) truth_ids.insert(n.id);
    std::size_t hit = 0;
    for (const Neighbor& n : full[q]) hit += truth_ids.count(n.id);
    // Deleted ids must never surface, even at full probe depth.
    for (const Neighbor& n : full[q]) EXPECT_TRUE(oracle.alive(n.id));
    recall += static_cast<double>(hit) / 10.0;
  }
  recall /= static_cast<double>(data_->queries.count());
  EXPECT_GE(recall, 0.5) << "mutated-index recall collapsed vs oracle";
}

TEST_F(UpdateServingTest, EmptyUpdateTraceIsBitIdenticalToNoStream) {
  const auto searches = generate_workload(data_->queries.count(), trace_params(500.0, 96));

  auto run_once = [&](UpdateStream* updates) {
    DrimAnnEngine engine(*index_, data_->learn, default_options());
    ServingRuntime runtime(engine, data_->queries, serve_params(engine));
    if (updates) runtime.set_update_stream(updates);
    return runtime.run(searches);
  };

  const ServeResult plain = run_once(nullptr);
  UpdateTrace empty_trace;  // zero ops: the stream must be a strict no-op
  IndexWriter writer(*index_);
  UpdateStream updates;
  updates.trace = &empty_trace;
  updates.writer = &writer;
  const ServeResult streamed = run_once(&updates);

  EXPECT_EQ(updates.applied, 0u);
  EXPECT_EQ(updates.publishes, 0u);
  EXPECT_EQ(updates.publish_seconds, 0.0);
  EXPECT_EQ(plain.batches, streamed.batches);
  EXPECT_EQ(plain.makespan_s, streamed.makespan_s);
  EXPECT_EQ(plain.engine_stats.total_seconds, streamed.engine_stats.total_seconds);
  ASSERT_EQ(plain.records.size(), streamed.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_EQ(plain.records[i].done_s, streamed.records[i].done_s);
    EXPECT_EQ(plain.records[i].latency_s, streamed.records[i].latency_s);
  }
}

TEST_F(UpdateServingTest, PipelinedRuntimePublishesBetweenSteps) {
  DrimEngineOptions o = default_options();
  o.pipeline_depth = 2;
  DrimAnnEngine engine(*index_, data_->learn, o);
  ServingRuntime runtime(engine, data_->queries, serve_params(engine));

  const auto searches = generate_workload(data_->queries.count(), trace_params(900.0, 160));
  const FloatMatrix pool = data_->base.to_float();
  const auto trace = generate_update_trace(searches, pool, index_->ntotal(),
                                           update_params(0.15));

  IndexWriter writer(*index_);
  UpdateStream updates;
  updates.trace = &trace;
  updates.writer = &writer;
  updates.publish_every_batches = 2;
  runtime.set_update_stream(&updates);
  const ServeResult res = runtime.run(searches);

  EXPECT_EQ(updates.applied, trace.ops.size());
  EXPECT_GE(updates.publishes, 1u);
  EXPECT_EQ(res.report.served, searches.size());
  for (const RequestRecord& r : res.records) {
    EXPECT_EQ(r.results, 10u);
    EXPECT_GE(r.done_s, r.request.arrival_s);
  }
  EXPECT_EQ(engine.snapshot().version, writer.version());
}

TEST_F(UpdateServingTest, RejectsBackendWithoutUpdateSupportAndNullTrace) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServingRuntime runtime(engine, data_->queries, serve_params(engine));
  const auto searches = generate_workload(data_->queries.count(), trace_params(400.0, 16));

  IndexWriter writer(*index_);
  UpdateStream updates;  // trace left null
  updates.writer = &writer;
  runtime.set_update_stream(&updates);
  EXPECT_THROW(runtime.run(searches), std::invalid_argument);
}

}  // namespace
}  // namespace drim::serve
