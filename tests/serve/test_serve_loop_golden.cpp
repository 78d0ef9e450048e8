// Golden pins for the serving loop. Each configuration replays one trace and
// pins its outcome bit for bit: a 64-bit FNV-1a digest over every request
// record (id, shed, degraded, results and the six time fields), the step
// count, the makespan and the write-back counters exactly, and the final
// EWMA batch time to 1e-12 relative. The values were recorded once and must
// not move under a refactor of the event loop; a change that means to move
// them has to say so and re-record them.
//
// Covered: the byte-level sim at pipeline depth 1 (with and without a
// writer, and overloaded with degrade-before-shed), the CPU baseline, a
// routed 2-shard cluster, and the sim at depths 2 and 3 without a writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "backend/cpu_backend.hpp"
#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/mutable_index.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

/// 64-bit FNV-1a over raw object bytes.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t record_digest(const ServeResult& res) {
  Fnv1a h;
  for (const RequestRecord& r : res.records) {
    h.add(r.request.id);
    h.add(r.shed);
    h.add(r.degraded);
    h.add(r.results);
    h.add(r.done_s);
    h.add(r.latency_s);
    h.add(r.queue_wait_s);
    h.add(r.host_cl_s);
    h.add(r.schedule_s);
    h.add(r.pim_s);
    h.add(r.merge_s);
  }
  return h.value();
}

std::uint64_t snapshot_digest(const ServeResult& res) {
  Fnv1a h;
  for (const MetricsSnapshot& s : res.snapshots) {
    h.add(s.t_s);
    h.add(s.queue_depth);
    h.add(s.inflight);
    h.add(s.deferred_tasks);
    h.add(s.ewma_batch_s);
    h.add(s.admitted);
    h.add(s.shed);
    h.add(s.degraded);
    h.add(s.batches);
  }
  return h.value();
}

struct Golden {
  std::uint64_t records = 0;
  std::size_t batches = 0;
  double makespan_s = 0.0;
  double ewma_batch_s = 0.0;
  /// Pinned only where the value is part of the contract (depth >= 2).
  bool pin_snapshots = false;
  std::size_t snapshots = 0;
  std::uint64_t snapshot_records = 0;
};

struct GoldenUpdates {
  std::size_t applied = 0;
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  std::size_t publishes = 0;
  std::size_t relayouts = 0;
  double publish_seconds = 0.0;
  double relayout_seconds = 0.0;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const ServeResult& res, const Golden& g) {
  // On a mismatch the message prints the observed values in source form.
  const std::string observed =
      "observed {" + hex(record_digest(res)) + ", " + std::to_string(res.batches) +
      ", " + hex(res.makespan_s) + ", " + hex(res.ewma_batch_s) + ", snapshots " +
      std::to_string(res.snapshots.size()) + ", " + hex(snapshot_digest(res)) + "}";
  EXPECT_EQ(record_digest(res), g.records) << observed;
  EXPECT_EQ(res.batches, g.batches) << observed;
  EXPECT_EQ(res.makespan_s, g.makespan_s) << observed;
  EXPECT_NEAR(res.ewma_batch_s, g.ewma_batch_s, 1e-12 * std::abs(g.ewma_batch_s))
      << observed;
  if (g.pin_snapshots) {
    EXPECT_EQ(res.snapshots.size(), g.snapshots) << observed;
    EXPECT_EQ(snapshot_digest(res), g.snapshot_records) << observed;
  }
}

void expect_golden(const UpdateStream& u, const GoldenUpdates& g) {
  const std::string observed =
      "observed {" + std::to_string(u.applied) + ", " + std::to_string(u.inserts) +
      ", " + std::to_string(u.deletes) + ", " + std::to_string(u.publishes) + ", " +
      std::to_string(u.relayouts) + ", " + hex(u.publish_seconds) + ", " +
      hex(u.relayout_seconds) + "}";
  EXPECT_EQ(u.applied, g.applied) << observed;
  EXPECT_EQ(u.inserts, g.inserts) << observed;
  EXPECT_EQ(u.deletes, g.deletes) << observed;
  EXPECT_EQ(u.publishes, g.publishes) << observed;
  EXPECT_EQ(u.relayouts, g.relayouts) << observed;
  EXPECT_EQ(u.publish_seconds, g.publish_seconds) << observed;
  EXPECT_EQ(u.relayout_seconds, g.relayout_seconds) << observed;
}

class ServeLoopGoldenTest : public ServeTest {
 protected:
  static DrimEngineOptions sim_options(std::size_t depth) {
    DrimEngineOptions o = default_options();
    o.pipeline_depth = depth;
    return o;
  }
};

/// A bursty, skewed, mixed-(k, nprobe) trace at `load` times the capacity
/// `batch_s` implies for 16-query batches.
std::vector<Request> golden_trace(std::size_t pool, double batch_s, double load,
                                  std::size_t n) {
  WorkloadParams wp;
  wp.offered_qps = load * 16.0 / batch_s;
  wp.num_requests = n;
  wp.arrivals = ArrivalProcess::kOnOff;
  wp.burst_period_s = 40.0 * batch_s;
  wp.query_skew = 1.0;
  wp.k_choices = {5, 10};
  wp.nprobe_choices = {4, 8};
  return generate_workload(pool, wp);
}

ServeParams golden_params(double batch_s) {
  ServeParams sp;
  sp.batcher.max_batch = 16;
  sp.batcher.max_wait_s = 2.0 * batch_s;
  sp.admission.slo_s = 12.0 * batch_s;
  sp.snapshot_period_s = batch_s;
  return sp;
}

TEST_F(ServeLoopGoldenTest, SimDepthOne) {
  DrimAnnEngine engine(*index_, data_->learn, sim_options(1));
  const double batch_s = engine.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 0.5, 384);
  const ServeResult res =
      ServingRuntime(engine, data_->queries, golden_params(batch_s)).run(trace);
  expect_golden(res, {0x51497c73bbdcd482ULL, 30,
                      0x1.36492f14b96edp-4, 0x1.207b5adcc769dp-10});
}

TEST_F(ServeLoopGoldenTest, SimDepthOneWithWriter) {
  DrimAnnEngine engine(*index_, data_->learn, sim_options(1));
  const double batch_s = engine.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 0.5, 384);
  const FloatMatrix pool = data_->base.to_float();
  UpdateWorkloadParams up;
  up.update_rate = 0.15;
  up.insert_fraction = 0.5;
  up.delete_skew = 0.8;
  const UpdateTrace ops = generate_update_trace(trace, pool, index_->ntotal(), up);

  IndexWriter writer(*index_);
  UpdateStream updates;
  updates.trace = &ops;
  updates.writer = &writer;
  updates.publish_every_batches = 2;
  updates.relayout_every_batches = 5;
  ServingRuntime runtime(engine, data_->queries, golden_params(batch_s));
  runtime.set_update_stream(&updates);
  const ServeResult res = runtime.run(trace);
  expect_golden(res, {0xb59057eb76994858ULL, 32,
                      0x1.35a542e20da9ep-4, 0x1.d831717a1918cp-11});
  expect_golden(updates,
                {58, 29, 29, 11, 6, 0x1.359876923be59p-25, 0x1.621aa74b33044p-16});
}

TEST_F(ServeLoopGoldenTest, SimDepthOneOverloadedShedsAndDegrades) {
  DrimEngineOptions o = sim_options(1);
  o.enable_q4 = true;
  DrimAnnEngine engine(*index_, data_->learn, o);
  const double batch_s = engine.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 2.0, 384);
  ServeParams sp = golden_params(batch_s);
  sp.admission.slo_s = 6.0 * batch_s;
  sp.admission.degrade_to_q4 = true;
  const ServeResult res = ServingRuntime(engine, data_->queries, sp).run(trace);
  EXPECT_GT(res.report.shed, 0u);
  EXPECT_GT(res.report.degraded, 0u);
  expect_golden(res, {0x2ad779cd196f41abULL, 13,
                      0x1.8fa75b0e6ee05p-6, 0x1.2556d488b17ffp-9});
}

TEST_F(ServeLoopGoldenTest, CpuBackend) {
  CpuBackend backend(*index_);
  const double batch_s = backend.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 0.5, 384);
  const ServeResult res =
      ServingRuntime(backend, data_->queries, golden_params(batch_s)).run(trace);
  expect_golden(res, {0xd64c64a4d9ee356aULL, 44,
                      0x1.5d2928153059cp-11, 0x1.05733ecc207edp-18});
}

TEST_F(ServeLoopGoldenTest, RoutedTwoShardCluster) {
  cluster::ClusterOptions copts;
  copts.num_shards = 2;
  copts.replication_fraction = 0.25;
  const auto backend = cluster::make_cluster_backend(
      BackendKind::kDrim, *index_, data_->learn, sim_options(1), copts);
  ASSERT_EQ(backend->pipeline_depth(), 1u);
  const double batch_s = backend->estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 0.5, 384);
  const ServeResult res =
      ServingRuntime(*backend, data_->queries, golden_params(batch_s)).run(trace);
  expect_golden(res, {0xaea81ce5d56ca37eULL, 31,
                      0x1.96ff3b3fd6f02p-5, 0x1.81a9d1383bee4p-11});
}

TEST_F(ServeLoopGoldenTest, SimDepthTwo) {
  DrimAnnEngine engine(*index_, data_->learn, sim_options(2));
  const double batch_s = engine.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 1.2, 384);
  const ServeResult res =
      ServingRuntime(engine, data_->queries, golden_params(batch_s)).run(trace);
  expect_golden(res, {0x3b5d8fa78bc3cfaeULL, 18,
                      0x1.dc0e28e8a7df6p-6, 0x1.62be8c1d90259p-10, true, 14,
                      0xa23865588b992d29ULL});
}

TEST_F(ServeLoopGoldenTest, SimDepthThree) {
  DrimAnnEngine engine(*index_, data_->learn, sim_options(3));
  const double batch_s = engine.estimate_batch_seconds(16, 8, 10);
  const auto trace = golden_trace(data_->queries.count(), batch_s, 1.2, 384);
  const ServeResult res =
      ServingRuntime(engine, data_->queries, golden_params(batch_s)).run(trace);
  expect_golden(res, {0xa7a0c31a7e516720ULL, 18,
                      0x1.043cb5ebdd692p-5, 0x1.f653793935bfap-10, true, 13,
                      0x162dbed172c1fa8eULL});
}

}  // namespace
}  // namespace drim::serve
