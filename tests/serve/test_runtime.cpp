// Serving-runtime tests: trace replay completeness, latency decomposition
// consistency, determinism, overload shedding, and input validation.

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/runtime.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using RuntimeTest = ServeTest;

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
  sp.admission.slo_s = 20.0 * est;
  return sp;
}

TEST_F(RuntimeTest, ServesEveryAdmittedRequestWithFullResults) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServeParams sp = serve_params(engine);
  sp.admission.enabled = false;
  ServingRuntime runtime(engine, data_->queries, sp);

  const auto trace =
      generate_workload(data_->queries.count(), trace_params(400.0, 128));
  const ServeResult res = runtime.run(trace);

  EXPECT_EQ(res.report.offered, 128u);
  EXPECT_EQ(res.report.served, 128u);
  EXPECT_EQ(res.report.shed, 0u);
  EXPECT_GT(res.batches, 0u);
  EXPECT_EQ(res.engine_stats.queries, 128u);
  EXPECT_EQ(res.engine_stats.batches, res.batches);

  double last_done = 0.0;
  for (const RequestRecord& r : res.records) {
    ASSERT_FALSE(r.shed);
    EXPECT_EQ(r.results, 10u);
    EXPECT_GE(r.done_s, r.request.arrival_s);
    EXPECT_NEAR(r.latency_s, r.done_s - r.request.arrival_s, 1e-12);
    EXPECT_GE(r.queue_wait_s, 0.0);
    // The wait is bounded by the deadline trigger plus the step that was
    // already running when the request arrived.
    EXPECT_GE(r.latency_s, r.queue_wait_s);
    EXPECT_GT(r.pim_s, 0.0);
    EXPECT_GE(r.schedule_s, 0.0);
    EXPECT_GE(r.merge_s, 0.0);
    last_done = std::max(last_done, r.done_s);
  }
  EXPECT_DOUBLE_EQ(res.makespan_s, last_done);
  EXPECT_GT(res.report.p99_ms, 0.0);
  EXPECT_GE(res.report.p99_ms, res.report.p50_ms);
}

TEST_F(RuntimeTest, DeterministicAcrossRuns) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  const ServeParams sp = serve_params(engine);
  const auto trace =
      generate_workload(data_->queries.count(), trace_params(600.0, 96));

  const ServeResult a = ServingRuntime(engine, data_->queries, sp).run(trace);
  const ServeResult b = ServingRuntime(engine, data_->queries, sp).run(trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].shed, b.records[i].shed);
    EXPECT_EQ(a.records[i].latency_s, b.records[i].latency_s);
    EXPECT_EQ(a.records[i].done_s, b.records[i].done_s);
  }
  EXPECT_EQ(a.report.p99_ms, b.report.p99_ms);
  EXPECT_EQ(a.batches, b.batches);
}

TEST_F(RuntimeTest, OverloadShedsAndBoundsTailLatency) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServeParams sp = serve_params(engine);
  // A tight SLO the 256-request burst can actually overrun: a few batches of
  // queue already blows the budget, so the controller must shed.
  sp.admission.slo_s = 5.0 * engine.estimate_batch_seconds(16, 8, 10);
  // Far past capacity: everything arrives in a burst the engine cannot keep
  // up with.
  const auto trace =
      generate_workload(data_->queries.count(), trace_params(50'000.0, 256));

  ServeParams off = sp;
  off.admission.enabled = false;
  const ServeResult no_ac = ServingRuntime(engine, data_->queries, off).run(trace);
  const ServeResult ac = ServingRuntime(engine, data_->queries, sp).run(trace);

  EXPECT_EQ(no_ac.report.shed, 0u);
  EXPECT_EQ(no_ac.report.served + no_ac.report.shed, no_ac.report.offered);
  EXPECT_EQ(ac.report.served + ac.report.shed, ac.report.offered);
  EXPECT_GT(ac.report.shed, 0u) << "overload must trigger load shedding";
  EXPECT_LT(ac.report.p99_ms, no_ac.report.p99_ms)
      << "shedding must shorten the tail";
  EXPECT_GE(ac.report.goodput_qps, no_ac.report.goodput_qps)
      << "shedding must not reduce goodput";
}

TEST_F(RuntimeTest, EmptyTraceYieldsEmptyReport) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServingRuntime runtime(engine, data_->queries, serve_params(engine));
  const ServeResult res = runtime.run({});
  EXPECT_EQ(res.report.offered, 0u);
  EXPECT_EQ(res.batches, 0u);
  EXPECT_EQ(res.makespan_s, 0.0);
}

TEST_F(RuntimeTest, RejectsMalformedTracesAndParams) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  ServeParams sp = serve_params(engine);
  ServingRuntime runtime(engine, data_->queries, sp);

  std::vector<Request> unsorted(2);
  unsorted[0].id = 0;
  unsorted[0].arrival_s = 1.0;
  unsorted[1].id = 1;
  unsorted[1].arrival_s = 0.5;
  EXPECT_THROW(runtime.run(unsorted), std::invalid_argument);

  std::vector<Request> bad_id(1);
  bad_id[0].id = 5;
  EXPECT_THROW(runtime.run(bad_id), std::invalid_argument);

  std::vector<Request> bad_query(1);
  bad_query[0].id = 0;
  bad_query[0].query = static_cast<std::uint32_t>(data_->queries.count());
  EXPECT_THROW(runtime.run(bad_query), std::invalid_argument);

  ServeParams zero_batch = sp;
  zero_batch.batcher.max_batch = 0;
  EXPECT_THROW(ServingRuntime(engine, data_->queries, zero_batch),
               std::invalid_argument);
}

TEST_F(RuntimeTest, SummarizeCountsSloViolations) {
  std::vector<RequestRecord> records(3);
  records[0].request.arrival_s = 0.0;
  records[0].latency_s = 5e-3;
  records[0].done_s = 5e-3;
  records[1].request.arrival_s = 1e-3;
  records[1].latency_s = 20e-3;
  records[1].done_s = 21e-3;
  records[2].request.arrival_s = 2e-3;
  records[2].shed = true;
  const ServeReport rep = summarize(records, 10e-3);
  EXPECT_EQ(rep.offered, 3u);
  EXPECT_EQ(rep.served, 2u);
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.slo_violations, 1u);
  EXPECT_NEAR(rep.timeout_rate, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.shed_rate, 1.0 / 3.0, 1e-12);
  EXPECT_GT(rep.goodput_qps, 0.0);
  EXPECT_GT(rep.throughput_qps, rep.goodput_qps);
}

}  // namespace
}  // namespace drim::serve
