// Work-conserving launch rule of the serving loop (DESIGN.md §9): a step
// launches whenever no step is in flight and the batcher holds a request,
// beside the size and deadline triggers. So on a trace sparser than the step
// time no request waits at all, and a request that arrives while a step is
// in flight launches at the earlier of its deadline (which needs a free slot,
// so depth >= 2) and that step's completion.
//
// The extra, smaller steps bring more periodic relayouts, so a relayout
// rebuilds only the layout, scheduler and MRAM image: the quantized index it
// serves from is left as it was, and its answers and modeled times equal
// those of a full rebuild from the snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/drim_backend.hpp"
#include "core/mutable_index.hpp"
#include "serve/runtime.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using WorkConservingTest = ServeTest;

/// Forwards the streaming protocol to another backend but reports its own
/// pipeline depth, so the serving loop keeps that many steps in flight over
/// a backend that has no depth knob (the CPU baseline).
class DepthOverride final : public AnnBackend {
 public:
  DepthOverride(AnnBackend& inner, std::size_t depth) : inner_(inner), depth_(depth) {}

  std::string name() const override { return inner_.name(); }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe) override {
    return inner_.search(queries, k, nprobe);
  }
  void reset_stream() override { inner_.reset_stream(); }
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override {
    return inner_.enqueue(query, k, nprobe);
  }
  BackendStepStats step(std::size_t max_queries, bool flush) override {
    return inner_.step(max_queries, flush);
  }
  std::size_t pipeline_depth() const override { return depth_; }
  void set_step_start(double submit_seconds) override {
    inner_.set_step_start(submit_seconds);
  }
  bool has_deferred() const override { return inner_.has_deferred(); }
  std::size_t deferred_count() const override { return inner_.deferred_count(); }
  bool finished(std::uint32_t handle) const override { return inner_.finished(handle); }
  std::vector<Neighbor> take_results(std::uint32_t handle) override {
    return inner_.take_results(handle);
  }
  std::size_t stream_depth() const override { return inner_.stream_depth(); }
  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override {
    return inner_.estimate_batch_seconds(num_queries, nprobe, k);
  }
  BackendStats stats() const override { return inner_.stats(); }

 private:
  AnnBackend& inner_;
  std::size_t depth_;
};

Request make_request(std::size_t i, double arrival_s, std::size_t pool) {
  Request r;
  r.id = i;
  r.arrival_s = arrival_s;
  r.query = static_cast<std::uint32_t>(i % pool);
  r.k = 10;
  r.nprobe = 8;
  return r;
}

ServeParams params_with_wait(double max_wait_s) {
  ServeParams sp;
  sp.batcher.max_batch = 16;
  sp.batcher.max_wait_s = max_wait_s;
  sp.admission.enabled = false;
  return sp;
}

/// Requests spaced 20 batch times apart, each far past the previous step's
/// completion: every one finds the pipe empty and launches on arrival.
void expect_no_wait_on_sparse_trace(AnnBackend& backend, const FloatMatrix& pool) {
  const double batch_s = backend.estimate_batch_seconds(16, 8, 10);
  constexpr std::size_t kRequests = 24;
  std::vector<Request> trace;
  for (std::size_t i = 0; i < kRequests; ++i) {
    trace.push_back(make_request(i, static_cast<double>(i) * 20.0 * batch_s, pool.count()));
  }
  // A deadline of several batch times: the old rule made each request wait
  // all of it.
  const ServeResult res =
      ServingRuntime(backend, pool, params_with_wait(4.0 * batch_s)).run(trace);
  EXPECT_EQ(res.report.served, kRequests);
  EXPECT_EQ(res.batches, kRequests);
  for (const RequestRecord& rec : res.records) {
    EXPECT_EQ(rec.queue_wait_s, 0.0) << "request " << rec.request.id;
    EXPECT_GT(rec.latency_s, 0.0) << "request " << rec.request.id;
  }
}

TEST_F(WorkConservingTest, SparseTraceNeverWaitsOnTheSim) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    DrimEngineOptions o = default_options();
    o.pipeline_depth = depth;
    DrimAnnEngine engine(*index_, data_->learn, o);
    DrimBackend backend(engine);
    ASSERT_EQ(backend.pipeline_depth(), depth);
    expect_no_wait_on_sparse_trace(backend, data_->queries);
  }
}

TEST_F(WorkConservingTest, SparseTraceNeverWaitsOnTheCpuBackend) {
  CpuBackend cpu(*index_);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    DepthOverride backend(cpu, depth);
    expect_no_wait_on_sparse_trace(backend, data_->queries);
  }
}

/// Request 0 arrives at t = 0 and launches alone; request 1 arrives a
/// quarter into that step. With a long deadline it launches at the step's
/// completion (the pipe empties); with a deadline that falls inside the step
/// it launches at the deadline when a slot is free (depth >= 2), and at the
/// completion when the pipe has one slot. A third request arrives long after
/// both: once the trace is exhausted the loop launches whatever is queued,
/// which would hide the triggers under test.
void expect_launch_at_earlier_of_deadline_and_completion(AnnBackend& backend,
                                                         const FloatMatrix& pool) {
  const std::size_t depth = backend.pipeline_depth();
  auto run = [&](double max_wait_s, double second_arrival_s) {
    const std::vector<Request> trace = {make_request(0, 0.0, pool.count()),
                                        make_request(1, second_arrival_s, pool.count()),
                                        make_request(2, 10.0, pool.count())};
    return ServingRuntime(backend, pool, params_with_wait(max_wait_s)).run(trace);
  };

  // Request 0's step does not depend on the deadline: it launches at t = 0.
  const double first_done = run(1.0, 1.0).records[0].done_s;
  ASSERT_GT(first_done, 0.0);
  const double arrival = 0.25 * first_done;

  {
    SCOPED_TRACE("deadline after the step's completion");
    const ServeResult res = run(1.0, arrival);
    EXPECT_EQ(res.batches, 3u);
    EXPECT_EQ(res.records[0].queue_wait_s, 0.0);
    EXPECT_EQ(res.records[0].done_s, first_done);
    EXPECT_EQ(res.records[1].queue_wait_s, first_done - arrival);
  }
  {
    SCOPED_TRACE("deadline inside the step");
    const double max_wait = 0.25 * first_done;
    const ServeResult res = run(max_wait, arrival);
    EXPECT_EQ(res.batches, 3u);
    EXPECT_EQ(res.records[0].queue_wait_s, 0.0);
    const double launch = depth >= 2 ? arrival + max_wait : first_done;
    EXPECT_EQ(res.records[1].queue_wait_s, launch - arrival);
  }
}

TEST_F(WorkConservingTest, ArrivalDuringAStepLaunchesAtDeadlineOrCompletion) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("sim, pipeline_depth=" + std::to_string(depth));
    DrimEngineOptions o = default_options();
    o.pipeline_depth = depth;
    DrimAnnEngine engine(*index_, data_->learn, o);
    DrimBackend backend(engine);
    expect_launch_at_earlier_of_deadline_and_completion(backend, data_->queries);
  }
  CpuBackend cpu(*index_);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("cpu, pipeline_depth=" + std::to_string(depth));
    DepthOverride backend(cpu, depth);
    expect_launch_at_earlier_of_deadline_and_completion(backend, data_->queries);
  }
}

void expect_same_answers(const std::vector<std::vector<Neighbor>>& a,
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

TEST_F(WorkConservingTest, RelayoutKeepsTheQuantizedIndexAndMatchesAFullRebuild) {
  DrimEngineOptions o = default_options();
  o.enable_q4 = true;  // a full rebuild also re-runs the q4 k-means
  DrimAnnEngine relaid(*index_, data_->learn, o);
  DrimAnnEngine rebuilt(*index_, data_->learn, o);
  ASSERT_TRUE(relaid.q4_ready());

  // Skewed traffic, so the observed heat differs from the sample queries'.
  const std::size_t dim = data_->queries.dim();
  FloatMatrix hot(32, dim);
  for (std::size_t r = 0; r < hot.count(); ++r) {
    const auto src = data_->queries.row(r % 3);
    std::copy(src.begin(), src.end(), hot.row(r).begin());
  }
  relaid.search(hot, 10, 8);
  rebuilt.search(hot, 10, 8);

  const PimIndexData& data = relaid.data();
  const std::int16_t* codebooks = data.codebooks().data();
  const std::int16_t* codebooks_q4 = data.codebooks_q4().data();
  const std::uint8_t* codes = data.cluster_codes(0).data();
  const std::uint32_t* square_lut = relaid.square_lut().raw().data();
  std::vector<std::uint32_t> homes_before;
  for (const Shard& sh : relaid.layout().shards()) homes_before.push_back(sh.dpu);

  // A relayout with no publish before it.
  const double cost = relaid.replan_layout();
  EXPECT_EQ(data.codebooks().data(), codebooks);
  EXPECT_EQ(data.codebooks_q4().data(), codebooks_q4);
  EXPECT_EQ(data.cluster_codes(0).data(), codes);
  EXPECT_EQ(relaid.square_lut().raw().data(), square_lut);
  std::vector<std::uint32_t> homes_after;
  for (const Shard& sh : relaid.layout().shards()) homes_after.push_back(sh.dpu);
  ASSERT_NE(homes_after, homes_before) << "the traffic must move the layout";
  EXPECT_GT(cost, 0.0);

  // The same re-plan, then an empty publish of the same snapshot: a full
  // rebuild of everything derived from it, the quantized index included.
  EXPECT_EQ(rebuilt.replan_layout(), cost);
  const IndexSnapshot snap = rebuilt.snapshot();
  EXPECT_EQ(rebuilt.apply_snapshot(snap, PublishDelta{}), 0.0);

  ASSERT_EQ(rebuilt.layout().shards().size(), relaid.layout().shards().size());
  for (std::size_t i = 0; i < relaid.layout().shards().size(); ++i) {
    const Shard& a = relaid.layout().shards()[i];
    const Shard& b = rebuilt.layout().shards()[i];
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.dpu, b.dpu);
  }

  for (const Precision precision : {Precision::kFull, Precision::kQ4}) {
    SCOPED_TRACE(precision == Precision::kFull ? "full rung" : "q4 rung");
    DrimSearchStats sa, sb;
    const auto a = relaid.search(data_->queries, 10, 8, &sa, precision);
    const auto b = rebuilt.search(data_->queries, 10, 8, &sb, precision);
    expect_same_answers(a, b);
    EXPECT_EQ(sa.total_seconds, sb.total_seconds);
    EXPECT_EQ(sa.dpu_busy_seconds, sb.dpu_busy_seconds);
    EXPECT_EQ(sa.transfer_in_seconds, sb.transfer_in_seconds);
    EXPECT_EQ(sa.transfer_out_seconds, sb.transfer_out_seconds);
    EXPECT_EQ(sa.host_rerank_seconds, sb.host_rerank_seconds);
    EXPECT_EQ(sa.tasks, sb.tasks);
  }
}

}  // namespace
}  // namespace drim::serve
