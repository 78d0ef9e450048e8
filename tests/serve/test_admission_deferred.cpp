// The admission predictor must count the backend's carried deferred-task
// backlog, not just the batcher queue: a backend that re-defers hot-shard
// work carries latency the queue depth alone cannot see. These tests drive
// the runtime with a fake backend whose deferred_count() is set directly,
// so the only difference between runs is the deferred buffer the predictor
// is supposed to fold in. Also pins the metrics snapshots that expose the
// same state.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "serve/runtime.hpp"

namespace drim::serve {
namespace {

/// Minimal deterministic backend: every step completes all fresh queries in
/// a fixed 1 ms, nothing is ever actually deferred — but deferred_count()
/// reports whatever the test configures, which is exactly what the
/// admission predictor reads.
class FakeBackend : public AnnBackend {
 public:
  explicit FakeBackend(std::size_t deferred_tasks)
      : deferred_tasks_(deferred_tasks) {}

  std::string name() const override { return "fake"; }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix&, std::size_t,
                                            std::size_t) override {
    return {};
  }
  void reset_stream() override {
    pending_.clear();
    done_.clear();
    next_ = 0;
  }
  std::uint32_t enqueue(std::span<const float>, std::size_t, std::size_t) override {
    pending_.push_back(next_);
    return next_++;
  }
  BackendStepStats step(std::size_t max_queries, bool) override {
    BackendStepStats s;
    const std::size_t n = max_queries == 0 ? pending_.size()
                                           : std::min(pending_.size(), max_queries);
    for (std::size_t i = 0; i < n; ++i) done_.insert(pending_[i]);
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(n));
    s.fresh_queries = n;
    s.tasks = n * 8;
    s.exec_seconds = 1e-3;
    s.step_seconds = 1e-3;
    return s;
  }
  bool has_deferred() const override { return false; }
  std::size_t deferred_count() const override { return deferred_tasks_; }
  bool finished(std::uint32_t handle) const override { return done_.count(handle) > 0; }
  std::vector<Neighbor> take_results(std::uint32_t handle) override {
    done_.erase(handle);
    return std::vector<Neighbor>(10);
  }
  std::size_t stream_depth() const override { return pending_.size(); }
  double estimate_batch_seconds(std::size_t, std::size_t, std::size_t) const override {
    return 1e-3;
  }
  BackendStats stats() const override { return {}; }

 private:
  std::size_t deferred_tasks_;
  std::vector<std::uint32_t> pending_;
  std::set<std::uint32_t> done_;
  std::uint32_t next_ = 0;
};

std::vector<Request> burst_trace(std::size_t n) {
  std::vector<Request> trace(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].id = i;
    trace[i].arrival_s = 0.0;
    trace[i].query = static_cast<std::uint32_t>(i % 4);
    trace[i].k = 10;
    trace[i].nprobe = 8;
  }
  return trace;
}

ServeParams fake_params() {
  ServeParams sp;
  sp.batcher.max_batch = 16;
  sp.batcher.max_wait_s = 1e-4;
  sp.admission.slo_s = 10e-3;  // 10 EWMA batches of headroom
  return sp;
}

TEST(AdmissionDeferred, EmptyDeferredBufferAdmitsTheWholeBurst) {
  FloatMatrix pool(4, 4);
  FakeBackend backend(/*deferred_tasks=*/0);
  ServingRuntime runtime(backend, pool, fake_params());
  const ServeResult res = runtime.run(burst_trace(8));
  EXPECT_EQ(res.report.shed, 0u);
  EXPECT_EQ(res.report.served, 8u);
}

TEST(AdmissionDeferred, NonemptyDeferredBufferRaisesPredictionsAndSheds) {
  // tasks-per-query is seeded at the trace's max nprobe (8), so 8000 carried
  // tasks read as ~1000 queued query-equivalents: the predicted wait jumps
  // from 1 batch (1 ms) to ~63 batches, far past the 10 ms SLO. The queue
  // itself is identical to the empty-buffer run — only deferred_count()
  // changed, so any shedding proves the predictor folds it in.
  FloatMatrix pool(4, 4);
  FakeBackend backend(/*deferred_tasks=*/8000);
  ServingRuntime runtime(backend, pool, fake_params());
  const ServeResult res = runtime.run(burst_trace(8));
  EXPECT_EQ(res.report.shed, 8u) << "every arrival sees the huge backlog";
  EXPECT_EQ(res.report.served, 0u);
}

TEST(AdmissionDeferred, ModerateDeferredBufferShedsOnlyTheTail) {
  // 192 carried tasks ~= 24 query-equivalents ~= 2 extra batches on top of
  // the queue: with a 2 ms SLO (2 EWMA batches) the burst's head still fits
  // (backlog 25..32 -> 2 batches) but the tail crosses into a 3rd batch and
  // sheds. The same trace with an empty buffer admits everything.
  FloatMatrix pool(4, 4);
  ServeParams sp = fake_params();
  sp.admission.slo_s = 2e-3;

  FakeBackend clean(/*deferred_tasks=*/0);
  const ServeResult all_in = ServingRuntime(clean, pool, sp).run(burst_trace(24));
  EXPECT_EQ(all_in.report.shed, 0u);

  FakeBackend backlogged(/*deferred_tasks=*/192);
  const ServeResult res = ServingRuntime(backlogged, pool, sp).run(burst_trace(24));
  EXPECT_GT(res.report.shed, 0u);
  EXPECT_GT(res.report.served, 0u);
}

TEST(AdmissionDeferred, SnapshotsExposeDeferredTasksAndShedRate) {
  FloatMatrix pool(4, 4);
  FakeBackend backend(/*deferred_tasks=*/8000);
  ServeParams sp = fake_params();
  sp.snapshot_period_s = 1e-4;
  ServingRuntime runtime(backend, pool, sp);
  const ServeResult res = runtime.run(burst_trace(8));
  ASSERT_FALSE(res.snapshots.empty());
  const MetricsSnapshot& last = res.snapshots.back();
  EXPECT_EQ(last.deferred_tasks, 8000u);
  EXPECT_EQ(last.shed, 8u);
  EXPECT_DOUBLE_EQ(last.shed_rate, 1.0);
}

}  // namespace
}  // namespace drim::serve
