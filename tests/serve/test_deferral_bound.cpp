// The serving loop's deferral bound (DESIGN.md §9): a step may defer tasks
// only into a batch already waiting in the batcher, and never re-defers what
// an earlier step deferred. A spy backend records every step the runtime
// launches — its submit instant, the queries it took and the ones it
// completed — so the tests check the bound from outside the runtime, against
// the trace's own arrival times.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "backend/drim_backend.hpp"
#include "serve/runtime.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

/// Forwards the streaming protocol to a DrimBackend and records each step.
class StepSpy final : public AnnBackend {
 public:
  struct Step {
    double submit_s = 0.0;
    std::size_t taken_before = 0;  ///< queries enqueued before this step
    std::size_t taken = 0;         ///< queries enqueued for this step
    std::size_t deferred = 0;
  };

  explicit StepSpy(DrimBackend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe) override {
    return inner_.search(queries, k, nprobe);
  }
  void reset_stream() override {
    inner_.reset_stream();
    steps_.clear();
    taken_step_.clear();
    done_step_.clear();
    enqueued_ = 0;
  }
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override {
    return record(inner_.enqueue(query, k, nprobe));
  }
  std::uint32_t enqueue(std::span<const float> query, std::size_t k, std::size_t nprobe,
                        Precision precision) override {
    return record(inner_.enqueue(query, k, nprobe, precision));
  }
  BackendStepStats step(std::size_t max_queries, bool flush) override {
    const BackendStepStats st = inner_.step(max_queries, flush);
    const std::size_t index = steps_.size();
    const std::size_t before = steps_.empty()
                                   ? 0
                                   : steps_.back().taken_before + steps_.back().taken;
    steps_.push_back({submit_s_, before, enqueued_ - before, st.deferred});
    for (const auto& [handle, taken] : taken_step_) {
      if (!done_step_.count(handle) && inner_.finished(handle)) {
        done_step_[handle] = index;
      }
    }
    return st;
  }
  std::size_t pipeline_depth() const override { return inner_.pipeline_depth(); }
  void set_step_start(double submit_seconds) override {
    submit_s_ = submit_seconds;
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

  const std::vector<Step>& steps() const { return steps_; }
  /// Handle -> index of the step that took (resp. completed) its query.
  const std::map<std::uint32_t, std::size_t>& taken_step() const { return taken_step_; }
  const std::map<std::uint32_t, std::size_t>& done_step() const { return done_step_; }

 private:
  std::uint32_t record(std::uint32_t handle) {
    taken_step_[handle] = steps_.size();
    ++enqueued_;
    return handle;
  }

  DrimBackend& inner_;
  double submit_s_ = 0.0;
  std::size_t enqueued_ = 0;
  std::vector<Step> steps_;
  std::map<std::uint32_t, std::size_t> taken_step_;
  std::map<std::uint32_t, std::size_t> done_step_;
};

class DeferralBoundTest : public ServeTest {
 protected:
  /// Zero filter slack: the filter defers from any DPU above the mean load.
  static DrimEngineOptions eager_filter(std::size_t depth) {
    DrimEngineOptions o = default_options();
    o.scheduler.filter_slack = 0.0;
    o.pipeline_depth = depth;
    return o;
  }

  static ServeParams params(double batch_s) {
    ServeParams sp;
    sp.batcher.max_batch = 16;
    sp.batcher.max_wait_s = 2.0 * batch_s;
    sp.admission.enabled = false;  // every request is served
    return sp;
  }
};

TEST_F(DeferralBoundTest, LowRateHotQueryStepsNeverDeferIntoAnEmptyBatcher) {
  DrimEngineOptions o = eager_filter(1);
  DrimBackend backend(*index_, data_->learn, o);
  StepSpy spy(backend);
  const double batch_s = backend.estimate_batch_seconds(16, 8, 10);

  WorkloadParams wp;
  wp.offered_qps = 0.2 * 16.0 / batch_s;
  wp.num_requests = 96;
  wp.nprobe_choices = {8};
  std::vector<Request> trace = generate_workload(data_->queries.count(), wp);
  for (Request& r : trace) r.query = 0;  // one hot query: the filter's worst case

  const ServeResult res = ServingRuntime(spy, data_->queries, params(batch_s)).run(trace);
  ASSERT_EQ(res.report.served, trace.size());

  // The batcher is empty after step i's take when every request that had
  // arrived by its submit instant has been taken (the batcher is FIFO and
  // admission is off).
  std::size_t empty_steps = 0;
  std::vector<bool> empty_after_take;
  for (const StepSpy::Step& s : spy.steps()) {
    std::size_t arrived = 0;
    while (arrived < trace.size() && trace[arrived].arrival_s <= s.submit_s) ++arrived;
    const bool empty = s.taken_before + s.taken == arrived;
    empty_after_take.push_back(empty);
    if (!empty) continue;
    ++empty_steps;
    EXPECT_EQ(s.deferred, 0u) << "step at " << s.submit_s
                              << " s deferred into an empty batcher";
  }
  EXPECT_GT(empty_steps, spy.steps().size() / 2) << "the trace is not low-rate";

  ASSERT_EQ(spy.done_step().size(), trace.size());
  for (const auto& [handle, taken] : spy.taken_step()) {
    if (!empty_after_take[taken]) continue;
    EXPECT_EQ(spy.done_step().at(handle), taken)
        << "handle " << handle << " outlived the step that took it";
  }
}

TEST_F(DeferralBoundTest, OverloadedStreamDefersAtMostOneStep) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(depth);
    DrimBackend backend(*index_, data_->learn, eager_filter(depth));
    StepSpy spy(backend);
    const double batch_s = backend.estimate_batch_seconds(16, 8, 10);

    WorkloadParams wp;
    wp.offered_qps = 2.0 * 16.0 / batch_s;
    wp.num_requests = 256;
    wp.query_skew = 1.2;
    wp.nprobe_choices = {4, 8};
    const auto trace = generate_workload(data_->queries.count(), wp);

    const ServeResult res =
        ServingRuntime(spy, data_->queries, params(batch_s)).run(trace);
    ASSERT_EQ(res.report.served, trace.size());

    const auto& steps = spy.steps();
    std::size_t deferring = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].deferred == 0) continue;
      ++deferring;
      if (i + 1 < steps.size()) {
        EXPECT_EQ(steps[i + 1].deferred, 0u)
            << "steps " << i << " and " << i + 1 << " both deferred";
      }
    }
    EXPECT_GT(deferring, 0u) << "an overloaded hot stream must still defer";

    ASSERT_EQ(spy.done_step().size(), trace.size());
    for (const auto& [handle, taken] : spy.taken_step()) {
      EXPECT_LE(spy.done_step().at(handle), taken + 1)
          << "handle " << handle << " waited more than one step past its own";
    }
  }
}

}  // namespace
}  // namespace drim::serve
