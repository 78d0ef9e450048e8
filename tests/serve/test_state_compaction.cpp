// Stream-state compaction tests: SearchBatchState's tables grow with every
// enqueued query, so the backends rebase handles onto a fresh state whenever
// the stream drains and every result has been taken. These tests pin the
// guarantees that make that safe: handles stay monotonic (never reused, old
// ones keep answering finished()/take_results() correctly), a compaction
// moves no step on the modeled timeline, and a long serving run keeps
// resident stream memory proportional to the in-flight window, not the trace
// length.

#include <gtest/gtest.h>

#include <stdexcept>

#include "backend/cpu_backend.hpp"
#include "backend/drim_backend.hpp"
#include "serve/runtime.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using CompactionTest = ServeTest;

/// Enqueue `n` pool queries, run them to completion, take every result.
/// Returns the handles in enqueue order.
std::vector<std::uint32_t> run_round(AnnBackend& backend, const FloatMatrix& pool,
                                     std::size_t n) {
  std::vector<std::uint32_t> handles;
  for (std::size_t q = 0; q < n; ++q) {
    handles.push_back(backend.enqueue(pool.row(q % pool.count()), 10, 8));
  }
  backend.step(0, /*flush=*/true);
  while (backend.has_deferred()) backend.step(0, /*flush=*/true);
  for (std::uint32_t h : handles) {
    EXPECT_TRUE(backend.finished(h));
    EXPECT_EQ(backend.take_results(h).size(), 10u);
  }
  return handles;
}

void expect_compaction_contract(AnnBackend& backend, const FloatMatrix& pool) {
  backend.reset_stream();
  const auto first = run_round(backend, pool, 8);
  EXPECT_EQ(backend.stream_depth(), 8u);  // drained but not yet compacted

  // The next enqueue triggers the rebase: depth resets to the new window,
  // and the fresh handle continues the sequence instead of reusing 0.
  const std::uint32_t next = backend.enqueue(pool.row(0), 10, 8);
  EXPECT_EQ(next, 8u);
  EXPECT_EQ(backend.stream_depth(), 1u);

  // Compacted-away handles still answer: finished, but not takeable twice.
  for (std::uint32_t h : first) {
    EXPECT_TRUE(backend.finished(h));
    EXPECT_THROW(backend.take_results(h), std::logic_error);
  }

  backend.step(0, /*flush=*/true);
  EXPECT_EQ(backend.take_results(next).size(), 10u);

  // A second drained round keeps handles monotonic across two rebases.
  const auto second = run_round(backend, pool, 4);
  for (std::uint32_t h : second) EXPECT_GT(h, first.back());
}

TEST_F(CompactionTest, DrimBackendRebasesHandlesAfterDrain) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  DrimBackend backend(engine);
  expect_compaction_contract(backend, data_->queries);
}

TEST_F(CompactionTest, CpuBackendRebasesHandlesAfterDrain) {
  CpuBackend backend(*index_);
  expect_compaction_contract(backend, data_->queries);
}

TEST_F(CompactionTest, NoCompactionWhileResultsAreLive) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  DrimBackend backend(engine);
  const std::uint32_t held = backend.enqueue(data_->queries.row(0), 10, 8);
  backend.step(0, /*flush=*/true);
  ASSERT_TRUE(backend.finished(held));
  // `held` has not been taken, so enqueues must NOT rebase past it.
  const std::uint32_t next = backend.enqueue(data_->queries.row(1), 10, 8);
  EXPECT_EQ(next, held + 1);
  EXPECT_EQ(backend.stream_depth(), 2u);
  backend.step(0, /*flush=*/true);
  EXPECT_EQ(backend.take_results(held).size(), 10u);
  EXPECT_EQ(backend.take_results(next).size(), 10u);
}

TEST_F(CompactionTest, CompactionKeepsThePipelinedTimeline) {
  // Two rounds submitted at t = 0 on a depth-2 pipeline. Taking the first
  // round's results before the second enqueue compacts the state; the
  // second round must still queue behind the first on the DPU array, exactly
  // as it does when the first round's results are held (no compaction).
  auto second_round = [&](bool take_first) {
    DrimEngineOptions o = default_options();
    o.pipeline_depth = 2;
    DrimAnnEngine engine(*index_, data_->learn, o);
    DrimBackend backend(engine);
    std::vector<std::uint32_t> first;
    for (std::size_t q = 0; q < 8; ++q) {
      first.push_back(backend.enqueue(data_->queries.row(q), 10, 8));
    }
    backend.set_step_start(0.0);
    const BackendStepStats a = backend.step(0, /*flush=*/true);
    if (take_first) {
      for (std::uint32_t h : first) backend.take_results(h);
    }
    const std::uint32_t next = backend.enqueue(data_->queries.row(8), 10, 8);
    EXPECT_EQ(backend.stream_depth(), take_first ? 1u : 9u);
    backend.set_step_start(0.0);
    const BackendStepStats b = backend.step(0, /*flush=*/true);
    EXPECT_EQ(backend.take_results(next).size(), 10u);
    EXPECT_GT(b.complete_seconds, a.complete_seconds);
    return b;
  };
  const BackendStepStats held = second_round(false);
  const BackendStepStats compacted = second_round(true);
  EXPECT_EQ(compacted.submit_seconds, held.submit_seconds);
  EXPECT_EQ(compacted.complete_seconds, held.complete_seconds);
  EXPECT_EQ(compacted.step_seconds, held.step_seconds);
}

TEST_F(CompactionTest, LongTraceKeepsStreamMemoryBounded) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  DrimBackend backend(engine);

  ServeParams sp;
  sp.batcher.max_batch = 16;
  const double est = engine.estimate_batch_seconds(16, 8, 10);
  sp.batcher.max_wait_s = 4.0 * est;
  sp.admission.enabled = false;
  sp.admission.slo_s = 50.0 * est;
  ServingRuntime runtime(backend, data_->queries, sp);

  WorkloadParams wp;
  wp.num_requests = 512;
  // Below capacity, so the stream drains repeatedly and compaction can fire.
  wp.offered_qps = 0.5 * 16.0 / est;
  wp.k_choices = {10};
  wp.nprobe_choices = {8};
  const ServeResult res = runtime.run(generate_workload(data_->queries.count(), wp));

  EXPECT_EQ(res.report.served, 512u);
  EXPECT_EQ(res.engine_stats.queries, 512u);
  // The state must have been compacted along the way: what's resident at the
  // end is the tail since the last rebase, far below the 512-query trace.
  EXPECT_LT(backend.stream_depth(), 128u)
      << "stream state grew with the trace; compaction never fired";
}

}  // namespace
}  // namespace drim::serve
