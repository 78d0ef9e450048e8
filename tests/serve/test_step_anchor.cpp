// Step anchoring on the CPU baseline backend: set_step_start(t) places the
// next step at t on the modeled timeline when t is later than the previous
// completion (the serving loop launches a step at the virtual instant its
// batch fired, not back-to-back behind an idle gap), and reset_stream()
// clears the anchor with the rest of the stream state.

#include <gtest/gtest.h>

#include <cstddef>

#include "backend/cpu_backend.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using StepAnchorTest = ServeTest;

void enqueue_rows(CpuBackend& backend, const FloatMatrix& queries, std::size_t n) {
  for (std::size_t q = 0; q < n; ++q) backend.enqueue(queries.row(q), 10, 8);
}

TEST_F(StepAnchorTest, CpuBackendHonoursStepStartAndResetClearsIt) {
  CpuBackend backend(*index_);
  backend.reset_stream();

  enqueue_rows(backend, data_->queries, 4);
  const BackendStepStats first = backend.step(0, false);
  EXPECT_EQ(first.submit_seconds, 0.0);
  EXPECT_EQ(first.complete_seconds, first.step_seconds);

  // An anchor later than the previous completion opens an idle gap.
  const double t = first.complete_seconds + 3.0 * first.step_seconds + 1e-3;
  backend.set_step_start(t);
  enqueue_rows(backend, data_->queries, 4);
  const BackendStepStats anchored = backend.step(0, false);
  EXPECT_EQ(anchored.submit_seconds, t);
  EXPECT_EQ(anchored.complete_seconds, t + anchored.step_seconds);

  // An anchor earlier than the previous completion cannot pull a step back.
  backend.set_step_start(0.0);
  enqueue_rows(backend, data_->queries, 4);
  const BackendStepStats packed = backend.step(0, false);
  EXPECT_EQ(packed.submit_seconds, anchored.complete_seconds);
  EXPECT_EQ(packed.complete_seconds, anchored.complete_seconds + packed.step_seconds);

  // reset_stream() drops the anchor and the timeline with it.
  backend.set_step_start(t);
  backend.reset_stream();
  enqueue_rows(backend, data_->queries, 4);
  const BackendStepStats fresh = backend.step(0, false);
  EXPECT_EQ(fresh.submit_seconds, 0.0);
  EXPECT_EQ(fresh.complete_seconds, fresh.step_seconds);
}

}  // namespace
}  // namespace drim::serve
