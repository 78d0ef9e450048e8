// Install-instant contract of the serving loop (DESIGN.md §14): a publish
// lands at the install instant max(now, completion of the newest in-flight
// step), and before it installs, the loop admits every search arrival and
// applies every update op that arrived up to that instant. So an insert that
// arrives while a step is in flight, followed by a query for the inserted
// vector that also arrives before the step completes, must see the insert —
// at every pipeline depth, exactly as a one-step-at-a-time server would.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "backend/drim_backend.hpp"
#include "core/mutable_index.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using InstallInstantTest = ServeTest;

/// Forwards the streaming protocol to a DrimBackend and keeps a copy of
/// every result list the runtime takes (the runtime itself only counts them).
class RecordingBackend final : public AnnBackend {
 public:
  explicit RecordingBackend(DrimAnnEngine& engine) : inner_(engine) {}

  std::map<std::uint32_t, std::vector<Neighbor>> taken;

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
  std::size_t pipeline_depth() const override { return inner_.pipeline_depth(); }
  void set_step_start(double submit_seconds) override {
    inner_.set_step_start(submit_seconds);
  }
  bool has_deferred() const override { return inner_.has_deferred(); }
  std::size_t deferred_count() const override { return inner_.deferred_count(); }
  bool finished(std::uint32_t handle) const override { return inner_.finished(handle); }
  std::vector<Neighbor> take_results(std::uint32_t handle) override {
    std::vector<Neighbor> hits = inner_.take_results(handle);
    taken[handle] = hits;
    return hits;
  }
  std::size_t stream_depth() const override { return inner_.stream_depth(); }
  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override {
    return inner_.estimate_batch_seconds(num_queries, nprobe, k);
  }
  BackendStats stats() const override { return inner_.stats(); }
  bool supports_updates() const override { return inner_.supports_updates(); }
  double stage_snapshot(const IndexSnapshot& snapshot,
                        const PublishDelta& delta) override {
    return inner_.stage_snapshot(snapshot, delta);
  }
  double stage_relayout() override { return inner_.stage_relayout(); }

 private:
  DrimBackend inner_;
};

TEST_F(InstallInstantTest, QueryArrivingDuringTheStepSeesTheInsertBeforeIt) {
  constexpr std::size_t kBatch = 16;
  // The vector to insert: a held-out query row, so the index has no copy.
  const std::size_t v_row = data_->queries.count() - 1;
  const std::size_t dim = data_->queries.dim();

  // Pool rows 0..kBatch-1 fill the first batch; row kBatch is the vector.
  FloatMatrix pool(kBatch + 1, dim);
  for (std::size_t r = 0; r <= kBatch; ++r) {
    const auto src = data_->queries.row(r < kBatch ? r : v_row);
    std::copy(src.begin(), src.end(), pool.row(r).begin());
  }
  UpdateTrace updates;
  updates.insert_vectors = FloatMatrix(1, dim);
  const auto v = data_->queries.row(v_row);
  std::copy(v.begin(), v.end(), updates.insert_vectors.row(0).begin());

  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("pipeline_depth=" + std::to_string(depth));
    DrimEngineOptions o = default_options();
    o.pipeline_depth = depth;
    DrimAnnEngine engine(*index_, data_->learn, o);
    const double est = engine.estimate_batch_seconds(kBatch, 8, 10);

    // A full batch arrives at t = 0 and launches at once on the size
    // trigger; the insert and then the query for the inserted vector arrive
    // early inside that step.
    std::vector<Request> trace(kBatch + 1);
    for (std::size_t i = 0; i <= kBatch; ++i) {
      trace[i].id = i;
      trace[i].query = static_cast<std::uint32_t>(i);
      trace[i].k = 10;
      trace[i].nprobe = 8;
    }
    const double insert_at = 0.05 * est;
    trace[kBatch].arrival_s = 0.1 * est;
    updates.ops = {UpdateOp{insert_at, UpdateKind::kInsert, 0}};

    ServeParams sp;
    sp.batcher.max_batch = kBatch;
    sp.batcher.max_wait_s = 0.5 * est;
    sp.admission.enabled = false;
    RecordingBackend backend(engine);
    ServingRuntime runtime(backend, pool, sp);
    IndexWriter writer(*index_);
    UpdateStream stream;
    stream.trace = &updates;
    stream.writer = &writer;
    stream.publish_every_batches = 1;
    runtime.set_update_stream(&stream);
    const ServeResult res = runtime.run(trace);

    // Precondition: the query really arrived while the first step ran.
    ASSERT_GT(res.records[0].done_s, trace[kBatch].arrival_s);
    ASSERT_EQ(stream.applied, 1u);
    ASSERT_EQ(res.records[kBatch].results, 10u);

    // The query was the last one enqueued, so its handle is the largest.
    ASSERT_EQ(backend.taken.size(), kBatch + 1);
    const std::vector<Neighbor>& hits = backend.taken.rbegin()->second;
    const auto inserted = static_cast<std::uint32_t>(index_->ntotal());
    EXPECT_TRUE(std::any_of(hits.begin(), hits.end(),
                            [&](const Neighbor& n) { return n.id == inserted; }))
        << "the query for the inserted vector was answered by the old version";
  }
}

}  // namespace
}  // namespace drim::serve
