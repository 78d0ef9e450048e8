#pragma once
// AnnBackend over DrimAnnEngine: adapts the engine's streaming step API
// (enqueue_query / search_batch / SearchBatchState) to the backend seam and
// keeps long-running streams bounded. SearchBatchState's tables grow a few
// hundred bytes per enqueued query forever; the backend rebases external
// handles onto a fresh state whenever every handed-out handle has been taken
// back and the state is idle, so a serving run's resident stream memory
// stays proportional to the in-flight window, not the trace length
// (tests/serve/test_state_compaction.cpp pins this).

#include <memory>

#include "backend/ann_backend.hpp"
#include "drim/engine.hpp"

namespace drim {

class DrimBackend final : public AnnBackend {
 public:
  /// Construct and own an engine for `index` with `options`.
  DrimBackend(const IvfPqIndex& index, const FloatMatrix& sample_queries,
              const DrimEngineOptions& options);
  /// Deleted: a temporary would dangle behind the non-owning root snapshot.
  DrimBackend(IvfPqIndex&& index, const FloatMatrix& sample_queries,
              const DrimEngineOptions& options) = delete;
  /// Construct and own an engine serving `snapshot` (shared ownership, so
  /// the backend can outlive the writer that published it).
  DrimBackend(IndexSnapshot snapshot, const FloatMatrix& sample_queries,
              const DrimEngineOptions& options);
  /// Borrow an existing engine (must outlive the backend).
  explicit DrimBackend(DrimAnnEngine& engine);

  std::string name() const override;
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe) override;

  void reset_stream() override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe, Precision precision) override;
  bool supports_routed_enqueue() const override { return true; }
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes) override;
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes,
                               Precision precision) override;
  double locate_cost_seconds(std::size_t num_queries) const override {
    return engine_->host_cl_cost_seconds(num_queries);
  }
  BackendStepStats step(std::size_t max_queries, bool flush) override;
  std::size_t pipeline_depth() const override { return engine_->pipeline_depth(); }
  void set_step_start(double submit_seconds) override {
    state_.submit_hint_seconds = submit_seconds;
  }
  bool has_deferred() const override { return state_.has_deferred(); }
  std::size_t deferred_count() const override { return state_.carried.size(); }
  void set_trace(obs::TraceRecorder* trace) override { engine_->set_trace(trace); }
  bool finished(std::uint32_t handle) const override;
  std::vector<Neighbor> take_results(std::uint32_t handle) override;
  std::size_t stream_depth() const override { return state_.quantized.size(); }

  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override;
  BackendStats stats() const override;

  // ---- mutable-index support ----
  bool supports_updates() const override { return true; }
  /// Flush every in-flight and pending query through the CURRENT version
  /// (they arrived before the publish point, so they must be answered by the
  /// old index — this is what makes per-version results bit-identical to a
  /// cold rebuild), then swap the engine onto the new snapshot. Finished
  /// results not yet taken stay harvestable; only queries enqueued after
  /// this call see the new version.
  double stage_snapshot(const IndexSnapshot& snapshot,
                        const PublishDelta& delta) override;
  double stage_relayout() override;
  std::uint64_t snapshot_version() const override {
    return engine_->snapshot().version;
  }

  DrimAnnEngine& engine() { return *engine_; }
  const DrimAnnEngine& engine() const { return *engine_; }
  /// The engine-level stat detail behind stats() (phase times, counters...).
  const DrimSearchStats& engine_stats() const { return stats_; }

 private:
  /// Rebase handles and drop the state's query tables once it is drained and
  /// every result has been taken (the modeled timeline carries on).
  void maybe_compact();
  /// Run flushing steps until the stream state is idle (the safe point for
  /// an index swap: carried tasks hold shard ids of the current layout).
  void flush_stream();

  std::unique_ptr<DrimAnnEngine> owned_;
  DrimAnnEngine* engine_;
  SearchBatchState state_;
  DrimSearchStats stats_;
  double host_wall_seconds_ = 0.0;
  std::uint32_t handle_base_ = 0;  ///< external handle of state_'s query 0
  std::size_t live_handles_ = 0;   ///< enqueued but not yet taken back
};

}  // namespace drim
