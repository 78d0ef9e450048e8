#pragma once
// A forwarding AnnBackend decorator: every virtual of the seam is overridden,
// forwarded unchanged to the wrapped backend, and (when a SpanRecorder is
// attached) timed as one host wall-clock span named "backend.<method>". It
// also keeps what the benchmark needs from outside the program: each step's
// modeled stats, each install's modeled cost, and — when capture is on — the
// answer of every query it handed back, with the request that produced it.
// Results and every modeled stat through the decorator are bit-identical to
// the bare backend (tests/test_perfbench.cpp).

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/ann_backend.hpp"
#include "support/spans.hpp"

namespace perfbench {

/// One answered query as the decorator saw it cross the seam.
struct Answer {
  const float* query = nullptr;  ///< the row pointer passed to enqueue
  std::uint32_t k = 0;
  std::uint32_t nprobe = 0;       ///< 0 for routed enqueues
  drim::Precision precision = drim::Precision::kFull;
  std::vector<drim::Neighbor> results;
};

class TimedBackend final : public drim::AnnBackend {
 public:
  /// Wraps `inner`, which must outlive the decorator.
  explicit TimedBackend(drim::AnnBackend& inner);

  /// Attach (or detach, with nullptr) the span sink. Not owned.
  void set_spans(SpanRecorder* spans);
  /// Record each taken answer into answers().
  void set_capture(bool on) { capture_ = on; }

  const std::vector<Answer>& answers() const { return answers_; }
  const std::vector<drim::BackendStepStats>& steps() const { return steps_; }
  /// Modeled cost each stage_snapshot / stage_relayout call returned.
  const std::vector<double>& snapshot_costs() const { return snapshot_costs_; }
  const std::vector<double>& relayout_costs() const { return relayout_costs_; }

  std::string name() const override;
  std::vector<std::vector<drim::Neighbor>> search(const drim::FloatMatrix& queries,
                                                  std::size_t k,
                                                  std::size_t nprobe) override;
  void reset_stream() override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k, std::size_t nprobe,
                        drim::Precision precision) override;
  bool supports_routed_enqueue() const override;
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes) override;
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes,
                               drim::Precision precision) override;
  double locate_cost_seconds(std::size_t num_queries) const override;
  std::vector<drim::ShardHealth> shard_health() const override;
  drim::BackendStepStats step(std::size_t max_queries, bool flush) override;
  std::size_t pipeline_depth() const override;
  void set_step_start(double submit_seconds) override;
  bool has_deferred() const override;
  std::size_t deferred_count() const override;
  void set_trace(drim::obs::TraceRecorder* trace) override;
  bool finished(std::uint32_t handle) const override;
  std::vector<drim::Neighbor> take_results(std::uint32_t handle) override;
  std::size_t stream_depth() const override;
  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override;
  drim::BackendStats stats() const override;
  bool supports_updates() const override;
  double stage_snapshot(const drim::IndexSnapshot& snapshot,
                        const drim::PublishDelta& delta) override;
  double stage_relayout() override;
  std::uint64_t snapshot_version() const override;

 private:
  enum Method : std::uint32_t {
    kName, kSearch, kReset, kEnqueue, kRoutedSupport, kEnqueueRouted, kLocateCost,
    kShardHealth, kStep, kDepth, kStepStart, kHasDeferred, kDeferredCount, kSetTrace,
    kFinished, kTake, kStreamDepth, kEstimate, kStats, kSupportsUpdates, kSnapshot,
    kRelayout, kVersion, kNumMethods
  };
  SpanRecorder::Scope scope(Method m, std::uint64_t id = 0) const {
    return SpanRecorder::Scope(spans_, spans_ ? names_[m] : 0, id);
  }
  std::uint32_t remember(std::uint32_t handle, std::span<const float> query,
                         std::size_t k, std::size_t nprobe, drim::Precision precision);

  drim::AnnBackend& inner_;
  SpanRecorder* spans_ = nullptr;
  std::uint32_t names_[kNumMethods] = {};
  bool capture_ = false;
  std::unordered_map<std::uint32_t, Answer> pending_;
  std::vector<Answer> answers_;
  std::vector<drim::BackendStepStats> steps_;
  std::vector<double> snapshot_costs_;
  std::vector<double> relayout_costs_;
};

}  // namespace perfbench
