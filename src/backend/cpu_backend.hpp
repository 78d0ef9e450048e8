#pragma once
// AnnBackend over the CPU IVF-PQ baseline. Results come from the real
// multithreaded CpuIvfPq scan; modeled step times come from the Eq. (1)-(11)
// performance model evaluated on a configurable comparator platform (by
// default a 2530-DPU-equivalent slice of the paper's 32-thread Faiss-CPU
// box), so latency sweeps over the CPU backend are simulation-host
// independent, like the DRIM backends'. The streaming protocol is
// stateless-per-step: every step executes all consumed queries to completion
// (no cross-step deferral), grouped by their (k, nprobe) so mixed traces are
// modeled per group.

#include "backend/ann_backend.hpp"
#include "baseline/cpu_ivfpq.hpp"
#include "model/perf_model.hpp"

namespace drim {

struct CpuBackendOptions {
  /// Comparator platform for modeled step times.
  PlatformParams platform = cpu_platform();
  bool multiplier_less = false;  ///< CPU squares natively; kept for ablations
};

class CpuBackend final : public AnnBackend {
 public:
  explicit CpuBackend(const IvfPqIndex& index, const CpuBackendOptions& options = {});
  /// Deleted: a temporary would dangle behind the non-owning root snapshot.
  explicit CpuBackend(IvfPqIndex&& index, const CpuBackendOptions& options = {}) = delete;
  /// Snapshot construction: the backend shares ownership of the snapshot's
  /// index; tombstoned snapshots are compacted up front (the CPU scan has no
  /// tombstone filter).
  explicit CpuBackend(IndexSnapshot snapshot, const CpuBackendOptions& options = {});

  std::string name() const override { return "cpu"; }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe) override;

  void reset_stream() override;
  // Precision-taking enqueue stays visible (the CPU baseline has no ladder;
  // the seam's default ignores the rung and lands here).
  using AnnBackend::enqueue;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override;
  BackendStepStats step(std::size_t max_queries, bool flush) override;
  void set_step_start(double submit_seconds) override {
    submit_hint_seconds_ = submit_seconds;
  }
  bool has_deferred() const override { return false; }
  void set_trace(obs::TraceRecorder* trace) override { trace_ = trace; }
  bool finished(std::uint32_t handle) const override;
  std::vector<Neighbor> take_results(std::uint32_t handle) override;
  std::size_t stream_depth() const override { return pending_.size(); }

  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override;
  BackendStats stats() const override { return stats_; }

  // ---- mutable-index support ----
  bool supports_updates() const override { return true; }
  /// Flush pending queries through the current version, then swap to the
  /// new snapshot (compacted when it carries tombstones). The install cost
  /// is the delta's bytes rewritten at the platform's memory bandwidth.
  double stage_snapshot(const IndexSnapshot& snapshot,
                        const PublishDelta& delta) override;
  std::uint64_t snapshot_version() const override { return snapshot_.version; }
  struct PendingQuery {
    std::vector<float> values;
    std::uint32_t k = 0;
    std::uint32_t nprobe = 0;
    std::vector<Neighbor> results;
    bool done = false;
    bool taken = false;
  };

  /// Eq. (1)-(11) seconds for one executed group.
  double model_group_seconds(std::size_t num_queries, std::size_t nprobe,
                             std::size_t k) const;
  void maybe_compact();
  /// Point live_ at the snapshot's index, compacting when it has tombstones.
  void adopt_snapshot();
  const IvfPqIndex& index() const { return *live_; }

  IndexSnapshot snapshot_;
  /// What the scan actually runs over: the snapshot's index, or its
  /// compacted live-only copy when the snapshot carries tombstones.
  std::shared_ptr<const IvfPqIndex> live_;
  CpuBackendOptions opts_;
  obs::TraceRecorder* trace_ = nullptr;  // not owned; may be null
  std::vector<PendingQuery> pending_;  ///< stream state, indexed by handle - base
  std::size_t next_query_ = 0;         ///< first pending query no step consumed
  std::uint32_t handle_base_ = 0;
  std::size_t live_handles_ = 0;
  /// Serial timeline: a step starts at the later of the caller's submit
  /// hint and the previous step's completion.
  double submit_hint_seconds_ = 0.0;
  double last_complete_seconds_ = 0.0;
  BackendStats stats_;
};

}  // namespace drim
