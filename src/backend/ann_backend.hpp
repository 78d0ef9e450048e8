#pragma once
// The search-stack seam above the engine: one interface over every way this
// repo can execute an ANN search — the DRIM-ANN engine on a functional or
// analytic PIM platform (DrimBackend) and the CPU IVF-PQ baseline
// (CpuBackend). The serving runtime, the bench harness, and the CLI depend
// only on this interface, so a load sweep or a serve trace runs unchanged
// over any backend, selected by --backend {drim,cpu} / --platform
// {sim,analytic}. See DESIGN.md "Platform and backend seams".

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ivf.hpp"
#include "core/mutable_index.hpp"
#include "core/precision.hpp"
#include "core/topk.hpp"
#include "data/dataset.hpp"
#include "obs/trace.hpp"

namespace drim {

/// Timing/accounting of one streaming step() call, in the engine's overlap
/// decomposition: stages pre, host and exec, where host overlaps exec.
struct BackendStepStats {
  double step_seconds = 0.0;  ///< modeled timeline delta the step contributed
  double host_seconds = 0.0;  ///< host work overlapped with device execution
  double pre_seconds = 0.0;   ///< serial pre-step (e.g. a CL-on-PIM launch)
  double exec_seconds = 0.0;  ///< device batch incl. transfers and barrier
  std::size_t fresh_queries = 0;  ///< pending queries consumed by this step
  std::size_t tasks = 0;          ///< work units executed (backend-defined)
  std::size_t deferred = 0;       ///< tasks carried to a later step
  /// Absolute placement of the step on the backend's modeled timeline: the
  /// effective submit time and the completion time. On a step timeline (the
  /// drim backend at any pipeline_depth(), a one-slot pipe at depth 1)
  /// `complete - submit` can be less than pre + max(host, exec) because a
  /// step's stages overlap its neighbours'; step_seconds is the timeline
  /// delta the step contributed. Backends without a timeline report submit =
  /// the later of the previous complete and the set_step_start() instant,
  /// and complete = submit + step_seconds.
  double submit_seconds = 0.0;
  double complete_seconds = 0.0;
};

/// Cumulative backend statistics since the last reset_stream() (or since the
/// last closed-loop search(), which resets them).
struct BackendStats {
  double total_seconds = 0.0;  ///< modeled time across all steps
  double host_wall_seconds = 0.0;  ///< measured host time spent executing
  std::size_t queries = 0;
  std::size_t batches = 0;
  std::size_t tasks = 0;
  std::vector<double> batch_seconds;  ///< modeled latency per step, in order
  /// Code-stream bytes the cluster-major fusion stage avoided re-reading
  /// (DESIGN.md §16): MRAM DC re-streams amortized by fused kernel groups,
  /// plus host-side duplicate pulls the coalesced drain fallback skipped.
  /// 0 for backends without a fusion stage and at fuse_width 1.
  std::uint64_t dc_bytes_saved = 0;

  double qps() const { return total_seconds > 0 ? queries / total_seconds : 0.0; }
};

/// Health/load snapshot of one shard of a multi-shard cluster backend
/// (src/cluster). Unsharded backends report an empty vector.
struct ShardHealth {
  std::uint32_t shard = 0;            ///< shard id
  bool draining = false;              ///< no longer accepting new dispatches
  std::size_t queue_tasks = 0;        ///< deferred tasks still queued on it
  std::size_t dispatched_queries = 0; ///< queries routed to it (cumulative)
  std::size_t dispatched_tasks = 0;   ///< cluster visits routed to it
  std::size_t fallback_tasks = 0;     ///< host-exact fallbacks it caused
  double busy_seconds = 0.0;          ///< modeled execution time accumulated
};

/// An ANN search backend: closed-loop batch search plus the streaming
/// enqueue/step/take protocol the serving runtime drives. Implementations
/// own whatever device or model state they need; handles returned by
/// enqueue() are monotonically increasing across the stream's lifetime and
/// never reused, even when the backend compacts its internal tables.
class AnnBackend {
 public:
  virtual ~AnnBackend() = default;

  /// Stable identifier for logs and bench reports (e.g. "drim-sim", "cpu").
  virtual std::string name() const = 0;

  /// Closed-loop batch search: all queries at (k, nprobe), results ascending
  /// (distance, id). Resets the cumulative stats to this search's.
  virtual std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries,
                                                    std::size_t k,
                                                    std::size_t nprobe) = 0;

  // ---- streaming (the serving runtime's entry points) ----
  /// Drop all stream state and cumulative stats.
  virtual void reset_stream() = 0;
  /// Admit one query; returns its completion handle.
  virtual std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                                std::size_t nprobe) = 0;
  /// Admit one query at an explicit precision rung (DESIGN.md §15). The
  /// default ignores the rung and runs full precision — backends without a
  /// quantization ladder stay correct unchanged; DrimBackend honors it.
  virtual std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                                std::size_t nprobe, Precision precision) {
    (void)precision;
    return enqueue(query, k, nprobe);
  }
  /// True when the backend can accept caller-routed probe lists (the cluster
  /// router's per-shard dispatch path). Default: no.
  virtual bool supports_routed_enqueue() const { return false; }
  /// Admit one query with a caller-supplied probe list; the backend must not
  /// re-bill cluster location for it (the router bills CL once up front).
  virtual std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                                       std::span<const std::uint32_t> probes) {
    (void)query; (void)k; (void)probes;
    throw std::logic_error(name() + " backend does not support routed enqueue");
  }
  /// Routed admit at an explicit precision rung; same default-ignore
  /// contract as the precision-taking enqueue().
  virtual std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                                       std::span<const std::uint32_t> probes,
                                       Precision precision) {
    (void)precision;
    return enqueue_routed(query, k, probes);
  }
  /// Modeled host cluster-location cost for n queries (what the router bills
  /// at the front-end instead of per shard). 0 for backends with no model.
  virtual double locate_cost_seconds(std::size_t num_queries) const {
    (void)num_queries;
    return 0.0;
  }
  /// Per-shard health of a cluster backend; empty for unsharded backends.
  virtual std::vector<ShardHealth> shard_health() const { return {}; }
  /// Run one batch step over up to `max_queries` pending queries (0 = all)
  /// plus any carried work; `flush` forbids deferring past this step.
  /// Deferred tasks are carried into the next step, which may defer them
  /// again unless it flushes. A caller that flushes whenever no next batch is
  /// waiting or has_deferred() is true bounds every task's deferral to one
  /// step (the serving runtime's rule).
  virtual BackendStepStats step(std::size_t max_queries, bool flush) = 0;
  /// In-flight steps the backend can overlap on its modeled timeline: 1 for
  /// a backend that stages one step at a time (the default; the drim engine
  /// at depth 1 still overlaps a step's host tail with the next step), >= 2
  /// when the device pipeline double-buffers transfers against compute. The serving runtime keeps up
  /// to this many steps in flight.
  virtual std::size_t pipeline_depth() const { return 1; }
  /// Tell the backend when (on the caller's clock) the next step() is being
  /// submitted, so it anchors the step's timeline floor to real launch
  /// times instead of packing steps back-to-back: the step starts no earlier
  /// than this instant nor than the previous step's completion. Every
  /// shipped backend honours it, serial ones included — the serving runtime
  /// reads complete_seconds at every depth. reset_stream() clears it.
  virtual void set_step_start(double submit_seconds) { (void)submit_seconds; }
  /// Work deferred by previous steps still awaiting execution.
  virtual bool has_deferred() const = 0;
  /// Deferred work units still carried by the stream state (the serving
  /// admission predictor folds these into its backlog estimate — a backend
  /// with no deferral returns 0, the default).
  virtual std::size_t deferred_count() const { return 0; }
  /// Attach (or detach, with nullptr) a trace recorder: subsequent steps lay
  /// their device/host spans at the recorder's `now` cursor. Not owned; the
  /// default ignores it for backends with nothing to trace.
  virtual void set_trace(obs::TraceRecorder* trace) { (void)trace; }
  /// True once `handle`'s results are final.
  virtual bool finished(std::uint32_t handle) const = 0;
  /// Sorted final results; consumes them. Call once finished().
  virtual std::vector<Neighbor> take_results(std::uint32_t handle) = 0;
  /// Queries resident in the stream state right now — bounded on long runs
  /// by the backends' drained-state compaction (tests pin this).
  virtual std::size_t stream_depth() const = 0;

  /// Open-loop estimate of one batch's modeled service time (the admission
  /// controller's EWMA seed).
  virtual double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                        std::size_t k) const = 0;
  /// Cumulative stats since reset_stream() / the last search().
  virtual BackendStats stats() const = 0;

  // ---- mutable-index support (DESIGN.md §14) ----
  /// True when the backend can install writer-published index snapshots.
  virtual bool supports_updates() const { return false; }
  /// Stage a new index version for installation. The backend installs it at
  /// the next safe point (for batched devices: after in-flight work drains,
  /// before the next step consumes fresh queries) and returns the MODELED
  /// install cost in seconds — the writer's publish delta on the device
  /// link, not the physical reload the simulator performs. Queries admitted
  /// after this call see version `snapshot.version` once it lands; finished
  /// results harvested before the install keep their old-version answers.
  virtual double stage_snapshot(const IndexSnapshot& snapshot,
                                const PublishDelta& delta) {
    (void)snapshot; (void)delta;
    throw std::logic_error(name() + " backend does not support index updates");
  }
  /// Re-balance the device data layout from traffic observed since the last
  /// re-layout; returns the modeled cost of moving the re-placed bytes (0
  /// when nothing moved or the backend has no layout). Same safe-point rule
  /// as stage_snapshot().
  virtual double stage_relayout() { return 0.0; }
  /// Version of the index snapshot currently serving queries (0 for
  /// backends built directly on a raw index).
  virtual std::uint64_t snapshot_version() const { return 0; }
};

/// Which AnnBackend implementation to instantiate.
enum class BackendKind : std::uint8_t { kDrim, kCpu };

/// "drim" / "cpu" (matches the CLI/bench --backend values).
std::string backend_kind_name(BackendKind kind);

/// Parse a --backend value; throws std::invalid_argument on anything else.
BackendKind parse_backend_kind(const std::string& name);

}  // namespace drim
