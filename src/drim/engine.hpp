#pragma once
// DrimAnnEngine — the end-to-end DRIM-ANN system (Fig. 4): offline it
// quantizes a trained IVF-PQ index, generates the load-balanced data layout,
// and loads every DPU's MRAM; online it runs host-side cluster locating,
// schedules (q, c) tasks across DPU replicas, launches the search kernel in
// barrier-synchronized batches, and merges per-task top-k hits into final
// results. Timing follows the paper's pipeline model: host execution and
// host<->DPU transfer overlap DPU execution, so each batch costs
// max(host work, PIM batch time).

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ivf.hpp"
#include "core/mutable_index.hpp"
#include "core/precision.hpp"
#include "core/topk.hpp"
#include "drim/kernels.hpp"
#include "drim/layout.hpp"
#include "drim/pim_index.hpp"
#include "drim/scheduler.hpp"
#include "drim/square_lut.hpp"
#include "obs/trace.hpp"
#include "pim/energy_model.hpp"
#include "pim/pim_platform.hpp"
#include "pim/pipeline.hpp"

namespace drim {

/// Analytic model of the host CPU driving the PIM server (Xeon Silver class).
/// Used to cost the CL phase, which DRIM-ANN keeps on the host because its
/// post-conversion compute-to-IO ratio is the highest of the five phases.
struct HostModelParams {
  double flops_per_sec = 150e9;  ///< sustained multi-thread AVX2 throughput
  double bytes_per_sec = 80e9;   ///< sustained DDR4 bandwidth (paper cites ~80 GB/s)
};

/// Everything configurable about an engine instance.
struct DrimEngineOptions {
  PimConfig pim;
  LayoutParams layout;
  SchedulerParams scheduler;  ///< l_* fields are recalibrated from the index
  HostModelParams host;
  EnergyModel energy;
  bool use_square_lut = true;   ///< Fig. 10a ablation toggle
  std::size_t heat_nprobe = 32; ///< nprobe used when estimating cluster heat
  std::size_t batch_size = 0;   ///< queries per PIM batch; 0 = all at once
  /// Run cluster locating on the DPUs instead of the host (the Section III-B
  /// placement alternative): centroids are range-partitioned across DPUs and
  /// the host merges per-DPU candidate lists. Costs an extra barrier launch
  /// plus P * num_dpus hits of host-link traffic per query — measurably worse
  /// than host CL on UPMEM-like links, which is the point of exposing it.
  bool cl_on_pim = false;
  /// Which PimPlatform backs the engine: kSim byte-simulates every kernel
  /// (bit-exact, slow), kAnalytic charges the same cost tables analytically
  /// with results from a host-side exact scan (identical results, schedule-
  /// aware approximate times, paper-scale num_dpus feasible).
  PimPlatformKind platform = PimPlatformKind::kSim;
  /// In-flight batch depth of the pipelined executor (DESIGN.md §12): the
  /// MRAM staging region is split into this many ping/pong slots and
  /// consecutive steps overlap on the virtual timeline (batch i's DPU
  /// compute overlaps batch i-1's result pull and batch i+1's query push).
  /// 1 = a pipe with one slot (a step's transfers and compute wait for the
  /// previous step's result pull; only host work overlaps across steps);
  /// 2 = double buffering (default). Results are bit-identical at every
  /// depth — only modeled timestamps change. Not to be confused with
  /// PimConfig::pipeline_depth, the DPU's *instruction* pipeline depth.
  std::size_t pipeline_depth = 2;
  /// Upload the quantization ladder's 4-bit rung tables (coarse codebooks +
  /// packed codes) to MRAM so queries may run at Precision::kQ4. OFF by
  /// default: with the ladder off the static MRAM image — and therefore the
  /// staging geometry and every modeled time — is byte-identical to the
  /// pre-ladder engine. With it ON, full-rung queries still charge the
  /// identical per-batch streams (offsets shift, byte counts don't).
  /// Ignored (with a clamp to full precision at enqueue) when the index has
  /// no q4 tables (wide codes).
  bool enable_q4 = false;
  /// Cluster-major task fusion width (DESIGN.md §16): after scheduling, each
  /// DPU's tasks are grouped by (cluster, rung) into fused groups of up to
  /// this many queries; the kernel streams the cluster's packed codes from
  /// MRAM once per group, scoring every member's LUT against each code block
  /// before advancing. 1 (default) ships no plan and runs each task as its
  /// own group — results AND modeled times reproduce bit-for-bit. Widths > 1
  /// leave results bit-identical (each member keeps its own LUT, heap, and
  /// output row) and only amortize the DC DMA stream. Bounded by the 64 KB WRAM
  /// budget: G LUTs + one code block + G top-k heaps must fit; infeasible
  /// widths throw naming the maximum feasible width.
  std::size_t fuse_width = 1;
};

/// Timing/energy/traffic report for one search() call.
struct DrimSearchStats {
  double total_seconds = 0.0;       ///< modeled end-to-end latency
  double host_cl_seconds = 0.0;     ///< host CL time (overlapped)
  /// Host-side exact rerank of q4 result rows (overlapped with the PIM
  /// batch, like host CL). Exactly 0 when no query ran on the 4-bit rung.
  double host_rerank_seconds = 0.0;
  /// One-time static index upload (codebooks, centroids, shards) billed at
  /// construction, NOT included in total_seconds or any batch's
  /// transfer_in_seconds — the engine drains the load bytes before the first
  /// search so first-batch latency reflects only per-batch traffic.
  double index_load_seconds = 0.0;
  double transfer_in_seconds = 0.0;
  double transfer_out_seconds = 0.0;
  double dpu_busy_seconds = 0.0;    ///< sum over batches of max-DPU time
  std::array<double, kNumPhases> phase_dpu_seconds{};  ///< total DPU-seconds per phase
  std::vector<double> per_dpu_seconds;  ///< per-DPU busy time, all batches
  std::size_t batches = 0;
  std::size_t tasks = 0;
  std::size_t queries = 0;
  /// Each step's step_seconds in order (the timeline delta it added), so
  /// benches and the serving layer can report tail percentiles without
  /// re-deriving per-batch times from the totals.
  std::vector<double> batch_seconds;
  DpuCounters counters;             ///< aggregate over DPUs and batches
  double energy_joules = 0.0;
  /// MRAM code-stream bytes the cluster-major fusion stage avoided re-reading
  /// (DESIGN.md §16): for each fused group, (width - 1) x the cluster's
  /// packed-code bytes (plus tombstone-flag bytes on deleted-from shards).
  /// Exactly 0 at fuse_width 1.
  std::uint64_t dc_bytes_saved = 0;
  /// LUT entries the full-rung tasks built: each builds only the entries its
  /// shard's codeword list names (at most m x cb; DESIGN.md §17).
  std::uint64_t lut_entries_built = 0;

  double qps() const { return total_seconds > 0 ? queries / total_seconds : 0.0; }
};

/// Timing/accounting of ONE search_batch() step.
struct BatchStepStats {
  /// Timeline delta this step added: `complete - max(previous complete,
  /// submit)`, so summing step_seconds over a closed-loop run yields the
  /// makespan.
  double step_seconds = 0.0;
  double host_cl_seconds = 0.0;      ///< host CL (overlapped with the PIM batch)
  double host_rerank_seconds = 0.0;  ///< q4 exact-rerank host cost (overlapped)
  double cl_pim_seconds = 0.0;       ///< dedicated CL launch (cl_on_pim only)
  double pim_batch_seconds = 0.0;    ///< search launch: transfers + barrier + overhead
  double transfer_in_seconds = 0.0;  ///< search launch only (CL launch billed in cl_pim)
  double transfer_out_seconds = 0.0;
  double dpu_seconds = 0.0;          ///< slowest DPU of the search launch
  std::size_t fresh_queries = 0;     ///< pending queries consumed by this step
  std::size_t tasks = 0;             ///< tasks executed (fresh + carried)
  std::size_t deferred = 0;          ///< tasks the filter carried to the next step
  /// Absolute placement of this step on the state's virtual timeline: the
  /// effective submit time (max of the caller's submit hint and the previous
  /// completion) and this step's completion. `complete - submit` can be less
  /// than the step's own cl_pim + max(host, PIM batch), because its stages
  /// overlap earlier steps still on the timeline (at depth 1, the previous
  /// step's host work once its results are pulled).
  double submit_seconds = 0.0;
  double complete_seconds = 0.0;
};

/// Caller-owned state of a streaming search: quantized query payloads, CL
/// probe lists, per-query result heaps, and the scheduler's deferred-task
/// buffer, all carried across search_batch() calls. One state = one logical
/// query stream; handles returned by enqueue_query() index these tables and
/// are the global ids Task.query refers to. The tables grow with the stream
/// (a few hundred bytes per query), so very long serving runs should start a
/// fresh state periodically once it drains.
struct SearchBatchState {
  std::vector<std::vector<std::int16_t>> quantized;  ///< per-query PIM payload
  std::vector<std::vector<std::uint32_t>> probes;    ///< per-query cluster list
  std::vector<std::uint32_t> query_k;
  std::vector<std::uint32_t> query_nprobe;
  /// Nonzero for queries whose cluster location was done by the caller
  /// (enqueue_query_routed): the step skips billing host CL for them.
  std::vector<std::uint8_t> cl_external;
  /// Per-query precision rung (0 = full, 1 = q4), set at enqueue time after
  /// clamping to what the engine can execute (see DrimAnnEngine::q4_ready).
  std::vector<std::uint8_t> query_precision;
  std::vector<TopK> accum;                 ///< per-query result accumulation
  std::vector<Task> carried;               ///< inter-batch filter buffer
  std::vector<std::uint32_t> deferred_per_query;  ///< outstanding carried tasks
  std::size_t next_query = 0;  ///< first enqueued query no step has consumed

  // ---- the step timeline (DESIGN.md §12) ----
  /// Virtual timeline every step of this stream opens and closes on;
  /// search_batch() rebuilds it when the engine's pipeline depth differs.
  PipelineTimeline pipeline{1};
  /// Serve-layer submit time of the next step on the timeline's clock (the
  /// serving runtime sets this before each step; closed-loop search leaves
  /// it 0 so steps pack back-to-back).
  double submit_hint_seconds = 0.0;
  double last_complete_seconds = 0.0;  ///< completion time of the latest step
  std::size_t step_index = 0;  ///< steps run (MRAM slot = step_index % depth)

  /// Queries enqueued but not yet consumed by a step.
  std::size_t pending() const { return quantized.size() - next_query; }
  bool has_deferred() const { return !carried.empty(); }
  /// Nothing left to run: no pending queries and no carried tasks.
  bool idle() const { return pending() == 0 && carried.empty(); }
  /// True once every task of query `handle` has executed (results final).
  bool finished(std::uint32_t handle) const {
    return handle < next_query && deferred_per_query[handle] == 0;
  }
  /// Sorted final results; consumes the heap. Call once finished().
  std::vector<Neighbor> take_results(std::uint32_t handle) {
    return accum[handle].take_sorted();
  }
  /// Drop every per-query table but keep the stream's timeline: a drained
  /// state's last steps may still be in flight on the modeled clock, and the
  /// next step must queue behind them on the DPU array and the link.
  void clear_queries() {
    SearchBatchState next;
    next.pipeline = std::move(pipeline);
    next.submit_hint_seconds = submit_hint_seconds;
    next.last_complete_seconds = last_complete_seconds;
    next.step_index = step_index;
    *this = std::move(next);
  }
};

/// Derive Eq. 15 predictor coefficients (in DPU cycles) from the index
/// geometry and the platform cost table, matching the kernel's charges.
/// `cb4`, when nonzero, also derives the 4-bit rung's l_lut_q4/l_calu_q4
/// from the q4 kernel's charges; at 0 the q4 coefficients mirror the
/// full-precision ones (no ladder).
SchedulerParams derive_scheduler_params(const PimConfig& cfg, std::size_t dim,
                                        std::size_t m, std::size_t cb, std::size_t k,
                                        bool use_square_lut, std::size_t cb4 = 0);

/// The engine. Consumes the index through a versioned IndexSnapshot — the
/// read-only view (centroids, codebooks, cluster codes/ids, tombstones) is
/// resolved per batch, and a writer can swap in a new version between
/// batches via apply_snapshot() without pausing the stream.
class DrimAnnEngine {
 public:
  /// Read-only construction: wraps the caller-owned index in a version-0
  /// snapshot (non-owning). Behavior is bit-identical — results AND modeled
  /// times — to the pre-snapshot engine.
  DrimAnnEngine(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                const DrimEngineOptions& options);
  /// A temporary index would dangle behind the non-owning root snapshot
  /// (e.g. `DrimAnnEngine(writer.compacted_index(), ...)`) — bind it to a
  /// local, or publish() and use the owning snapshot constructor.
  DrimAnnEngine(IvfPqIndex&& index, const FloatMatrix& sample_queries,
                const DrimEngineOptions& options) = delete;

  /// Snapshot construction: the engine shares ownership of the snapshot's
  /// index, so a writer-published version outlives its writer.
  DrimAnnEngine(IndexSnapshot snapshot, const FloatMatrix& sample_queries,
                const DrimEngineOptions& options);

  /// Batch search. Results are ascending (distance, id); distances are the
  /// integer ADC values from the quantized PIM domain, widened to float.
  /// Implemented as enqueue_queries() + a search_batch() loop over
  /// opts().batch_size chunks. `precision` selects the rung every query of
  /// the call runs at (kQ4 requires opts().enable_q4 and an index with q4
  /// tables; otherwise it clamps to full).
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe,
                                            DrimSearchStats* stats = nullptr,
                                            Precision precision = Precision::kFull);

  // ---- streaming step API (the serving runtime's entry point) ----

  /// Admit one query into a streaming state: quantizes the payload and (in
  /// host-CL mode) locates its clusters. Returns the query's dense handle.
  /// `precision` is the requested rung; it clamps to full unless q4_ready().
  std::uint32_t enqueue_query(SearchBatchState& state, std::span<const float> query,
                              std::size_t k, std::size_t nprobe,
                              Precision precision = Precision::kFull);

  /// Bulk admit, fanning the per-query quantization and CL across host
  /// threads. Handles are assigned in row order starting at state.pending
  /// end; search() uses this path.
  void enqueue_queries(SearchBatchState& state, const FloatMatrix& queries,
                       std::size_t k, std::size_t nprobe,
                       Precision precision = Precision::kFull);

  /// Admit one query with a caller-supplied probe list (the cluster-tier
  /// router locates clusters once and hands each shard only the clusters it
  /// owns). Host CL is NOT billed for routed queries — the router accounts
  /// for it via host_cl_cost_seconds(). Incompatible with cl_on_pim (the
  /// probe list would be recomputed on the PIM side); throws
  /// std::invalid_argument in that mode.
  std::uint32_t enqueue_query_routed(SearchBatchState& state,
                                     std::span<const float> query, std::size_t k,
                                     std::span<const std::uint32_t> probes,
                                     Precision precision = Precision::kFull);

  /// True when Precision::kQ4 requests actually execute on the 4-bit rung:
  /// the ladder option is on AND the index built q4 tables (narrow codes).
  /// When false, kQ4 enqueues clamp to full precision.
  bool q4_ready() const { return opts_.enable_q4 && data_.has_q4(); }

  /// Modeled host cluster-location cost for `num_queries` queries (the same
  /// Eq. 1 centroid-scan model search_batch bills per step). Public so the
  /// cluster router can bill CL once at the front-end.
  double host_cl_cost_seconds(std::size_t num_queries) const {
    return model_host_cl_seconds(num_queries);
  }

  /// Run ONE barrier-synchronized PIM step: consumes up to `max_queries`
  /// pending queries (0 = all of them) plus every carried deferred task,
  /// schedules them (Eq. 15 + filter), launches the search kernel, and
  /// merges hits into the per-query heaps. `flush` disables the inter-batch
  /// filter so nothing is deferred past this step. When `stats` is given the
  /// step is also accumulated into it (totals, per-batch vector, counters).
  BatchStepStats search_batch(SearchBatchState& state, std::size_t max_queries,
                              bool flush, DrimSearchStats* stats = nullptr);

  /// Eq. 15 open-loop estimate of one batch's modeled service time for
  /// `num_queries` queries at (k, nprobe), assuming the scheduler spreads
  /// tasks perfectly across DPUs. The serving layer's admission controller
  /// seeds its queue-delay predictor with this.
  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const;

  /// Upper bound on how many staged queries can ever fit the per-DPU MRAM
  /// staging region at depth k (each staged query needs its payload plus at
  /// least one task's k-hit output block). The exact per-step footprint
  /// depends on the schedule and is re-validated by search_batch().
  std::size_t max_staged_queries(std::size_t k) const;

  /// Largest cluster-major fusion width whose WRAM working set (G LUTs + one
  /// code block + G bounded top-k heaps; q4 pair-LUT rows when the ladder is
  /// on) fits the 64 KB budget at search depth `k` (DESIGN.md §16). 0 means
  /// even the unfused per-task working set does not fit. search_batch() and
  /// the constructor validate opts().fuse_width against this bound.
  std::size_t max_feasible_fuse_width(std::size_t k) const;

  /// Attach (or detach, with nullptr) a trace recorder. Every subsequent
  /// search_batch() lays its launches on the recorder's virtual clock at
  /// their timeline times: a CL-on-PIM launch first, then transfer-in /
  /// launch overhead / per-DPU phase spans / transfer-out, with the
  /// overlapped host CL span alongside; the cursor moves to each step's
  /// completion. The recorder must
  /// outlive the engine or be detached first; the engine never owns it.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  // ---- mutable-index support (DESIGN.md §14) ----

  /// The snapshot currently being served.
  const IndexSnapshot& snapshot() const { return snapshot_; }

  /// Install a new index version between batches: rebuild the quantized
  /// view, the heat-balanced layout (heat is carried over, with split
  /// children inheriting their parent's heat proportionally), the scheduler,
  /// and every DPU's MRAM image. The caller must have flushed its stream
  /// state first — carried tasks hold shard ids that dangle across layout
  /// swaps. Returns the MODELED publish cost in seconds: the writer's delta
  /// (shadow-slot appends + tombstone metadata + split-moved bytes) on the
  /// host link — the physical full reload the simulator performs for
  /// bit-exactness is drained and discarded, never billed.
  double apply_snapshot(const IndexSnapshot& snapshot, const PublishDelta& delta);

  /// Background re-layout: recompute the heat-balanced allocation from the
  /// cluster-visit counts observed since the last re-layout (same smoothing
  /// as the construction-time estimate) and swap it in. Billed as the bytes
  /// of shards whose DPU placement actually changed, on the host link.
  /// No-op (returns 0) when no traffic has been observed. Same flush
  /// precondition as apply_snapshot().
  double replan_layout();

  const DrimEngineOptions& options() const { return opts_; }
  /// Sanitized in-flight depth of the pipelined executor (0 is clamped to 1).
  std::size_t pipeline_depth() const {
    return opts_.pipeline_depth == 0 ? 1 : opts_.pipeline_depth;
  }
  const PimIndexData& data() const { return data_; }
  /// Seconds the one-time static index upload takes on the host link
  /// (reported in every DrimSearchStats, never billed to a batch).
  double index_load_seconds() const { return index_load_seconds_; }
  const DataLayout& layout() const { return *layout_; }
  /// The codewords layout shard `shard`'s codes reference: the LUT entries
  /// its full-rung tasks build (one list per (cluster, slice), shared by
  /// the slice's replicas; DESIGN.md §17).
  const CodewordList& codeword_list(std::uint32_t shard) const {
    return codeword_lists_[shard_list_[shard]];
  }
  const PimPlatform& platform() const { return *pim_; }
  const SquareLut& square_lut() const { return sq_lut_; }
  /// The Eq. 15 scheduler over layout(), priced from the current lists.
  const RuntimeScheduler& scheduler() const { return *scheduler_; }

 private:
  /// Upload the static MRAM image of data_ under layout_. `previous`, when
  /// given, is the image this one replaces: a slice whose codes it holds
  /// byte for byte keeps that slice's codeword list instead of rebuilding.
  void load_static_data(const PimIndexData* previous = nullptr);
  /// Tear down and rebuild everything derived from snapshot_: quantized
  /// data, square LUT, then rebuild_layout().
  void rebuild_from_snapshot();
  /// Rebuild what derives from data_ and heat_: layout, scheduler and MRAM
  /// image (`previous` as in load_static_data). The physical reload's
  /// host-link tally is drained and discarded.
  void rebuild_layout(const PimIndexData* previous);
  double model_host_cl_seconds(std::size_t num_queries) const;

  /// Throw if even a single query at depth `k` cannot be staged (satellite
  /// of the up-front batch_size validation; called at search entry).
  void validate_staging(std::size_t k) const;

  /// Throw std::invalid_argument naming the maximum feasible fusion width
  /// when opts_.fuse_width's WRAM working set cannot fit at depth `k`.
  /// No-op at fuse_width <= 1 (the per-task kernels do their own check).
  void validate_fuse_width(std::size_t k) const;

  /// (Re)derive the Eq. 15 predictor coefficients for search depth `k`,
  /// preserving the caller's filter/policy settings. Cached per k: search()
  /// calls this with its actual k so the TS term is never priced for the
  /// wrong depth.
  void ensure_scheduler_params(std::size_t k);

  /// Absolute stage starts of one launch's trace spans. The CL pre-launch
  /// lays its stages back to back from its timeline start; the search
  /// launch takes them from the PipelineSchedule, so overlapping launches
  /// render truthfully on the shared host-link/dpu lanes.
  struct LaunchLayout {
    double in_start = 0.0;
    double launch_start = 0.0;
    double launch_seconds = 0.0;
    double kern_start = 0.0;
    double out_start = 0.0;
  };

  /// Lay one kernel launch on the trace: transfer-in, launch overhead, one
  /// lane per busy DPU with its phase spans (scaled to the DPU's busy time,
  /// raw per-phase seconds in the args), transfer-out. Reads the platform's
  /// per-DPU phase counters, so call it right after run_batch() returns and
  /// before the next launch resets them. No-op when no trace is attached.
  void trace_launch_spans(const LaunchLayout& layout, const BatchResult& batch,
                          const char* kind,
                          const std::vector<std::size_t>& tasks_per_dpu);

  /// Add one launch to `stats`: its transfers, its slowest and per-DPU busy
  /// time, every DPU's phase seconds and the aggregate counters. Reads the
  /// platform's counters, so call it before the next launch resets them.
  void fold_launch(const BatchResult& batch, DrimSearchStats& stats) const;

  /// One search_batch() step's working set, threaded through its stages
  /// (defined in engine.cpp).
  struct StepContext;
  // The stages of search_batch(), in the order it runs them: locate (CL on
  // the PIM, then open the step on the timeline), schedule, stage (dedup,
  // fusion plan, capacity check), launch (push, kernel, pull, q4 rerank,
  // replay, merge), account (close the step on the timeline), trace.
  void locate_step(SearchBatchState& state, StepContext& step, DrimSearchStats& st);
  void schedule_step(SearchBatchState& state, StepContext& step, bool flush);
  void stage_step(const SearchBatchState& state, StepContext& step);
  void launch_step(SearchBatchState& state, StepContext& step);
  void account_step(SearchBatchState& state, StepContext& step, DrimSearchStats& st);
  void trace_step(const StepContext& step, const DrimSearchStats& st);

  /// CL-on-PIM launch: locate clusters for queries [begin, end) of `state`
  /// with a dedicated kernel launch staged in the MRAM slot at `slot_base`,
  /// filling their probe lists. Returns the launch and how many DPUs own
  /// centroids; the caller folds and traces it.
  struct ClLaunch {
    BatchResult batch;
    std::size_t active_dpus = 0;
  };
  ClLaunch locate_on_pim(SearchBatchState& state, std::size_t begin, std::size_t end,
                         std::size_t slot_base);

  /// Base MRAM offset of the staging slot step `step_index` uses (slots are
  /// assigned round-robin; one slot of staging_stride_ bytes per in-flight
  /// batch).
  std::size_t staging_slot_base(std::size_t step_index) const {
    return staging_base_ + (step_index % pipeline_depth()) * staging_stride_;
  }

  const IvfPqIndex& index() const { return *snapshot_.index; }

  IndexSnapshot snapshot_;
  DrimEngineOptions opts_;
  PimIndexData data_;
  SquareLut sq_lut_;
  std::unique_ptr<DataLayout> layout_;
  std::unique_ptr<PimPlatform> pim_;
  std::unique_ptr<RuntimeScheduler> scheduler_;
  /// Per-cluster heat driving the layout. Seeded from sample queries at
  /// construction; extended deterministically on splits (child inherits
  /// parent * child_fraction); replaced by observed traffic in
  /// replan_layout().
  std::vector<double> heat_;
  /// Cluster-visit counts observed by search_batch since the last re-layout.
  std::vector<std::uint64_t> probe_counts_;
  obs::TraceRecorder* trace_ = nullptr;  // not owned; may be null
  std::size_t sched_params_k_ = 0;     // k the Eq. 15 coefficients are derived for
  double index_load_seconds_ = 0.0;    // one-time static upload cost

  // MRAM geometry.
  std::size_t sq_lut_off_ = 0;
  std::size_t codebooks_off_ = 0;
  std::size_t codebooks_q4_off_ = 0;  // coarse q4 books (enable_q4 only)
  std::size_t centroids_off_ = 0;
  std::size_t staging_base_ = 0;  // identical on every DPU
  // Bytes of one staging slot: the region above staging_base_ split depth
  // ways and 8-byte aligned (one slot per in-flight step).
  std::size_t staging_stride_ = 0;
  // Per DPU: shard slots in kernel order; slot i of dpu d describes shard
  // dpu_shard_ids_[d][i].
  std::vector<std::vector<ShardRegion>> dpu_shard_regions_;
  std::vector<std::vector<std::uint32_t>> dpu_shard_ids_;
  std::vector<std::uint32_t> shard_slot_;  // global shard id -> slot on its DPU
  // One codeword list per (cluster, slice) of the current layout, rebuilt by
  // every load_static_data unless the slice's codes are unchanged;
  // ShardRegion::codewords points into it.
  struct ListedSlice {
    std::uint32_t cluster, begin, end;
  };
  std::vector<CodewordList> codeword_lists_;
  std::vector<ListedSlice> codeword_slices_;  // the slice each list covers
  std::vector<std::uint32_t> shard_list_;     // global shard id -> its list
};

}  // namespace drim
