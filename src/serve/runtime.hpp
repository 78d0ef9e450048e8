#pragma once
// The online serving runtime: an open-loop discrete-event simulation that
// drives an AnnBackend's streaming step API (enqueue / step) from a
// timestamped request trace on a virtual clock. Requests arrive, pass
// admission control (predicted queue delay vs the SLO budget), wait in the
// dynamic batcher, execute as one barrier-synchronized backend step, and
// complete — at most one step late when the inter-batch filter deferred some
// of their tasks: a step may defer only into a batch already waiting in the
// batcher, and never re-defers work an earlier step deferred (DESIGN.md §9).
// One event loop serves every backend, keeping up to pipeline_depth() steps
// in flight (depth 1 is a pipe with one slot). The loop is work-conserving:
// with no step in flight, whatever the batcher holds launches at once; while
// steps are in flight, a batch takes a free slot when the batcher's size or
// deadline trigger fires, so max_wait_s bounds only the wait behind in-flight
// steps. Each request leaves a RequestRecord with its full latency
// decomposition; run() returns them plus the aggregate ServeReport and the
// backend's accumulated search stats.

#include <cstddef>
#include <memory>
#include <vector>

#include "backend/ann_backend.hpp"
#include "core/mutable_index.hpp"
#include "drim/engine.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/update_workload.hpp"
#include "serve/workload.hpp"

namespace drim::serve {

/// Knobs of the serving loop. Filter deferral has none: a step flushes
/// unless a next batch is already waiting and the backend carries no
/// deferred work, which bounds every task's deferral to one step.
struct ServeParams {
  BatcherParams batcher;
  AdmissionParams admission;
  /// Host-side cost knobs for the two serving-only phases the closed-loop
  /// engine model folds into host overlap: greedy scheduling (per task) and
  /// top-k merging (per returned hit). Both overlap the PIM batch, like CL.
  double schedule_cost_per_task_s = 20e-9;
  double merge_cost_per_hit_s = 5e-9;
  /// EWMA weight of the newest observed batch time in the admission
  /// controller's queue-delay predictor (seeded from Eq. 15).
  double ewma_alpha = 0.25;
  /// Sample a MetricsSnapshot (queue depth, EWMA, shed rate, ...) into
  /// ServeResult::snapshots every this many virtual seconds (0 = off).
  /// Samples land on event boundaries, so the spacing is >= the period.
  double snapshot_period_s = 0.0;
};

/// Binds the mutable-index write path into the serving loop (DESIGN.md §14).
/// Every `publish_every_batches` backend steps run() publishes the writer's
/// pending mutations and stages the snapshot onto the backend — in between
/// steps, so serving never pauses. The install lands at the install instant
/// (the newest in-flight step's completion) and its modeled cost extends the
/// virtual timeline; every op that arrived by then is in the publish.
/// Queries batched before a publish are answered by the old version (the
/// backends flush before installing); queries that arrive by the install
/// instant, or later, see the new one. The counters are written back by
/// run().
struct UpdateStream {
  const UpdateTrace* trace = nullptr;  ///< ops + insert payloads (not owned)
  IndexWriter* writer = nullptr;       ///< mutable state (not owned)
  std::size_t publish_every_batches = 8;
  /// Every this many backend steps, re-plan the backend's layout from its
  /// observed probe traffic (0 = never). Runs after any due publish.
  std::size_t relayout_every_batches = 0;

  // ---- written back by run() ----
  std::size_t applied = 0;   ///< ops consumed off the trace
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  std::size_t publishes = 0;
  std::size_t relayouts = 0;
  double publish_seconds = 0.0;   ///< modeled install cost, summed
  double relayout_seconds = 0.0;  ///< modeled re-layout cost, summed
};

/// Everything run() produces.
struct ServeResult {
  std::vector<RequestRecord> records;  ///< one per request, trace order
  ServeReport report;
  BackendStats engine_stats;  ///< backend stats accumulated over every step
  std::size_t batches = 0;    ///< backend steps launched (incl. drain steps)
  double makespan_s = 0.0;    ///< virtual time of the last completion
  double ewma_batch_s = 0.0;  ///< final batch-time estimate
  /// Periodic state samples (empty unless snapshot_period_s > 0).
  std::vector<MetricsSnapshot> snapshots;
};

/// Binds a backend to a query pool (Request.query indexes its rows) and
/// replays traces against it. The backend and pool must outlive the runtime.
class ServingRuntime {
 public:
  ServingRuntime(AnnBackend& backend, const FloatMatrix& query_pool,
                 const ServeParams& params);
  /// Convenience: serve an existing DrimAnnEngine directly. Wraps it in an
  /// internally owned DrimBackend; the engine must outlive the runtime.
  ServingRuntime(DrimAnnEngine& engine, const FloatMatrix& query_pool,
                 const ServeParams& params);

  /// Replay one trace (must be sorted by arrival time, as generate_workload
  /// produces). Each call is an independent simulation: fresh virtual clock,
  /// fresh batcher/admission state, fresh backend stream state.
  ServeResult run(const std::vector<Request>& trace);

  const ServeParams& params() const { return params_; }
  AnnBackend& backend() { return backend_; }

  /// Attach (or detach, with nullptr) a trace recorder: run() emits serve-
  /// layer events (arrival/shed instants, per-step batch + schedule + merge
  /// spans, queue counters) and forwards the recorder to the backend so its
  /// device spans interleave on the same virtual clock. Not owned.
  void set_trace(obs::TraceRecorder* trace) {
    trace_ = trace;
    backend_.set_trace(trace);
  }

  /// Attach (or detach, with nullptr) an update stream: run() interleaves
  /// its ops and publishes with the search trace on the virtual clock. The
  /// stream (and its trace/writer) must outlive run(); requires a backend
  /// with supports_updates() when the stream has a writer.
  void set_update_stream(UpdateStream* updates) { updates_ = updates; }

 private:
  std::unique_ptr<AnnBackend> owned_backend_;  ///< compat-ctor wrapper only
  AnnBackend& backend_;
  const FloatMatrix& pool_;
  ServeParams params_;
  obs::TraceRecorder* trace_ = nullptr;      ///< not owned; may be null
  UpdateStream* updates_ = nullptr;          ///< not owned; may be null
};

}  // namespace drim::serve
