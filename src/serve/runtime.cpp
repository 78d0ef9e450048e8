#include "serve/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "backend/drim_backend.hpp"

namespace drim::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate_params(const ServeParams& params) {
  if (params.batcher.max_batch == 0) {
    throw std::invalid_argument("ServeParams: batcher.max_batch must be > 0");
  }
  if (!(params.ewma_alpha > 0.0) || params.ewma_alpha > 1.0) {
    throw std::invalid_argument("ServeParams: ewma_alpha must be in (0, 1]");
  }
}

}  // namespace

ServingRuntime::ServingRuntime(AnnBackend& backend, const FloatMatrix& query_pool,
                               const ServeParams& params)
    : backend_(backend), pool_(query_pool), params_(params) {
  validate_params(params_);
}

ServingRuntime::ServingRuntime(DrimAnnEngine& engine, const FloatMatrix& query_pool,
                               const ServeParams& params)
    : owned_backend_(std::make_unique<DrimBackend>(engine)),
      backend_(*owned_backend_),
      pool_(query_pool),
      params_(params) {
  validate_params(params_);
}

ServeResult ServingRuntime::run(const std::vector<Request>& trace) {
  ServeResult result;
  result.records.resize(trace.size());

  std::uint32_t max_k = 1;
  std::uint32_t max_nprobe = 1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& req = trace[i];
    if (i > 0 && req.arrival_s < trace[i - 1].arrival_s) {
      throw std::invalid_argument("ServingRuntime: trace must be sorted by arrival");
    }
    if (req.id != i) {
      throw std::invalid_argument(
          "ServingRuntime: request ids must be the trace positions 0..n-1");
    }
    if (req.query >= pool_.count()) {
      throw std::invalid_argument("ServingRuntime: request query id out of pool");
    }
    if (req.k == 0 || req.nprobe == 0) {
      throw std::invalid_argument("ServingRuntime: request k and nprobe must be > 0");
    }
    result.records[i].request = req;
    max_k = std::max(max_k, req.k);
    max_nprobe = std::max(max_nprobe, req.nprobe);
  }
  if (updates_ != nullptr && updates_->writer != nullptr) {
    if (!backend_.supports_updates()) {
      throw std::invalid_argument(
          "ServingRuntime: backend '" + backend_.name() +
          "' does not support index updates");
    }
    if (updates_->trace == nullptr) {
      throw std::invalid_argument("ServingRuntime: update stream has no trace");
    }
    // Each run() is an independent simulation; the write-back counters
    // restart with it.
    updates_->applied = 0;
    updates_->inserts = 0;
    updates_->deletes = 0;
    updates_->publishes = 0;
    updates_->relayouts = 0;
    updates_->publish_seconds = 0.0;
    updates_->relayout_seconds = 0.0;
  }

  if (trace.empty()) {
    result.report = summarize(result.records, params_.admission.slo_s);
    return result;
  }

  const std::size_t depth = backend_.pipeline_depth();
  DynamicBatcher batcher(params_.batcher);
  AdmissionController admission(params_.admission);
  backend_.reset_stream();

  // Seed the batch-time predictor with the Eq. 15 open-loop estimate for a
  // full-size batch at the trace's deepest (k, nprobe) — the stage sum at
  // depth 1, the steady-state step pace (the bottleneck stage) when the
  // backend pipelines; observed step intervals then pull the EWMA toward the
  // actual (skew-inflated) pace.
  double ewma = backend_.estimate_batch_seconds(params_.batcher.max_batch, max_nprobe,
                                                max_k);

  double now = 0.0;
  // Completion time of the newest launched step (monotone: the backend's
  // timeline never completes a later batch before an earlier one).
  double last_complete = 0.0;
  // Modeled completion times of launched steps still in the future; its size
  // (after dropping elapsed entries) is the in-flight count that gates
  // launches at `depth`. Depth 1 is a pipe with one slot.
  std::deque<double> inflight_steps;
  std::size_t next_arrival = 0;
  // Backend handle -> trace index, for the live (launched, maybe deferred)
  // requests whose completion we still have to observe.
  std::unordered_map<std::uint32_t, std::size_t> inflight;
  // Observed tasks-per-fresh-query ratio (EWMA), used to convert the
  // backend's deferred-task backlog into query-equivalents for admission.
  // Seeded at the trace's deepest nprobe: every fresh query spawns at least
  // nprobe tasks, so the seed under-counts and only tightens as steps land.
  double tasks_per_query = static_cast<double>(max_nprobe);

  const bool tracing = trace_ != nullptr;
  std::uint32_t req_lane = 0, batch_lane = 0, sched_lane = 0, merge_lane = 0;
  if (tracing) {
    req_lane = trace_->lane("serve/requests");
    batch_lane = trace_->lane("serve/batch");
    sched_lane = trace_->lane("host/schedule");
    merge_lane = trace_->lane("host/merge");
    trace_->set_now(0.0);
  }

  // Admission decision at the request's own arrival instant: the wait until
  // the *newest* in-flight step completes (a new request's batch cannot
  // complete before everything already in the pipe) plus the backlog's worth
  // of batches at the EWMA batch time. The backlog counts the queued
  // requests AND the backend's carried deferred tasks (as query-equivalents
  // at the observed tasks-per-query ratio) — without the deferred term,
  // hot-shard skew makes predictions systematically optimistic and the SLO
  // shed threshold fires too late.
  auto process_arrival = [&](const Request& req) {
    const double residual = std::max(0.0, last_complete - req.arrival_s);
    const std::size_t deferred_tasks = backend_.deferred_count();
    const std::size_t deferred_queries =
        deferred_tasks == 0
            ? 0
            : static_cast<std::size_t>(
                  std::ceil(static_cast<double>(deferred_tasks) / tasks_per_query));
    const std::size_t backlog = batcher.depth() + 1 + deferred_queries;
    const std::size_t backlog_batches =
        (backlog + params_.batcher.max_batch - 1) / params_.batcher.max_batch;
    const double predicted =
        residual + static_cast<double>(backlog_batches) * ewma;
    // Cheap-rung prediction: the residual (already-launched work) is sunk;
    // only the backlog's batches would run degraded.
    const double predicted_degraded =
        residual + static_cast<double>(backlog_batches) * ewma *
                       params_.admission.degrade_cost_ratio;
    const AdmissionDecision decision =
        admission.decide(predicted, predicted_degraded);
    if (decision != AdmissionDecision::kShed) {
      Request admitted = req;
      if (decision == AdmissionDecision::kDegrade) {
        admitted.precision = Precision::kQ4;
        result.records[req.id].degraded = true;
        result.records[req.id].request.precision = Precision::kQ4;
      }
      batcher.enqueue(admitted, req.arrival_s);
      if (tracing) {
        trace_->instant(
            req_lane,
            decision == AdmissionDecision::kDegrade ? "degrade" : "arrive",
            "serve", req.arrival_s,
            {{"id", static_cast<double>(req.id)},
             {"predicted_ms", predicted * 1e3}});
      }
    } else {
      result.records[req.id].shed = true;
      if (tracing) {
        trace_->instant(req_lane, "shed", "serve", req.arrival_s,
                        {{"id", static_cast<double>(req.id)},
                         {"predicted_ms", predicted * 1e3}});
      }
    }
  };

  auto admit_arrivals = [&](double upto) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival_s <= upto) {
      process_arrival(trace[next_arrival]);
      ++next_arrival;
    }
  };

  // ---- mutable-index hooks (no-ops without an update stream) ----
  std::size_t next_update = 0;
  // Apply every update op that arrived by `upto`. Writer-only: the backend
  // keeps serving its installed snapshot until a publish.
  auto apply_updates = [&](double upto) {
    if (updates_ == nullptr || updates_->writer == nullptr) return;
    const auto& ops = updates_->trace->ops;
    while (next_update < ops.size() && ops[next_update].arrival_s <= upto) {
      const UpdateOp& op = ops[next_update];
      if (op.kind == UpdateKind::kInsert) {
        updates_->writer->insert(updates_->trace->insert_vectors.row(op.target));
        ++updates_->inserts;
      } else {
        updates_->writer->erase(op.target);
        ++updates_->deletes;
      }
      ++updates_->applied;
      ++next_update;
    }
  };
  // Requests an install flushed to completion get their records closed at
  // the install instant (their decomposition fields stay as the last step
  // left them: the flush is maintenance, not a normal serving step).
  auto sweep_completions = [&](double at) {
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (!backend_.finished(it->first)) {
        ++it;
        continue;
      }
      RequestRecord& rec = result.records[it->second];
      rec.done_s = at;
      rec.latency_s = at - rec.request.arrival_s;
      rec.results = backend_.take_results(it->first).size();
      it = inflight.erase(it);
    }
  };
  // Between-step maintenance, run after every launch: publish the writer's
  // pending mutations and/or re-plan the layout when their cadences come
  // due. The backends flush before swapping, so an install drains the pipe
  // and lands at the install instant — the newest in-flight completion —
  // with its modeled cost extending the timeline from there. Every op and
  // every search arrival up to that instant is taken in first: the ops make
  // the publish, the searches queue behind it and see the new version.
  std::size_t last_maintenance_batches = 0;
  auto maybe_publish = [&] {
    if (updates_ == nullptr || updates_->writer == nullptr) return;
    double at = std::max(now, last_complete);
    // No publish lands before `at`, so writing these ops now is invisible.
    apply_updates(at);
    if (result.batches == last_maintenance_batches) return;
    const bool pub_due = updates_->publish_every_batches > 0 &&
                         result.batches % updates_->publish_every_batches == 0;
    const bool rel_due = updates_->relayout_every_batches > 0 &&
                         result.batches % updates_->relayout_every_batches == 0;
    if (!pub_due && !rel_due) return;
    last_maintenance_batches = result.batches;
    const bool publish = pub_due && updates_->writer->dirty();
    if (!publish && !rel_due) return;
    admit_arrivals(at);
    if (tracing) trace_->set_now(at);
    if (publish) {
      PublishDelta delta;
      const IndexSnapshot snap = updates_->writer->publish(&delta);
      const double cost = backend_.stage_snapshot(snap, delta);
      updates_->publish_seconds += cost;
      ++updates_->publishes;
      at += cost;
    }
    if (rel_due) {
      const double cost = backend_.stage_relayout();
      updates_->relayout_seconds += cost;
      ++updates_->relayouts;
      at += cost;
    }
    now = at;
    last_complete = at;
    inflight_steps.clear();  // the install's flush drained the pipe
    if (tracing) trace_->set_now(at);
    sweep_completions(at);
  };

  double next_snapshot = 0.0;
  auto maybe_snapshot = [&](bool force = false) {
    if (params_.snapshot_period_s <= 0.0) return;
    if (!force && now < next_snapshot) return;
    MetricsSnapshot s;
    s.t_s = now;
    s.queue_depth = batcher.depth();
    s.inflight = inflight.size();
    s.deferred_tasks = backend_.deferred_count();
    s.ewma_batch_s = ewma;
    s.admitted = admission.admitted();
    s.shed = admission.shed();
    s.degraded = admission.degraded();
    const std::size_t seen = s.admitted + s.shed;
    s.shed_rate = seen > 0 ? static_cast<double>(s.shed) / static_cast<double>(seen)
                           : 0.0;
    s.batches = result.batches;
    s.shards = backend_.shard_health();  // empty unless a cluster backend
    result.snapshots.push_back(s);
    if (tracing) {
      trace_->counter("serve/queue", now,
                      {{"depth", static_cast<double>(s.queue_depth)},
                       {"inflight", static_cast<double>(s.inflight)},
                       {"deferred_tasks", static_cast<double>(s.deferred_tasks)}});
      trace_->counter("serve/ewma_batch_ms", now, {{"ewma", ewma * 1e3}});
      trace_->counter("serve/shed_rate", now, {{"rate", s.shed_rate}});
      if (!s.shards.empty()) {
        std::vector<obs::TraceArg> queue_series, busy_series;
        for (const ShardHealth& h : s.shards) {
          const std::string key = "shard" + std::to_string(h.shard);
          queue_series.emplace_back(key, static_cast<double>(h.queue_tasks));
          busy_series.emplace_back(key, h.busy_seconds * 1e3);
        }
        trace_->counter("serve/shard_queue", now, std::move(queue_series));
        trace_->counter("serve/shard_busy_ms", now, std::move(busy_series));
      }
    }
    next_snapshot = now + params_.snapshot_period_s;
  };

  // Launch one backend step at `now`. Execution is synchronous (results and
  // completion sets are final when step() returns) but the modeled
  // completion lands in the future on the backend's timeline; the
  // serve-layer host costs (schedule + merge, plus the overlapped host CL)
  // extend it, since host work is serial across steps.
  auto launch_step = [&](std::size_t fresh_count, bool flush) {
    if (tracing) trace_->set_now(now);
    backend_.set_step_start(now);
    const BackendStepStats step = backend_.step(fresh_count, flush);

    // Bill the host merge by the k of the requests this step actually
    // completed: only completed requests return hit lists to merge, so a
    // deep-k straggler deferred across steps does not inflate the merge time
    // of every later mixed-k batch.
    std::uint64_t completed_k_sum = 0;
    std::size_t completed = 0;
    for (const auto& [handle, idx] : inflight) {
      if (!backend_.finished(handle)) continue;
      completed_k_sum += result.records[idx].request.k;
      ++completed;
    }
    const double mean_completed_k =
        completed > 0 ? static_cast<double>(completed_k_sum) /
                            static_cast<double>(completed)
                      : 0.0;
    const double schedule_s = params_.schedule_cost_per_task_s *
                              static_cast<double>(step.tasks);
    const double merge_s = params_.merge_cost_per_hit_s *
                           static_cast<double>(step.tasks) * mean_completed_k;
    double complete = std::max(
        step.complete_seconds,
        now + step.pre_seconds + step.host_seconds + schedule_s + merge_s);
    complete = std::max(complete, last_complete);
    // Steady-state step interval: what this step added to the timeline.
    const double interval = complete - std::max(last_complete, now);
    last_complete = complete;
    inflight_steps.push_back(complete);
    ++result.batches;
    ewma += params_.ewma_alpha * (interval - ewma);
    if (step.fresh_queries > 0) {
      const double observed = static_cast<double>(step.tasks) /
                              static_cast<double>(step.fresh_queries);
      tasks_per_query += params_.ewma_alpha * (observed - tasks_per_query);
      if (tasks_per_query < 1.0) tasks_per_query = 1.0;
    }

    if (tracing) {
      trace_->span(batch_lane, "step", "serve", now, complete - now,
                   {{"fresh", static_cast<double>(step.fresh_queries)},
                    {"tasks", static_cast<double>(step.tasks)},
                    {"deferred", static_cast<double>(step.deferred)},
                    {"completed", static_cast<double>(completed)},
                    {"inflight_steps", static_cast<double>(inflight_steps.size())}});
      if (schedule_s > 0.0) {
        trace_->span(sched_lane, "schedule", "host", now + step.pre_seconds,
                     schedule_s, {{"tasks", static_cast<double>(step.tasks)}});
      }
      if (merge_s > 0.0) {
        trace_->span(merge_lane, "merge", "host", complete - merge_s, merge_s,
                     {{"mean_k", mean_completed_k}});
      }
    }

    // Completions: stamped with this step's modeled completion (the results
    // themselves are final now — only the timestamps are in the future).
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (!backend_.finished(it->first)) {
        ++it;
        continue;
      }
      RequestRecord& rec = result.records[it->second];
      rec.done_s = complete;
      rec.latency_s = complete - rec.request.arrival_s;
      rec.host_cl_s = step.host_seconds + step.pre_seconds;
      rec.schedule_s = schedule_s;
      rec.pim_s = step.exec_seconds;
      rec.merge_s = merge_s;
      rec.results = backend_.take_results(it->first).size();
      it = inflight.erase(it);
    }

    maybe_publish();
  };

  while (next_arrival < trace.size() || !batcher.empty() || !inflight.empty()) {
    maybe_snapshot();
    // Retire steps whose modeled completion has passed; what remains is the
    // in-flight window.
    while (!inflight_steps.empty() && inflight_steps.front() <= now) {
      inflight_steps.pop_front();
    }
    const bool no_more_arrivals = next_arrival >= trace.size();
    const bool can_launch = inflight_steps.size() < depth;

    // Work-conserving launch: with no step in flight the DPU array is idle,
    // so whatever the batcher holds goes now. The size and deadline triggers
    // act while steps are in flight (a free slot at depth >= 2), and once
    // the trace is exhausted nothing is worth waiting for.
    if (can_launch && !batcher.empty() &&
        (inflight_steps.empty() || batcher.ready(now) || no_more_arrivals)) {
      std::vector<Request> batch = batcher.take_batch();
      for (const Request& req : batch) {
        const std::uint32_t handle =
            backend_.enqueue(pool_.row(req.query), req.k, req.nprobe, req.precision);
        inflight.emplace(handle, static_cast<std::size_t>(req.id));
        result.records[req.id].queue_wait_s = now - req.arrival_s;
      }
      // Defer only into a batch that is already waiting: with the batcher
      // empty there is no next batch to carry tasks into, and work the last
      // step deferred must not be deferred again. So no task waits more than
      // one step past the step that took its query.
      const bool flush = batcher.empty() || backend_.has_deferred();
      launch_step(batch.size(), flush);
      continue;
    }

    // Advance to the next event: an arrival, the batcher's deadline (only
    // actionable while a pipeline slot is free — with the pipe full, an
    // already-expired deadline would pin the clock), or the oldest in-flight
    // step's completion (which frees a slot, and empties the pipe at
    // depth 1).
    double next_event = can_launch ? batcher.deadline_s() : kInf;
    if (!no_more_arrivals) {
      next_event = std::min(next_event, trace[next_arrival].arrival_s);
    }
    if (!inflight_steps.empty()) {
      next_event = std::min(next_event, inflight_steps.front());
    }
    if (next_event == kInf) break;
    now = std::max(now, next_event);
    admit_arrivals(now);
  }

  now = std::max(now, last_complete);  // drain the pipe's tail
  maybe_snapshot(/*force=*/true);
  result.makespan_s = now;
  result.ewma_batch_s = ewma;
  result.engine_stats = backend_.stats();
  result.report = summarize(result.records, params_.admission.slo_s);
  return result;
}

}  // namespace drim::serve
