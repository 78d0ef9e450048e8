#include "measure/workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "common/stats.hpp"
#include "core/flat_search.hpp"
#include "core/mutable_index.hpp"
#include "data/recall.hpp"
#include "data/synthetic.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "support/metrics.hpp"
#include "support/timed_backend.hpp"

namespace perfbench {

using drim::serve::Request;

namespace {

// ---------------------------------------------------------------------------
// Fixed operating points. The offered rates, SLOs and batcher deadlines are
// absolute modeled numbers, derived once from the capacity this commit
// models for each configuration and then frozen: they are never
// recalibrated per run, so a modeled speedup shows as lower latency and a
// higher max_qps_at_slo instead of being absorbed into a rescaled load.
// Modeled numbers come from the simulator's cost model; the repository holds
// no hardware reference results, so no model error figure is given.
// ---------------------------------------------------------------------------

constexpr std::size_t kK = 10;

// The corpus (base, learn set and query pool) is a fixed part of each
// workload's definition, like a dataset file; --seed drives the traffic: the
// arrival times, which pool queries are hot, the per-request nprobe and the
// update ops. A seed changes what is asked, not what is indexed.
constexpr std::uint64_t kCorpusSeed = 20250;

struct BurstPoints {
  std::vector<double> ladder_qps{400, 500, 600, 650, 700, 750, 800};
  std::size_t nominal_rung = 0;
  std::size_t nominal_requests = 2000;
  std::size_t rung_requests = 2500;
  double slo_ms = 100.0;
  double max_wait_ms = 2.0;
  double burst_period_ms = 40.0;
  double burst_on_fraction = 0.25;
  std::size_t closed_loop_requests = 2048;
};

struct ClusterPoints {
  std::vector<std::size_t> windows{16, 32, 64, 128};
  std::size_t main_window = 64;
  std::size_t requests = 1536;
  double slo_ms = 20.0;
};

struct UpdatePoints {
  std::vector<double> ladder_qps{300, 400, 500, 600};
  std::size_t nominal_rung = 0;
  std::size_t nominal_requests = 3000;
  std::size_t rung_requests = 1500;
  double slo_ms = 45.0;
  double max_wait_ms = 2.0;
  double update_rate = 0.05;
  std::size_t closed_loop_requests = 1024;
};

const BurstPoints kBurst;
const ClusterPoints kCluster;
const UpdatePoints kUpdate;

// ---------------------------------------------------------------------------
// Shared pieces.
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Corpus {
  drim::SyntheticData data;
  std::vector<std::vector<drim::Neighbor>> gt;  ///< exact top-k per pool query
};

Corpus make_corpus(std::size_t num_base, std::size_t pool, std::size_t learn,
                   std::size_t components) {
  drim::SyntheticSpec spec;
  spec.num_base = num_base;
  spec.num_queries = pool;
  spec.num_learn = learn;
  spec.num_components = components;
  spec.seed = kCorpusSeed;
  Corpus c;
  c.data = drim::make_sift_like(spec);
  c.gt = drim::flat_search_all(c.data.base, c.data.queries, kK);
  return c;
}

struct IndexShape {
  std::size_t nlist = 64;
  std::size_t m = 16;
  std::size_t cb = 256;
};

std::uint32_t intern(SpanRecorder* spans, const char* name) {
  return spans ? spans->intern(name) : 0;
}

/// Timed set-up: train + add, each under its own span.
struct Trained {
  drim::IvfPqIndex index;
  double train_s = 0.0;
  double add_s = 0.0;
};

Trained train_and_add(const Corpus& c, const IndexShape& shape, SpanRecorder* spans) {
  drim::IvfPqParams p;
  p.nlist = shape.nlist;
  p.pq.m = shape.m;
  p.pq.cb_entries = shape.cb;
  p.pq.train_iters = 10;
  p.coarse_iters = 10;
  Trained t;
  double t0 = wall_now();
  {
    SpanRecorder::Scope s(spans, intern(spans, "core.train"));
    t.index.train(c.data.learn, p);
  }
  t.train_s = wall_now() - t0;
  t0 = wall_now();
  {
    SpanRecorder::Scope s(spans, intern(spans, "core.add"));
    t.index.add(c.data.base);
  }
  t.add_s = wall_now() - t0;
  return t;
}

std::vector<Request> make_requests(std::size_t pool, double qps, std::size_t n,
                                   drim::serve::ArrivalProcess arrivals, double skew,
                                   std::vector<std::uint32_t> nprobes,
                                   std::uint64_t seed) {
  drim::serve::WorkloadParams wp;
  wp.offered_qps = qps;
  wp.num_requests = n;
  wp.arrivals = arrivals;
  wp.burst_period_s = kBurst.burst_period_ms * 1e-3;
  wp.burst_on_fraction = kBurst.burst_on_fraction;
  wp.query_skew = skew;
  wp.k_choices = {static_cast<std::uint32_t>(kK)};
  wp.nprobe_choices = std::move(nprobes);
  wp.seed = seed;
  return drim::serve::generate_workload(pool, wp);
}

/// Closed loop of `window` concurrent clients: keep `window` requests
/// outstanding, step, harvest. A request's latency runs from the submit time
/// of the step that consumed it to the completion of the step that finished
/// it (both on the backend's modeled timeline).
struct ClosedLoop {
  std::vector<double> latency_s;
  std::vector<std::vector<drim::Neighbor>> results;
  double total_s = 0.0;     ///< backend stats total
  double step_sum_s = 0.0;  ///< sum of the steps' modeled seconds
};

ClosedLoop closed_loop(drim::AnnBackend& b, const drim::FloatMatrix& pool,
                       const std::vector<Request>& reqs, std::size_t window) {
  constexpr std::size_t kFlushEvery = 4;
  struct Open {
    std::uint32_t handle;
    std::size_t request;
    std::size_t step;
  };
  ClosedLoop out;
  out.latency_s.assign(reqs.size(), 0.0);
  out.results.resize(reqs.size());
  b.reset_stream();
  std::vector<Open> open;
  std::vector<double> submit;
  std::size_t next = 0;
  while (next < reqs.size() || !open.empty()) {
    while (open.size() < window && next < reqs.size()) {
      const Request& r = reqs[next];
      open.push_back({b.enqueue(pool.row(r.query), r.k, r.nprobe, r.precision), next,
                      submit.size()});
      ++next;
    }
    const bool flush = next == reqs.size() || (submit.size() + 1) % kFlushEvery == 0;
    const drim::BackendStepStats st = b.step(0, flush);
    submit.push_back(st.submit_seconds);
    out.step_sum_s += st.step_seconds;
    for (auto it = open.begin(); it != open.end();) {
      if (!b.finished(it->handle)) {
        ++it;
        continue;
      }
      out.latency_s[it->request] = st.complete_seconds - submit[it->step];
      out.results[it->request] = b.take_results(it->handle);
      it = open.erase(it);
    }
  }
  out.total_s = b.stats().total_seconds;
  return out;
}

double recall_of(const std::vector<std::vector<drim::Neighbor>>& results,
                 const std::vector<Request>& reqs,
                 const std::vector<std::vector<drim::Neighbor>>& gt) {
  std::vector<std::vector<drim::Neighbor>> truth;
  truth.reserve(reqs.size());
  for (const Request& r : reqs) truth.push_back(gt[r.query]);
  return drim::mean_recall_at_k(results, truth, kK);
}

bool same_answer(const std::vector<drim::Neighbor>& a,
                 const std::vector<drim::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dist != b[i].dist) return false;
  }
  return true;
}

/// Σ step seconds must equal the backend's modeled total (same additions,
/// so only rounding of a different summation order is tolerated).
void check_step_sum(double step_sum, double total, const char* what, Episode& ep) {
  if (std::abs(step_sum - total) > 1e-9 * std::max(1.0, std::abs(total))) {
    ep.errors.push_back(std::string(what) + ": sum of step seconds " +
                        std::to_string(step_sum) + " != backend total " +
                        std::to_string(total));
  }
}

/// Modeled per-layer numbers of the engine and its PIM array, from the
/// stats the engine returns (summed over `stats` when a workload has several
/// engines, e.g. one per shard).
void engine_values(const std::vector<const drim::DrimSearchStats*>& stats, Values& v) {
  double host_cl = 0, rerank = 0, tin = 0, tout = 0, busy = 0, energy = 0, load = 0;
  double tasks = 0, queries = 0, saved = 0, rd = 0, wr = 0, instr = 0, dma = 0;
  std::array<double, drim::kNumPhases> phase{};
  std::vector<double> per_dpu;
  for (const drim::DrimSearchStats* s : stats) {
    host_cl += s->host_cl_seconds;
    rerank += s->host_rerank_seconds;
    tin += s->transfer_in_seconds;
    tout += s->transfer_out_seconds;
    busy += s->dpu_busy_seconds;
    energy += s->energy_joules;
    load += s->index_load_seconds;
    tasks += static_cast<double>(s->tasks);
    queries = std::max(queries, static_cast<double>(s->queries));
    saved += static_cast<double>(s->dc_bytes_saved);
    for (std::size_t p = 0; p < drim::kNumPhases; ++p) {
      phase[p] += s->phase_dpu_seconds[p];
      const drim::PhaseCounters& c = s->counters.phases[p];
      rd += static_cast<double>(c.mram_bytes_read);
      wr += static_cast<double>(c.mram_bytes_written);
      instr += static_cast<double>(c.instr_cycles);
      dma += c.dma_cycles;
    }
    per_dpu.insert(per_dpu.end(), s->per_dpu_seconds.begin(), s->per_dpu_seconds.end());
  }
  const double q = std::max(queries, 1.0);
  v.emplace_back("drim.host_cl_s", host_cl);
  v.emplace_back("drim.host_rerank_s", rerank);
  v.emplace_back("drim.transfer_in_s", tin);
  v.emplace_back("drim.transfer_out_s", tout);
  v.emplace_back("drim.dpu_busy_s", busy);
  v.emplace_back("drim.tasks_per_query", tasks / q);
  v.emplace_back("drim.dc_bytes_saved", saved);
  v.emplace_back("drim.energy_j_per_query", energy / q);
  v.emplace_back("drim.index_load_s", load);
  for (std::size_t p = 0; p < drim::kNumPhases; ++p) {
    v.emplace_back("pim.phase_s." +
                       std::string(drim::phase_name(static_cast<drim::Phase>(p))),
                   phase[p]);
  }
  v.emplace_back("pim.mram_read_bytes", rd);
  v.emplace_back("pim.mram_write_bytes", wr);
  v.emplace_back("pim.instr_cycles", instr);
  v.emplace_back("pim.dma_cycles", dma);
  v.emplace_back("pim.dpu_imbalance", drim::imbalance_factor(per_dpu));
}

/// Modeled per-step numbers over every step the decorator saw.
void step_values(const TimedBackend& tb, Values& v) {
  std::vector<double> ms;
  double step = 0, exec = 0, host = 0;
  for (const drim::BackendStepStats& s : tb.steps()) {
    ms.push_back(s.step_seconds * 1e3);
    step += s.step_seconds;
    exec += s.exec_seconds;
    host += s.host_seconds;
  }
  const Tail t = tail_of(ms);
  v.emplace_back("backend.step_modeled_ms_p50", t.p50);
  v.emplace_back("backend.step_modeled_ms_p99", t.tail);
  v.emplace_back("backend.exec_share", step > 0 ? exec / step : 0.0);
  v.emplace_back("backend.host_share", step > 0 ? host / step : 0.0);
  double snap = 0, rel = 0;
  for (double c : tb.snapshot_costs()) snap += c;
  for (double c : tb.relayout_costs()) rel += c;
  v.emplace_back("backend.stage_snapshot_modeled_ms", snap * 1e3);
  v.emplace_back("backend.relayout_modeled_ms", rel * 1e3);
}

/// Host numbers from the decorator's spans (traced episodes).
void span_values(SpanRecorder& spans, Values& v) {
  auto scaled = [](std::vector<double> d, double f) {
    for (double& x : d) x *= f;
    return d;
  };
  std::vector<double> enq = spans.durations(spans.intern("backend.enqueue"));
  const std::vector<double> routed = spans.durations(spans.intern("backend.enqueue_routed"));
  enq.insert(enq.end(), routed.begin(), routed.end());
  const Tail e = tail_of(scaled(enq, 1e6));
  const Tail s = tail_of(scaled(spans.durations(spans.intern("backend.step")), 1e3));
  v.emplace_back("backend.enqueue_wall_us_p50", e.p50);
  v.emplace_back("backend.enqueue_wall_us_p99", e.tail);
  v.emplace_back("backend.step_wall_ms_p50", s.p50);
  v.emplace_back("backend.step_wall_ms_p99", s.tail);
  v.emplace_back("backend.take_wall_s", spans.total(spans.intern("backend.take_results")));
  v.emplace_back("backend.stage_snapshot_wall_s",
                 spans.total(spans.intern("backend.stage_snapshot")));
  v.emplace_back("backend.relayout_wall_s", spans.total(spans.intern("backend.stage_relayout")));
}

/// Self time of every span named `name`, summed.
double self_time_of(const SpanRecorder& spans, std::uint32_t name) {
  const std::vector<double> self = self_times(spans.spans());
  double sum = 0.0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (spans.spans()[i].name == name) sum += self[i];
  }
  return sum;
}

/// Runs set-up then the measured phase around `measure`, filling the
/// episode's timing, usage and the root spans "episode.setup" /
/// "episode.measure".
template <typename SetupFn, typename MeasureFn>
void timed_episode(Episode& ep, SpanRecorder* spans, SetupFn&& setup,
                   MeasureFn&& measure) {
  HostUsage u0 = host_usage_now();
  double t0 = wall_now();
  {
    SpanRecorder::Scope s(spans, intern(spans, "episode.setup"));
    setup();
  }
  ep.setup_s = wall_now() - t0;
  HostUsage u1 = host_usage_now();
  ep.setup_usage = u1.minus(u0);
  ep.rss_after_setup_mb = u1.max_rss_mb;
  t0 = wall_now();
  {
    SpanRecorder::Scope s(spans, intern(spans, "episode.measure"));
    measure();
  }
  ep.measure_s = wall_now() - t0;
  ep.measure_usage = host_usage_now().minus(u1);
}

/// Replay captured answers on a reference backend, in chunks of `chunk`
/// queries, and count those that differ bit for bit.
Check replay(drim::AnnBackend& ref, const std::vector<Answer>& answers, std::size_t dim,
             std::size_t chunk, const char* what) {
  Check c;
  ref.reset_stream();
  for (std::size_t begin = 0; begin < answers.size(); begin += chunk) {
    const std::size_t end = std::min(answers.size(), begin + chunk);
    std::vector<std::uint32_t> handles;
    for (std::size_t i = begin; i < end; ++i) {
      const Answer& a = answers[i];
      handles.push_back(ref.enqueue({a.query, dim}, a.k, a.nprobe, a.precision));
    }
    ref.step(0, true);
    while (ref.has_deferred()) ref.step(0, true);
    for (std::size_t i = begin; i < end; ++i) {
      ++c.checked;
      if (!same_answer(ref.take_results(handles[i - begin]), answers[i].results)) ++c.wrong;
    }
  }
  if (c.wrong > 0) {
    c.errors.push_back(std::to_string(c.wrong) + " of " + std::to_string(c.checked) +
                       " answers differ from the " + what);
  }
  return c;
}

/// One ladder rung's outcome from a serving run, with a note describing it.
Rung rung_of(const drim::serve::ServeResult& res, double rate, std::size_t max_batch,
             Episode& ep) {
  std::vector<double> ts, depth;
  for (const auto& snap : res.snapshots) {
    ts.push_back(snap.t_s);
    depth.push_back(static_cast<double>(snap.queue_depth));
  }
  Rung r;
  r.rate_qps = rate;
  r.attainment = static_cast<double>(res.report.served - res.report.slo_violations) /
                 static_cast<double>(res.report.offered);
  r.backlog_growing = backlog_growing(ts, depth, static_cast<double>(max_batch));
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rung %.0f qps: p50 %.3f ms, p99 %.3f ms, served %zu, shed %zu, degraded "
                "%zu, attainment %.4f, backlog %s",
                rate, res.report.p50_ms, res.report.p99_ms, res.report.served,
                res.report.shed, res.report.degraded, r.attainment,
                r.backlog_growing ? "growing" : "bounded");
  ep.notes.push_back(buf);
  return r;
}

/// Latency and serve-layer numbers of one serving run whose steps are
/// `steps` (the decorator's slice for that run).
void serve_values(const drim::serve::ServeResult& res,
                  std::span<const drim::BackendStepStats> steps, std::size_t max_batch,
                  Values& m) {
  std::vector<double> lat_ms, wait_ms;
  for (const auto& rec : res.records) {
    if (rec.shed) continue;
    lat_ms.push_back(rec.latency_s * 1e3);
    wait_ms.push_back(rec.queue_wait_s * 1e3);
  }
  const Tail lat = tail_of(lat_ms);
  const Tail wait = tail_of(wait_ms);
  const drim::serve::ServeReport& rep = res.report;
  m.emplace_back("goodput_qps", rep.goodput_qps);
  m.emplace_back("modeled_p50_ms", lat.p50);
  m.emplace_back("modeled_p99_ms", lat.tail);
  m.emplace_back("latency_samples", static_cast<double>(lat.samples));
  m.emplace_back("latency_tail_pct", lat.tail_percent);
  m.emplace_back("serve.queue_wait_p50_ms", wait.p50);
  m.emplace_back("serve.queue_wait_p99_ms", wait.tail);
  double fill = 0.0, deferred = 0.0;
  for (const drim::BackendStepStats& st : steps) {
    fill += static_cast<double>(st.fresh_queries) / static_cast<double>(max_batch);
    deferred += static_cast<double>(st.deferred);
  }
  const double n = std::max<double>(1.0, static_cast<double>(steps.size()));
  m.emplace_back("serve.batch_fill", fill / n);
  m.emplace_back("serve.deferred_tasks_per_step", deferred / n);
  m.emplace_back("serve.shed", static_cast<double>(rep.shed));
  m.emplace_back("serve.degraded", static_cast<double>(rep.degraded));
  m.emplace_back("serve.slo_violations", static_cast<double>(rep.slo_violations));
}

/// Recall of captured answers against the exact ground truth of their pool
/// rows.
double recall_of_answers(std::span<const Answer> answers, const drim::FloatMatrix& pool,
                         const std::vector<std::vector<drim::Neighbor>>& gt) {
  if (answers.empty()) return 0.0;
  double sum = 0.0;
  for (const Answer& a : answers) {
    const std::size_t row = static_cast<std::size_t>(a.query - pool.data()) / pool.dim();
    sum += drim::recall_at_k(a.results, gt[row], kK);
  }
  return sum / static_cast<double>(answers.size());
}

drim::DrimEngineOptions single_node_options(std::size_t dpus, std::size_t depth) {
  drim::DrimEngineOptions o;
  o.pim.num_dpus = dpus;
  o.layout.split_threshold = 2048;
  o.layout.dup_fraction = 0.25;
  o.heat_nprobe = 16;
  o.batch_size = 32;
  o.pipeline_depth = depth;
  o.platform = drim::PimPlatformKind::kSim;
  return o;
}

// ---------------------------------------------------------------------------
// serve-burst-sim: open-loop ON-OFF bursts with Zipf query skew and mixed
// nprobe through ServingRuntime on one simulated node at pipeline depth 2,
// with the q4 rung and degrade-before-shed admission.
// ---------------------------------------------------------------------------

class ServeBurstSim final : public Workload {
 public:
  explicit ServeBurstSim(std::uint64_t seed)
      : corpus_(make_corpus(20'000, 256, 4'000, 32)),
        opts_(single_node_options(16, 2)) {
    opts_.enable_q4 = true;
    const std::size_t pool = corpus_.data.queries.count();
    for (std::size_t i = 0; i < kBurst.ladder_qps.size(); ++i) {
      const std::size_t n =
          i == kBurst.nominal_rung ? kBurst.nominal_requests : kBurst.rung_requests;
      rungs_.push_back(make_requests(pool, kBurst.ladder_qps[i], n,
                                     drim::serve::ArrivalProcess::kOnOff, 1.0, {8, 16, 24},
                                     seed * 1000 + i));
    }
    closed_ = make_requests(pool, 1.0, kBurst.closed_loop_requests,
                            drim::serve::ArrivalProcess::kPoisson, 1.0, {8, 16, 24},
                            seed * 1000 + 999);
  }

  Episode run_episode(SpanRecorder* spans, drim::obs::TraceRecorder* vtrace) override {
    Episode ep;
    Trained t;
    std::unique_ptr<drim::DrimBackend> backend;
    double ctor_s = 0.0;
    timed_episode(
        ep, spans,
        [&] {
          t = train_and_add(corpus_, IndexShape{}, spans);
          const double t0 = wall_now();
          SpanRecorder::Scope s(spans, intern(spans, "drim.backend_ctor"));
          backend = std::make_unique<drim::DrimBackend>(t.index, corpus_.data.learn, opts_);
          ctor_s = wall_now() - t0;
        },
        [&] { measure(ep, *backend, spans, vtrace); });
    ep.host.emplace_back("core.train_wall_s", t.train_s);
    ep.host.emplace_back("core.add_wall_s", t.add_s);
    ep.host.emplace_back("drim.engine_ctor_wall_s", ctor_s);
    backend.reset();
    if (index_ == nullptr) index_ = std::make_unique<drim::IvfPqIndex>(std::move(t.index));
    return ep;
  }

  Check check() override {
    // The independent host-exact path: the same engine on the analytic
    // platform, whose answers come from a host ADC scan instead of the
    // simulated DPU kernels. Every served answer must match it bit for bit
    // at the rung it was served at.
    drim::DrimEngineOptions ref_opts = opts_;
    ref_opts.platform = drim::PimPlatformKind::kAnalytic;
    drim::DrimBackend ref(*index_, corpus_.data.learn, ref_opts);
    Check c = replay(ref, answers_, corpus_.data.queries.dim(), opts_.batch_size,
                     "host-exact analytic replay");
    c.offered = offered_;
    c.shed = shed_;
    return c;
  }

 private:
  void measure(Episode& ep, drim::DrimBackend& backend, SpanRecorder* spans,
               drim::obs::TraceRecorder* vtrace) {
    TimedBackend tb(backend);
    tb.set_spans(spans);
    tb.set_capture(true);
    drim::serve::ServeParams sp;
    sp.batcher.max_batch = opts_.batch_size;
    sp.batcher.max_wait_s = kBurst.max_wait_ms * 1e-3;
    sp.admission.enabled = true;
    sp.admission.slo_s = kBurst.slo_ms * 1e-3;
    sp.admission.degrade_to_q4 = true;
    sp.snapshot_period_s = kBurst.slo_ms * 1e-3;
    drim::serve::ServingRuntime rt(tb, corpus_.data.queries, sp);
    rt.set_trace(vtrace);
    const std::uint32_t run_name = intern(spans, "serve.run");
    ep.notes.push_back("estimate full batch at nprobe 24: " +
                       std::to_string(1e3 * backend.estimate_batch_seconds(
                                                opts_.batch_size, 24, kK)) + " ms");

    std::vector<Rung> ladder;
    double step_sum = 0.0, total = 0.0;
    Values& m = ep.modeled;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      const std::size_t step0 = tb.steps().size();
      const std::size_t answer0 = tb.answers().size();
      drim::serve::ServeResult res;
      {
        SpanRecorder::Scope s(spans, run_name, i);
        res = rt.run(rungs_[i]);
      }
      ep.requests += rungs_[i].size();
      const std::span<const drim::BackendStepStats> steps(tb.steps().data() + step0,
                                                          tb.steps().size() - step0);
      for (const auto& st : steps) step_sum += st.step_seconds;
      total += res.engine_stats.total_seconds;
      ladder.push_back(rung_of(res, kBurst.ladder_qps[i], sp.batcher.max_batch, ep));
      if (res.report.served + res.report.shed != res.report.offered) {
        ep.errors.push_back("serve: served + shed != offered");
      }
      if (i != kBurst.nominal_rung) continue;
      const std::span<const Answer> served(tb.answers().data() + answer0,
                                           tb.answers().size() - answer0);
      m.emplace_back("recall_at_10",
                     recall_of_answers(served, corpus_.data.queries, corpus_.gt));
      m.emplace_back("failed_frac", failed_fraction(res.report.offered, res.report.shed, 0));
      serve_values(res, steps, sp.batcher.max_batch, m);
      engine_values({&backend.engine_stats()}, m);
      offered_ = res.report.offered;
      shed_ = res.report.shed;
    }
    check_step_sum(step_sum, total, "serve ladder", ep);
    m.emplace_back("max_qps_at_slo", max_rate_at_slo(ladder));

    // Closed loop at full precision: the modeled capacity.
    ClosedLoop cl;
    {
      SpanRecorder::Scope s(spans, intern(spans, "closed_loop"));
      cl = closed_loop(tb, corpus_.data.queries, closed_, opts_.batch_size);
    }
    ep.requests += closed_.size();
    check_step_sum(cl.step_sum_s, cl.total_s, "closed loop", ep);
    m.emplace_back("modeled_qps", static_cast<double>(closed_.size()) / cl.total_s);
    step_values(tb, m);

    if (answers_.empty()) answers_ = tb.answers();
    if (spans != nullptr) {
      span_values(*spans, ep.traced);
      ep.traced.emplace_back("serve.self_wall_s", self_time_of(*spans, run_name));
    }
  }

  Corpus corpus_;
  drim::DrimEngineOptions opts_;
  std::vector<std::vector<Request>> rungs_;
  std::vector<Request> closed_;
  std::unique_ptr<drim::IvfPqIndex> index_;  ///< first episode's, for check()
  std::vector<Answer> answers_;              ///< first episode's
  std::size_t offered_ = 0, shed_ = 0;
};

// ---------------------------------------------------------------------------
// cluster-zipf-analytic: a closed-loop Zipf(1.0) stream through a 4-shard
// ClusterBackend on the analytic platform, at a ladder of client windows.
// ---------------------------------------------------------------------------

class ClusterZipfAnalytic final : public Workload {
 public:
  explicit ClusterZipfAnalytic(std::uint64_t seed)
      : corpus_(make_corpus(50'000, 512, 8'000, 64)) {
    opts_.pim.num_dpus = 128;  // per shard
    opts_.layout.split_threshold = 64;
    opts_.layout.dup_fraction = 0.25;
    opts_.heat_nprobe = 16;
    opts_.batch_size = kCluster.windows.back();
    opts_.fuse_width = 4;
    opts_.platform = drim::PimPlatformKind::kAnalytic;
    copts_.num_shards = 4;
    copts_.replication_fraction = 0.10;
    reqs_ = make_requests(corpus_.data.queries.count(), 1.0, kCluster.requests,
                          drim::serve::ArrivalProcess::kPoisson, 1.0, {16}, seed * 1000);
  }

  Episode run_episode(SpanRecorder* spans, drim::obs::TraceRecorder* vtrace) override {
    Episode ep;
    Trained t;
    std::unique_ptr<drim::AnnBackend> backend;
    double ctor_s = 0.0;
    timed_episode(
        ep, spans,
        [&] {
          t = train_and_add(corpus_, IndexShape{128, 16, 64}, spans);
          const double t0 = wall_now();
          SpanRecorder::Scope s(spans, intern(spans, "cluster.make_cluster_backend"));
          backend = drim::cluster::make_cluster_backend(drim::BackendKind::kDrim, t.index,
                                                        corpus_.data.learn, opts_, copts_);
          ctor_s = wall_now() - t0;
        },
        [&] { measure(ep, *backend, spans, vtrace); });
    ep.host.emplace_back("core.train_wall_s", t.train_s);
    ep.host.emplace_back("core.add_wall_s", t.add_s);
    ep.host.emplace_back("drim.engine_ctor_wall_s", ctor_s);
    backend.reset();
    if (index_ == nullptr) index_ = std::make_unique<drim::IvfPqIndex>(std::move(t.index));
    return ep;
  }

  Check check() override {
    // A plain single-node backend over the whole index answers every query
    // the sharded router answered; the router's merge must reproduce it.
    drim::DrimBackend ref(*index_, corpus_.data.learn, opts_);
    Check c = replay(ref, answers_, corpus_.data.queries.dim(), kCluster.main_window,
                     "single-node replay");
    c.offered = kCluster.requests * kCluster.windows.size();
    return c;
  }

 private:
  void measure(Episode& ep, drim::AnnBackend& backend, SpanRecorder* spans,
               drim::obs::TraceRecorder* vtrace) {
    auto* cluster = dynamic_cast<drim::cluster::ClusterBackend*>(&backend);
    if (cluster == nullptr) throw std::logic_error("expected a ClusterBackend");
    TimedBackend tb(backend);
    tb.set_spans(spans);
    tb.set_capture(true);
    tb.set_trace(vtrace);
    Values& m = ep.modeled;
    std::vector<Rung> ladder;
    for (const std::size_t window : kCluster.windows) {
      const std::size_t step0 = tb.steps().size();
      ClosedLoop cl;
      {
        SpanRecorder::Scope s(spans, intern(spans, "closed_loop"), window);
        cl = closed_loop(tb, corpus_.data.queries, reqs_, window);
      }
      ep.requests += reqs_.size();
      check_step_sum(cl.step_sum_s, cl.total_s, "cluster closed loop", ep);
      const double slo = kCluster.slo_ms * 1e-3;
      const auto good = static_cast<double>(
          std::count_if(cl.latency_s.begin(), cl.latency_s.end(),
                        [&](double l) { return l <= slo; }));
      Rung r;
      r.rate_qps = static_cast<double>(reqs_.size()) / cl.total_s;
      r.attainment = good / static_cast<double>(reqs_.size());
      ladder.push_back(r);
      {
        std::vector<double> l_ms;
        for (double l : cl.latency_s) l_ms.push_back(l * 1e3);
        const Tail lt = tail_of(l_ms);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "window %zu: %.1f qps, p50 %.4f ms, p99 %.4f ms, attainment %.4f",
                      window, r.rate_qps, lt.p50, lt.tail, r.attainment);
        ep.notes.push_back(buf);
      }
      if (window != kCluster.main_window) continue;
      std::vector<double> lat_ms;
      for (double l : cl.latency_s) lat_ms.push_back(l * 1e3);
      const Tail lat = tail_of(lat_ms);
      m.emplace_back("recall_at_10", recall_of(cl.results, reqs_, corpus_.gt));
      m.emplace_back("modeled_qps", r.rate_qps);
      m.emplace_back("goodput_qps", good / cl.total_s);
      m.emplace_back("modeled_p50_ms", lat.p50);
      m.emplace_back("modeled_p99_ms", lat.tail);
      m.emplace_back("latency_samples", static_cast<double>(lat.samples));
      m.emplace_back("latency_tail_pct", lat.tail_percent);
      m.emplace_back("failed_frac", failed_fraction(reqs_.size(), 0, 0));
      std::vector<const drim::DrimSearchStats*> engines;
      for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
        const auto* shard = dynamic_cast<const drim::DrimBackend*>(&cluster->shard(s));
        if (shard != nullptr) engines.push_back(&shard->engine_stats());
      }
      engine_values(engines, m);
      std::vector<double> busy, dispatched;
      double fallback = 0.0;
      for (const drim::ShardHealth& h : cluster->shard_health()) {
        busy.push_back(h.busy_seconds);
        dispatched.push_back(static_cast<double>(h.dispatched_tasks));
        fallback += static_cast<double>(h.fallback_tasks);
      }
      m.emplace_back("cluster.shard_busy_imbalance", drim::imbalance_factor(busy));
      m.emplace_back("cluster.dispatch_imbalance", drim::imbalance_factor(dispatched));
      m.emplace_back("cluster.fallback_tasks", fallback);
      if (spans != nullptr) {
        std::vector<double> step_ms;
        const std::uint32_t step_name = spans->intern("backend.step");
        for (const Span& sp : spans->spans()) {
          if (sp.name == step_name && sp.id >= step0) step_ms.push_back(sp.seconds() * 1e3);
        }
        const Tail w = tail_of(step_ms);
        ep.traced.emplace_back("cluster.step_wall_ms_p50", w.p50);
        ep.traced.emplace_back("cluster.step_wall_ms_p99", w.tail);
      }
    }
    std::sort(ladder.begin(), ladder.end(),
              [](const Rung& a, const Rung& b) { return a.rate_qps < b.rate_qps; });
    m.emplace_back("max_qps_at_slo", max_rate_at_slo(ladder));
    step_values(tb, m);
    tb.set_trace(nullptr);
    if (answers_.empty()) answers_ = tb.answers();
    if (spans != nullptr) span_values(*spans, ep.traced);
  }

  Corpus corpus_;
  drim::DrimEngineOptions opts_;
  drim::cluster::ClusterOptions copts_;
  std::vector<Request> reqs_;
  std::unique_ptr<drim::IvfPqIndex> index_;
  std::vector<Answer> answers_;
};

// ---------------------------------------------------------------------------
// update-mix-sim: an open-loop Poisson search stream with ~5% inserts and
// deletes interleaved, publishing every 4 steps and re-laying out every 16,
// on one simulated node at pipeline depth 1 with admission off.
// ---------------------------------------------------------------------------

class UpdateMixSim final : public Workload {
 public:
  explicit UpdateMixSim(std::uint64_t seed)
      : corpus_(make_corpus(20'000, 256, 4'000, 32)),
        opts_(single_node_options(16, 1)) {
    const std::size_t pool = corpus_.data.queries.count();
    drim::serve::UpdateWorkloadParams up;
    up.update_rate = kUpdate.update_rate;
    up.insert_fraction = 0.5;
    up.delete_skew = 0.8;
    for (std::size_t i = 0; i < kUpdate.ladder_qps.size(); ++i) {
      const std::size_t n =
          i == kUpdate.nominal_rung ? kUpdate.nominal_requests : kUpdate.rung_requests;
      searches_.push_back(make_requests(pool, kUpdate.ladder_qps[i], n,
                                        drim::serve::ArrivalProcess::kPoisson, 0.0, {16},
                                        seed * 1000 + i));
      up.seed = seed * 1000 + 500 + i;
      updates_.push_back(drim::serve::generate_update_trace(
          searches_.back(), corpus_.data.learn, corpus_.data.base.count(), up));
    }
    // Exact ground truth over the live set the nominal rung ends with.
    drim::serve::UpdateOracle oracle(corpus_.data.base.to_float());
    for (const auto& op : updates_[kUpdate.nominal_rung].ops) {
      oracle.apply(op, updates_[kUpdate.nominal_rung].insert_vectors);
    }
    for (std::size_t q = 0; q < pool; ++q) {
      final_gt_.push_back(oracle.topk(corpus_.data.queries.row(q), kK));
    }
    final_reqs_ = make_requests(pool, 1.0, kUpdate.closed_loop_requests,
                                drim::serve::ArrivalProcess::kPoisson, 0.0, {16},
                                seed * 1000 + 999);
  }

  Episode run_episode(SpanRecorder* spans, drim::obs::TraceRecorder* vtrace) override {
    Episode ep;
    Trained t;
    std::vector<std::unique_ptr<drim::DrimBackend>> backends;
    double ctor_s = 0.0;
    timed_episode(
        ep, spans,
        [&] {
          t = train_and_add(corpus_, IndexShape{}, spans);
          const double t0 = wall_now();
          // One backend per ladder rung: each rung mutates its own index.
          for (std::size_t i = 0; i < kUpdate.ladder_qps.size(); ++i) {
            SpanRecorder::Scope s(spans, intern(spans, "drim.backend_ctor"), i);
            backends.push_back(
                std::make_unique<drim::DrimBackend>(t.index, corpus_.data.learn, opts_));
          }
          ctor_s = wall_now() - t0;
        },
        [&] { measure(ep, t.index, backends, spans, vtrace); });
    ep.host.emplace_back("core.train_wall_s", t.train_s);
    ep.host.emplace_back("core.add_wall_s", t.add_s);
    ep.host.emplace_back("drim.engine_ctor_wall_s", ctor_s);
    return ep;
  }

  Check check() override {
    // The checks are counts made in every episode (see measure()); what
    // remains here is the offered/shed tally of the nominal rung.
    Check c;
    c.offered = offered_;
    c.shed = shed_;
    return c;
  }

 private:
  void measure(Episode& ep, const drim::IvfPqIndex& index,
               std::vector<std::unique_ptr<drim::DrimBackend>>& backends,
               SpanRecorder* spans, drim::obs::TraceRecorder* vtrace) {
    drim::serve::ServeParams sp;
    sp.batcher.max_batch = opts_.batch_size;
    sp.batcher.max_wait_s = kUpdate.max_wait_ms * 1e-3;
    sp.admission.enabled = false;
    sp.admission.slo_s = kUpdate.slo_ms * 1e-3;
    sp.snapshot_period_s = kUpdate.slo_ms * 1e-3;
    drim::WriterParams wp;
    wp.split_threshold = 4 * index.ntotal() / index.nlist();
    const std::uint32_t run_name = intern(spans, "serve.run");
    Values& m = ep.modeled;
    std::vector<Rung> ladder;
    std::vector<double> snapshot_modeled;
    for (std::size_t i = 0; i < kUpdate.ladder_qps.size(); ++i) {
      TimedBackend tb(*backends[i]);
      tb.set_spans(spans);
      drim::serve::ServingRuntime rt(tb, corpus_.data.queries, sp);
      drim::IndexWriter writer(index, wp);
      drim::serve::UpdateStream us;
      us.trace = &updates_[i];
      us.writer = &writer;
      us.publish_every_batches = 4;
      us.relayout_every_batches = 16;
      rt.set_update_stream(&us);
      const bool nominal = i == kUpdate.nominal_rung;
      rt.set_trace(nominal ? vtrace : nullptr);
      drim::serve::ServeResult res;
      {
        SpanRecorder::Scope s(spans, run_name, i);
        res = rt.run(searches_[i]);
      }
      rt.set_trace(nullptr);
      ep.requests += searches_[i].size();
      double step_sum = 0.0;
      for (const auto& st : tb.steps()) step_sum += st.step_seconds;
      check_step_sum(step_sum, res.engine_stats.total_seconds, "update run", ep);
      ladder.push_back(rung_of(res, kUpdate.ladder_qps[i], sp.batcher.max_batch, ep));
      const std::string rung = "update rung " + std::to_string(i) + ": ";
      if (res.report.served + res.report.shed != res.report.offered) {
        ep.errors.push_back(rung + "served + shed != offered");
      }
      if (us.applied != updates_[i].ops.size()) {
        ep.errors.push_back(rung + std::to_string(us.applied) + " of " +
                            std::to_string(updates_[i].ops.size()) + " ops applied");
      }
      if (tb.snapshot_version() != us.publishes) {
        ep.errors.push_back(rung + "snapshot version " +
                            std::to_string(tb.snapshot_version()) + " != publishes " +
                            std::to_string(us.publishes));
      }
      if (!nominal) continue;
      offered_ = res.report.offered;
      shed_ = res.report.shed;
      m.emplace_back("failed_frac", failed_fraction(res.report.offered, res.report.shed, 0));
      serve_values(res, tb.steps(), sp.batcher.max_batch, m);
      engine_values({&backends[i]->engine_stats()}, m);
      m.emplace_back("core.ops_applied", static_cast<double>(us.applied));
      m.emplace_back("core.publishes", static_cast<double>(us.publishes));
      m.emplace_back("core.publish_modeled_ms", us.publish_seconds * 1e3);
      step_values(tb, m);

      // Publish what the last steps left pending, then measure the final
      // live set closed-loop: capacity and recall against the exact top-k
      // of that live set. One warm pass and a re-layout first, so capacity
      // reads the final index under a layout planned from a full pass of
      // traffic, not from whichever 16 steps the last periodic re-layout saw.
      if (writer.dirty()) {
        drim::PublishDelta delta;
        const drim::IndexSnapshot snap = writer.publish(&delta);
        tb.stage_snapshot(snap, delta);
      }
      ClosedLoop cl;
      {
        SpanRecorder::Scope s(spans, intern(spans, "closed_loop"));
        closed_loop(tb, corpus_.data.queries, final_reqs_, opts_.batch_size);
        tb.stage_relayout();
        cl = closed_loop(tb, corpus_.data.queries, final_reqs_, opts_.batch_size);
      }
      ep.requests += 2 * final_reqs_.size();
      check_step_sum(cl.step_sum_s, cl.total_s, "final closed loop", ep);
      m.emplace_back("modeled_qps", static_cast<double>(final_reqs_.size()) / cl.total_s);
      m.emplace_back("recall_at_10", recall_of(cl.results, final_reqs_, final_gt_));
    }
    m.emplace_back("max_qps_at_slo", max_rate_at_slo(ladder));
    if (spans != nullptr) {
      span_values(*spans, ep.traced);
      ep.traced.emplace_back("serve.self_wall_s", self_time_of(*spans, run_name));
    }
  }

  Corpus corpus_;
  drim::DrimEngineOptions opts_;
  std::vector<std::vector<Request>> searches_;
  std::vector<drim::serve::UpdateTrace> updates_;
  std::vector<Request> final_reqs_;
  std::vector<std::vector<drim::Neighbor>> final_gt_;
  std::size_t offered_ = 0, shed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve-burst-sim") return std::make_unique<ServeBurstSim>(seed);
  if (name == "cluster-zipf-analytic") return std::make_unique<ClusterZipfAnalytic>(seed);
  if (name == "update-mix-sim") return std::make_unique<UpdateMixSim>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
