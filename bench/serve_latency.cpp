// Online serving benchmark: tail latency and goodput vs offered load.
//
// Builds the SIFT-like index, calibrates the backend's batch service rate
// with a streaming warm-up sweep (enqueue the query pool, step it through in
// serve-sized batches), then replays open-loop Poisson traces at multiples of
// that capacity through the serving runtime (dynamic batching + admission
// control). The left table (admission off) shows the classic open-loop
// saturation curve: p99 rises sharply once offered load passes the service
// capacity. The right table (admission on) shows load shedding holding
// goodput near peak instead of collapsing.
//
// `--backend {drim,cpu}` and `--platform {sim,analytic}` pick the search
// stack; every combination runs the same runtime and trace generator.
// `--pipeline-depth D` sets the engine's in-flight step window for the
// saturation sweep (default 1 = serial, matching the classic open-loop
// curve; the p99-monotonicity self-check only applies there, since a deeper
// pipeline legitimately flattens the latency/load curve near capacity). A
// separate depth-sweep section always compares the depth-1 and depth-2
// backend totals on a transfer-heavy streaming run and records the speedup.
// On the unsharded drim backend, an adaptive-precision section additionally
// compares shed-only vs degrade-to-q4 admission at the overload point on a
// ladder-enabled engine (recall-vs-goodput: see bench/precision_ladder).
// `--shards N` (with `--shard-replication F`) serves from an N-shard cluster
// tier (drim backend only): the whole sweep runs unchanged behind the
// ShardRouter, so saturation and admission behavior are directly comparable
// against the single-node run.
// `--smoke` shrinks the corpus and trace so the run finishes in seconds and
// self-checks invariants; ctest runs it under the `serve` label on the cpu
// backend and both drim platforms. `--check-against FILE` compares the run to
// a previously written BENCH_serve_latency.json of the same configuration
// and fails if the 0.5x load's p50 or p99 rises, or the 1.5x admission-on
// goodput falls, by more than 15%. Writes BENCH_serve_latency.json.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "backend/backend_factory.hpp"
#include "cluster/cluster_backend.hpp"
#include "common/stats.hpp"
#include "serve/runtime.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;
using namespace drim::serve;

namespace {

struct LoadPoint {
  double multiplier = 0.0;
  ServeReport report;
};

void print_report_row(double mult, double offered_qps, const ServeReport& r) {
  std::printf("%5.2fx %9.0f | %6zu %6zu %5.1f%% | %8.3f %8.3f %8.3f | %9.0f %7.1f%%\n",
              mult, offered_qps, r.served, r.shed, 100.0 * r.shed_rate, r.p50_ms,
              r.p95_ms, r.p99_ms, r.goodput_qps, 100.0 * r.timeout_rate);
}

void print_header() {
  std::printf("%5s %9s | %6s %6s %6s | %8s %8s %8s | %9s %8s\n", "load",
              "offered", "served", "shed", "shed%", "p50 ms", "p95 ms", "p99 ms",
              "goodput", "timeout%");
  print_rule(92);
}

void add_report_metrics(BenchReport& report, const ServeReport& r, double offered_qps) {
  report.add_metric("offered_qps", offered_qps);
  report.add_metric("served", static_cast<double>(r.served));
  report.add_metric("shed", static_cast<double>(r.shed));
  report.add_metric("p50_ms", r.p50_ms);
  report.add_metric("p95_ms", r.p95_ms);
  report.add_metric("p99_ms", r.p99_ms);
  report.add_metric("goodput_qps", r.goodput_qps);
  report.add_metric("timeout_rate", r.timeout_rate);
}

/// Calibrate the service rate through the streaming API: enqueue the whole
/// pool, step it through in serve-sized batches (flushing the tail), and take
/// the mean modeled batch time. Exercises the same enqueue/step path the
/// runtime drives, on any backend.
double calibrate_batch_seconds(AnnBackend& backend, const FloatMatrix& pool,
                               std::size_t k, std::size_t nprobe,
                               std::size_t batch) {
  backend.reset_stream();
  std::vector<std::uint32_t> handles;
  handles.reserve(pool.count());
  for (std::size_t q = 0; q < pool.count(); ++q) {
    handles.push_back(backend.enqueue(pool.row(q), k, nprobe));
  }
  std::size_t stepped = 0;
  while (stepped < pool.count()) {
    const std::size_t take = std::min(batch, pool.count() - stepped);
    backend.step(take, /*flush=*/stepped + take == pool.count());
    stepped += take;
  }
  while (backend.has_deferred()) backend.step(0, /*flush=*/true);
  for (std::uint32_t h : handles) (void)backend.take_results(h);
  const double mean_s = mean(backend.stats().batch_seconds);
  backend.reset_stream();
  return mean_s;
}

/// Stream the whole pool through the step API in small batches and return the
/// backend's modeled total (the step timeline's makespan; one staging slot
/// at depth 1). Small batches make the run transfer-heavy — many steps
/// whose host-link transfers a deeper pipeline can overlap with compute.
double stream_total_seconds(AnnBackend& backend, const FloatMatrix& pool,
                            std::size_t k, std::size_t nprobe, std::size_t batch) {
  backend.reset_stream();
  std::vector<std::uint32_t> handles;
  handles.reserve(pool.count());
  for (std::size_t q = 0; q < pool.count(); ++q) {
    handles.push_back(backend.enqueue(pool.row(q), k, nprobe));
  }
  std::size_t stepped = 0;
  while (stepped < pool.count()) {
    const std::size_t take = std::min(batch, pool.count() - stepped);
    backend.step(take, /*flush=*/stepped + take == pool.count());
    stepped += take;
  }
  while (backend.has_deferred()) backend.step(0, /*flush=*/true);
  for (std::uint32_t h : handles) (void)backend.take_results(h);
  const double total_s = backend.stats().total_seconds;
  backend.reset_stream();
  return total_s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t num_requests = 2048;
  std::size_t pipeline_depth = 1;
  std::size_t num_shards = 1;
  double shard_replication = 0.10;
  BackendKind backend_kind = BackendKind::kDrim;
  PimPlatformKind platform = PimPlatformKind::kSim;
  std::string check_against;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      check_against = argv[++i];
    }
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      num_requests = std::strtoul(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--pipeline-depth") == 0 && i + 1 < argc) {
      pipeline_depth = std::strtoul(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend_kind = parse_backend_kind(argv[++i]);
    }
    if (std::strcmp(argv[i], "--platform") == 0 && i + 1 < argc) {
      platform = parse_pim_platform(argv[++i]);
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      num_shards = std::strtoul(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--shard-replication") == 0 && i + 1 < argc) {
      shard_replication = std::strtod(argv[++i], nullptr);
    }
  }

  BenchScale scale;
  std::size_t nlist = 128;
  if (smoke) {
    scale.num_base = 20'000;
    scale.num_queries = 64;
    scale.num_learn = 4'000;
    scale.num_dpus = 16;
    nlist = 32;
    num_requests = 512;
  }
  const std::size_t nprobe = 16;
  configure_host_threads(scale.threads);

  ServeParams sp;
  sp.batcher.max_batch = 32;

  DrimEngineOptions opts = default_engine_options(scale, nprobe);
  opts.batch_size = sp.batcher.max_batch;  // calibration uses serve batches
  opts.platform = platform;
  opts.pipeline_depth = pipeline_depth;
  CpuBackendOptions cpu_opts;
  cpu_opts.platform = scaled_cpu_platform(scale.num_dpus);

  std::printf("serve_latency — open-loop tail latency vs offered load (%s)\n",
              smoke ? "smoke" : "full");

  const BenchData bench = make_sift_bench(scale);
  const IvfPqIndex index = build_index(bench, nlist);
  std::unique_ptr<AnnBackend> backend;
  if (num_shards > 1) {
    // Cluster tier: the sweep runs unchanged over the router (routed steps
    // are cross-shard barriers, so the pipelined depth applies per shard).
    cluster::ClusterOptions copts;
    copts.num_shards = num_shards;
    copts.replication_fraction = shard_replication;
    backend = cluster::make_cluster_backend(backend_kind, index, bench.data.learn,
                                            opts, copts, cpu_opts);
  } else {
    backend = make_backend(backend_kind, index, bench.data.learn, opts, cpu_opts);
  }

  std::printf("backend=%s, N=%zu, pool=%zu queries, %zu DPUs, nlist=%zu, "
              "nprobe=%zu, k=%zu, %zu requests per point\n",
              backend->name().c_str(), scale.num_base, scale.num_queries,
              scale.num_dpus, nlist, nprobe, scale.k, num_requests);

  // Calibrate capacity through the streaming step API at the serving batch
  // size: the mean modeled batch time sets the service rate the sweep is
  // scaled to.
  const double mean_batch_s = calibrate_batch_seconds(
      *backend, bench.data.queries, scale.k, nprobe, sp.batcher.max_batch);
  const double capacity_qps =
      static_cast<double>(sp.batcher.max_batch) / mean_batch_s;
  // A request that finds the pipe busy may wait one batch time for a slot
  // (cheap when a batch costs that long anyway); the SLO allows that wait
  // plus a few batches of queue.
  sp.batcher.max_wait_s = mean_batch_s;
  sp.admission.slo_s = sp.batcher.max_wait_s + 6.0 * mean_batch_s;
  // Shed conservatively: the queue-delay predictor can't see batch-time
  // variance or a deferral's extra step, so admitting right up to the SLO
  // line would let much of the queue finish just past it.
  sp.admission.headroom = 0.6;
  std::printf("calibrated: mean batch %.3f ms -> capacity ~%.0f qps, "
              "max wait %.3f ms, SLO %.3f ms\n",
              mean_batch_s * 1e3, capacity_qps, sp.batcher.max_wait_s * 1e3,
              sp.admission.slo_s * 1e3);

  BenchReport report("serve_latency");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("backend", backend->name());
  report.set_config("num_base", scale.num_base);
  report.set_config("num_dpus", scale.num_dpus);
  report.set_config("nlist", nlist);
  report.set_config("nprobe", nprobe);
  report.set_config("k", scale.k);
  report.set_config("requests_per_point", num_requests);
  report.set_config("max_batch", sp.batcher.max_batch);
  report.set_config("mean_batch_s", mean_batch_s);
  report.set_config("capacity_qps", capacity_qps);

  ServingRuntime runtime(*backend, bench.data.queries, sp);

  WorkloadParams wp;
  wp.num_requests = num_requests;
  wp.query_skew = 0.5;
  wp.k_choices = {static_cast<std::uint32_t>(scale.k)};
  wp.nprobe_choices = {static_cast<std::uint32_t>(nprobe)};

  const std::vector<double> multipliers =
      smoke ? std::vector<double>{0.5, 1.5}
            : std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0};

  bool ok = true;
  double prev_p99 = 0.0;
  std::vector<LoadPoint> no_admit;
  // The regression gate's three figures (see --check-against).
  double light_p50_ms = 0.0, light_p99_ms = 0.0, overload_admit_goodput = 0.0;

  print_title("Open loop, admission OFF — saturation curve");
  print_header();
  for (double mult : multipliers) {
    wp.offered_qps = mult * capacity_qps;
    const std::vector<Request> trace =
        generate_workload(bench.data.queries.count(), wp);
    ServeParams p = sp;
    p.admission.enabled = false;
    ServeResult res = ServingRuntime(*backend, bench.data.queries, p).run(trace);
    print_report_row(mult, wp.offered_qps, res.report);
    no_admit.push_back({mult, res.report});
    char label[64];
    std::snprintf(label, sizeof(label), "no_admission x%.2f", mult);
    report.add_row(label);
    add_report_metrics(report, res.report, wp.offered_qps);
    ok = ok && res.report.served + res.report.shed == res.report.offered;
    ok = ok && res.report.shed == 0;  // admission off never sheds
    if (mult == 0.5) {
      light_p50_ms = res.report.p50_ms;
      light_p99_ms = res.report.p99_ms;
    }
    // Acceptance: latency is monotone in offered load (small tolerance for
    // batching artifacts at low load). Serial only — a deeper pipeline
    // overlaps transfers with compute and legitimately flattens the curve.
    if (pipeline_depth <= 1) {
      ok = ok && res.report.p99_ms >= prev_p99 * 0.95;
    }
    prev_p99 = res.report.p99_ms;
  }

  print_title("Open loop, admission ON — shedding holds goodput");
  print_header();
  double peak_goodput = 0.0;
  double overload_goodput = 0.0;
  for (double mult : multipliers) {
    wp.offered_qps = mult * capacity_qps;
    const std::vector<Request> trace =
        generate_workload(bench.data.queries.count(), wp);
    ServeResult res = runtime.run(trace);
    print_report_row(mult, wp.offered_qps, res.report);
    char label[64];
    std::snprintf(label, sizeof(label), "admission x%.2f", mult);
    report.add_row(label);
    add_report_metrics(report, res.report, wp.offered_qps);
    ok = ok && res.report.served + res.report.shed == res.report.offered;
    peak_goodput = std::max(peak_goodput, res.report.goodput_qps);
    if (mult == 1.5) overload_admit_goodput = res.report.goodput_qps;
    if (mult == multipliers.back()) overload_goodput = res.report.goodput_qps;
  }

  print_rule(92);
  std::printf("admission at %.2fx overload keeps goodput at %.0f/%.0f qps "
              "(%.0f%% of peak)\n",
              multipliers.back(), overload_goodput, peak_goodput,
              peak_goodput > 0 ? 100.0 * overload_goodput / peak_goodput : 0.0);
  // Acceptance: shedding keeps goodput within 10% of the sweep's peak even
  // past saturation.
  ok = ok && overload_goodput >= 0.9 * peak_goodput;

  // Adaptive precision at the overload point: on a ladder-enabled backend
  // (drim only — the cpu baseline has no ladder and would silently ignore
  // the rung), degrade-before-shed admission serves predicted SLO violators
  // on the q4 rung instead of rejecting them. Recall-vs-goodput: degraded
  // requests trade recall for staying admitted, so goodput can only improve.
  if (backend_kind == BackendKind::kDrim && num_shards == 1) {
    print_title("Adaptive precision — degrade-to-q4 vs shed-only at overload");
    DrimEngineOptions l_opts = opts;
    l_opts.enable_q4 = true;
    std::unique_ptr<AnnBackend> ladder =
        make_backend(backend_kind, index, bench.data.learn, l_opts, cpu_opts);
    wp.offered_qps = multipliers.back() * capacity_qps;
    const std::vector<Request> trace =
        generate_workload(bench.data.queries.count(), wp);
    std::printf("%10s | %6s %6s %8s | %9s | %8s\n", "policy", "served", "shed",
                "degraded", "goodput", "timeout%");
    print_rule(64);
    double shed_goodput = 0.0, degrade_goodput = 0.0;
    for (const bool degrade : {false, true}) {
      ServeParams p = sp;
      p.admission.degrade_to_q4 = degrade;
      ServeResult res = ServingRuntime(*ladder, bench.data.queries, p).run(trace);
      std::printf("%10s | %6zu %6zu %8zu | %9.0f | %7.1f%%\n",
                  degrade ? "degrade" : "shed-only", res.report.served,
                  res.report.shed, res.report.degraded, res.report.goodput_qps,
                  100.0 * res.report.timeout_rate);
      report.add_row(degrade ? "adaptive_degrade" : "adaptive_shed_only");
      add_report_metrics(report, res.report, wp.offered_qps);
      report.add_metric("degraded", static_cast<double>(res.report.degraded));
      ok = ok && res.report.served + res.report.shed == res.report.offered;
      (degrade ? degrade_goodput : shed_goodput) = res.report.goodput_qps;
    }
    // Acceptance: degrading instead of shedding never loses goodput.
    ok = ok && degrade_goodput >= shed_goodput;
  }

  print_title("Pipelined execution — depth sweep (streaming, small batches)");
  std::printf("%6s | %12s | %8s\n", "depth", "total ms", "speedup");
  print_rule(34);
  // Transfer-heavy streaming run: small step batches mean many host-link
  // transfers for a deeper pipeline to hide behind DPU compute.
  const std::size_t sweep_batch = 8;
  double serial_total_s = 0.0;
  double depth2_total_s = 0.0;
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    DrimEngineOptions d_opts = opts;
    d_opts.batch_size = sweep_batch;
    d_opts.pipeline_depth = depth;
    std::unique_ptr<AnnBackend> swept =
        make_backend(backend_kind, index, bench.data.learn, d_opts, cpu_opts);
    const double total_s = stream_total_seconds(*swept, bench.data.queries,
                                                scale.k, nprobe, sweep_batch);
    if (depth == 1) serial_total_s = total_s;
    if (depth == 2) depth2_total_s = total_s;
    std::printf("%6zu | %12.3f | %7.2fx\n", depth, total_s * 1e3,
                total_s > 0.0 ? serial_total_s / total_s : 1.0);
  }
  const double pipeline_speedup =
      depth2_total_s > 0.0 ? serial_total_s / depth2_total_s : 1.0;
  report.add_row("pipeline_depth_sweep");
  report.add_metric("serial_total_s", serial_total_s);
  report.add_metric("depth2_total_s", depth2_total_s);
  report.add_metric("pipeline_speedup", pipeline_speedup);
  std::printf("depth-2 pipelining: %.2fx over serial on the streaming run\n",
              pipeline_speedup);
  // Acceptance: overlap can only help the modeled makespan (the CPU backend
  // has no separable transfer stage, so there the totals are just equal).
  ok = ok && depth2_total_s <= serial_total_s * (1.0 + 1e-9);

  report.write();

  if (!check_against.empty()) {
    struct Gate {
      const char* row;
      const char* metric;
      double value;
      bool ceiling;  ///< true: may not rise >15%; false: may not fall >15%
    };
    const Gate gates[] = {
        {"no_admission x0.50", "p50_ms", light_p50_ms, true},
        {"no_admission x0.50", "p99_ms", light_p99_ms, true},
        {"admission x1.50", "goodput_qps", overload_admit_goodput, false},
    };
    for (const Gate& g : gates) {
      const double baseline = read_baseline_metric(check_against, g.row, g.metric);
      if (baseline <= 0.0) {
        std::fprintf(stderr, "FAIL: could not read %s of '%s' from %s\n", g.metric,
                     g.row, check_against.c_str());
        return 1;
      }
      const double bound = (g.ceiling ? 1.15 : 0.85) * baseline;
      const bool pass = g.ceiling ? g.value <= bound : g.value >= bound;
      std::printf("regression gate: %s %s %.3f vs baseline %.3f (%s %.3f)%s\n", g.row,
                  g.metric, g.value, baseline, g.ceiling ? "ceiling" : "floor", bound,
                  pass ? "" : " FAILED");
      ok = ok && pass;
    }
  }

  if (!ok) {
    std::printf("FAILED: serving invariants violated (see rows above)\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
