// Precision-ladder bench (quantization ladder, DESIGN.md §15): the three
// contracts of the 4-bit rung, self-checked and recorded.
//
//   1. Full-rung bit-identity: building the engine with the ladder enabled
//      (enable_q4) and serving every query at full precision returns the
//      SAME ids, distances, AND modeled times as an engine without the
//      ladder, on BOTH platforms (sim and analytic). The ladder is free
//      until a query asks for the cheap rung.
//   2. Q4 rung: the packed 4-bit path is >= 1.5x the full rung's modeled
//      qps at measurably lower recall, with sim and analytic bit-identical
//      to each other (results and charges — the charge-twin contract holds
//      on the new kernel phases too).
//   3. Degrade-before-shed: at overload, admission control that degrades
//      predicted SLO violators to the cheap rung (instead of shedding them)
//      holds goodput at or above the shed-only policy with zero timeouts on
//      the same trace.
//
// `--smoke` shrinks the corpus so ctest/CI finishes in seconds;
// `--check-against FILE` compares the q4 speedup to a previously written
// BENCH_precision_ladder.json and fails on a >15% regression. Writes
// BENCH_precision_ladder.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/drim_backend.hpp"
#include "core/precision.hpp"
#include "data/recall.hpp"
#include "drim/engine.hpp"
#include "serve/runtime.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

using Results = std::vector<std::vector<Neighbor>>;

bool identical(const Results& a, const Results& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) return false;
    }
  }
  return true;
}

struct RungRun {
  Results results;
  double modeled_seconds = 0.0;
  double rerank_seconds = 0.0;
  double recall = 0.0;
};

RungRun run_rung(const BenchData& bench, const IvfPqIndex& index,
                 const DrimEngineOptions& opts, std::size_t k, std::size_t nprobe,
                 Precision rung) {
  DrimAnnEngine engine(index, bench.data.learn, opts);
  DrimSearchStats stats;
  RungRun out;
  out.results = engine.search(bench.data.queries, k, nprobe, &stats, rung);
  out.modeled_seconds = stats.total_seconds;
  out.rerank_seconds = stats.host_rerank_seconds;
  out.recall = mean_recall_at_k(out.results, bench.ground_truth, k);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string check_against;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      check_against = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--check-against FILE]\n", argv[0]);
      return 2;
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
  }
  const std::size_t nprobe = 16;
  const std::size_t k = scale.k;
  configure_host_threads(scale.threads);

  print_title("precision_ladder: 4-bit rung vs full precision (" +
              std::string(smoke ? "smoke" : "full") + ")");
  const BenchData bench = make_sift_bench(scale);
  const IvfPqIndex index = build_index(bench, nlist);
  std::printf("N=%zu, %zu queries, %zu DPUs, nlist=%zu, nprobe=%zu, k=%zu\n",
              scale.num_base, scale.num_queries, scale.num_dpus, nlist, nprobe, k);

  BenchReport report("precision_ladder");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("num_base", scale.num_base);
  report.set_config("num_dpus", scale.num_dpus);
  report.set_config("nlist", nlist);
  report.set_config("nprobe", nprobe);
  report.set_config("k", k);

  bool ok = true;

  // ---- 1. Full-rung bit-identity: the ladder is free until used ----------
  print_title("Full-rung bit-identity (ladder on, every query at full)");
  std::printf("%10s | %10s | %12s | %8s\n", "platform", "identical", "modeled ms",
              "recall");
  print_rule(52);
  for (PimPlatformKind platform :
       {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    DrimEngineOptions opts = default_engine_options(scale, nprobe);
    opts.platform = platform;
    opts.enable_q4 = false;
    const RungRun off = run_rung(bench, index, opts, k, nprobe, Precision::kFull);
    opts.enable_q4 = true;
    const RungRun on = run_rung(bench, index, opts, k, nprobe, Precision::kFull);
    const bool same = identical(off.results, on.results) &&
                      off.modeled_seconds == on.modeled_seconds &&
                      on.rerank_seconds == 0.0;
    const std::string pname = pim_platform_name(platform);
    std::printf("%10s | %10s | %12.3f | %8.4f\n", pname.c_str(),
                same ? "yes" : "NO", on.modeled_seconds * 1e3, on.recall);
    report.add_row("full_rung_identity_" + pname);
    report.add_metric("identical", same ? 1.0 : 0.0);
    report.add_metric("modeled_seconds", on.modeled_seconds);
    report.add_metric("recall", on.recall);
    ok = ok && same;
  }

  // ---- 2. Q4 rung: speedup, recall, and the charge twin ------------------
  print_title("Q4 rung — packed 4-bit codes + host exact-rerank tail");
  DrimEngineOptions ladder_opts = default_engine_options(scale, nprobe);
  ladder_opts.enable_q4 = true;
  ladder_opts.platform = PimPlatformKind::kSim;
  const RungRun full_sim =
      run_rung(bench, index, ladder_opts, k, nprobe, Precision::kFull);
  const RungRun q4_sim = run_rung(bench, index, ladder_opts, k, nprobe, Precision::kQ4);
  ladder_opts.platform = PimPlatformKind::kAnalytic;
  const RungRun q4_ana = run_rung(bench, index, ladder_opts, k, nprobe, Precision::kQ4);

  const double full_qps =
      static_cast<double>(scale.num_queries) / full_sim.modeled_seconds;
  const double q4_qps = static_cast<double>(scale.num_queries) / q4_sim.modeled_seconds;
  const double q4_speedup = q4_qps / full_qps;
  const bool twins = identical(q4_sim.results, q4_ana.results) &&
                     q4_sim.modeled_seconds == q4_ana.modeled_seconds;
  std::printf("%6s | %12s | %10s | %8s\n", "rung", "modeled ms", "qps", "recall");
  print_rule(48);
  std::printf("%6s | %12.3f | %10.0f | %8.4f\n", "full",
              full_sim.modeled_seconds * 1e3, full_qps, full_sim.recall);
  std::printf("%6s | %12.3f | %10.0f | %8.4f\n", "q4", q4_sim.modeled_seconds * 1e3,
              q4_qps, q4_sim.recall);
  std::printf("q4 speedup %.2fx, recall delta %+.4f, platforms %s "
              "(rerank %.3f ms)\n",
              q4_speedup, q4_sim.recall - full_sim.recall,
              twins ? "bit-identical" : "DIVERGED", q4_sim.rerank_seconds * 1e3);
  report.add_row("q4_rung");
  report.add_metric("full_modeled_seconds", full_sim.modeled_seconds);
  report.add_metric("q4_modeled_seconds", q4_sim.modeled_seconds);
  report.add_metric("q4_speedup", q4_speedup);
  report.add_metric("full_recall", full_sim.recall);
  report.add_metric("q4_recall", q4_sim.recall);
  report.add_metric("platforms_identical", twins ? 1.0 : 0.0);
  // Acceptance: the cheap rung buys >= 1.5x modeled qps, pays measurable
  // recall (strictly lower: coarser codebooks lose candidates the exact
  // rerank tail cannot recover), and sim == analytic bit for bit.
  ok = ok && twins;
  ok = ok && q4_speedup >= 1.5;
  ok = ok && q4_sim.recall < full_sim.recall;
  ok = ok && q4_sim.recall > 0.4;  // degraded, not broken

  // ---- 3. Degrade-before-shed at overload --------------------------------
  print_title("Overload: degrade-to-q4 admission vs shed-only");
  serve::ServeParams sp;
  sp.batcher.max_batch = 32;
  DrimEngineOptions serve_opts = default_engine_options(scale, nprobe);
  serve_opts.platform = PimPlatformKind::kSim;
  serve_opts.enable_q4 = true;
  serve_opts.batch_size = sp.batcher.max_batch;
  DrimAnnEngine serve_engine(index, bench.data.learn, serve_opts);
  DrimBackend backend(serve_engine);

  const double mean_batch_s =
      backend.estimate_batch_seconds(sp.batcher.max_batch, nprobe, k);
  const double capacity_qps =
      static_cast<double>(sp.batcher.max_batch) / mean_batch_s;
  sp.batcher.max_wait_s = mean_batch_s;
  sp.admission.slo_s = sp.batcher.max_wait_s + 6.0 * mean_batch_s;
  sp.admission.headroom = 0.6;  // shed/degrade conservatively (see serve_latency)

  serve::WorkloadParams wp;
  wp.num_requests = smoke ? 512 : 2048;
  wp.offered_qps = 1.5 * capacity_qps;
  wp.query_skew = 0.5;
  wp.k_choices = {static_cast<std::uint32_t>(k)};
  wp.nprobe_choices = {static_cast<std::uint32_t>(nprobe)};
  const std::vector<serve::Request> trace =
      serve::generate_workload(bench.data.queries.count(), wp);
  std::printf("capacity ~%.0f qps, offered %.0f qps (1.5x), SLO %.3f ms, "
              "%zu requests\n",
              capacity_qps, wp.offered_qps, sp.admission.slo_s * 1e3,
              wp.num_requests);

  std::printf("%10s | %6s %6s %8s | %9s | %8s\n", "policy", "served", "shed",
              "degraded", "goodput", "timeout%");
  print_rule(64);
  serve::ServeReport shed_rep, deg_rep;
  for (const bool degrade : {false, true}) {
    serve::ServeParams p = sp;
    p.admission.degrade_to_q4 = degrade;
    serve::ServeResult res =
        serve::ServingRuntime(backend, bench.data.queries, p).run(trace);
    std::printf("%10s | %6zu %6zu %8zu | %9.0f | %7.1f%%\n",
                degrade ? "degrade" : "shed-only", res.report.served,
                res.report.shed, res.report.degraded, res.report.goodput_qps,
                100.0 * res.report.timeout_rate);
    report.add_row(degrade ? "overload_degrade" : "overload_shed_only");
    report.add_metric("served", static_cast<double>(res.report.served));
    report.add_metric("shed", static_cast<double>(res.report.shed));
    report.add_metric("degraded", static_cast<double>(res.report.degraded));
    report.add_metric("goodput_qps", res.report.goodput_qps);
    report.add_metric("timeout_rate", res.report.timeout_rate);
    ok = ok && res.report.served + res.report.shed == res.report.offered;
    if (degrade) {
      deg_rep = res.report;
    } else {
      shed_rep = res.report;
      ok = ok && res.report.degraded == 0;  // no ladder without the knob
    }
  }
  std::printf("degrade goodput %.0f vs shed-only %.0f qps (%+.1f%%), "
              "%zu requests saved from shedding\n",
              deg_rep.goodput_qps, shed_rep.goodput_qps,
              shed_rep.goodput_qps > 0
                  ? 100.0 * (deg_rep.goodput_qps / shed_rep.goodput_qps - 1.0)
                  : 0.0,
              shed_rep.shed > deg_rep.shed ? shed_rep.shed - deg_rep.shed : 0);
  // Acceptance: degrading instead of shedding can only help goodput, must
  // actually exercise the cheap rung at 1.5x overload, and must not buy the
  // extra served requests with SLO violations.
  ok = ok && deg_rep.goodput_qps >= shed_rep.goodput_qps;
  ok = ok && deg_rep.degraded > 0;
  ok = ok && deg_rep.slo_violations == 0;

  report.write();

  if (!check_against.empty()) {
    const double baseline = read_baseline_metric(check_against, "q4_rung", "q4_speedup");
    if (baseline <= 0.0) {
      std::fprintf(stderr, "FAIL: could not read q4_speedup from %s\n",
                   check_against.c_str());
      return 1;
    }
    const double floor = 0.85 * baseline;
    std::printf("regression gate: q4_speedup %.2f vs baseline %.2f (floor %.2f)\n",
                q4_speedup, baseline, floor);
    if (q4_speedup < floor) {
      std::fprintf(stderr, "FAIL: q4 speedup regressed >15%% (%.2f < %.2f)\n",
                   q4_speedup, floor);
      return 1;
    }
  }

  if (!ok) {
    std::printf("FAILED: precision-ladder invariants violated (see above)\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
