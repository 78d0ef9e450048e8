// Figure 6 reproduction: end-to-end performance on the SIFT-like corpus.
//   (a) throughput vs nlist at fixed nprobe
//   (b) throughput vs nprobe at fixed nlist
//   (c) pipelined execution: depth sweep on a transfer-heavy configuration
// The paper reports DRIM-ANN at 2.35x-3.65x over Faiss-CPU (geomean 2.92x)
// on SIFT100M. Scale and platform substitutions are described in
// bench/support/harness.hpp and EXPERIMENTS.md. Writes
// BENCH_fig06_e2e_sift.json (speedup rows plus the pipeline sweep).

#include <cstdio>

#include "backend/drim_backend.hpp"
#include "common/stats.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

void run_row(const BenchData& bench, const BenchScale& scale, std::size_t nlist,
             std::size_t nprobe, std::vector<double>& speedups) {
  const IvfPqIndex index = build_index(bench, nlist);
  const CpuRun cpu = run_cpu(bench, index, scale.k, nprobe, scale.num_dpus);
  const DrimRun drim =
      run_drim(bench, index, default_engine_options(scale, nprobe), scale.k, nprobe);
  const double speedup = drim.modeled_qps / cpu.modeled_qps;
  speedups.push_back(speedup);
  std::printf("%6zu %7zu | %8.3f %9.3f | %11.0f %11.0f | %8.2fx | %16s | %10.0f\n",
              nlist, nprobe, cpu.recall, drim.recall, cpu.modeled_qps,
              drim.modeled_qps, speedup, format_batch_tail(drim.batch_ms).c_str(),
              cpu.measured_qps);
}

void header() {
  std::printf("%6s %7s | %8s %9s | %11s %11s | %9s | %16s | %10s\n", "nlist",
              "nprobe", "cpu R@10", "drim R@10", "CPU QPS*", "DRIM QPS*", "speedup",
              "batch ms 50/95/99", "cpu meas");
  print_rule(96);
}

}  // namespace

int main() {
  BenchScale scale;
  std::printf("Fig. 6 — end-to-end performance, %s\n", "SIFT-like");
  std::printf("scaled: N=%zu Q=%zu, %zu simulated DPUs; CPU modeled at the paper's\n"
              "DPU:thread ratio (* = modeled paper-platform QPS)\n",
              scale.num_base, scale.num_queries, scale.num_dpus);

  const BenchData bench = make_sift_bench(scale);
  std::vector<double> speedups;
  BenchReport report("fig06_e2e_sift");
  report.set_config("num_base", scale.num_base);
  report.set_config("num_queries", scale.num_queries);
  report.set_config("num_dpus", scale.num_dpus);

  print_title("Fig. 6(a): sweep nlist, nprobe = 16  (paper: nprobe = 96)");
  header();
  for (std::size_t nlist : {32, 64, 128, 256}) {
    run_row(bench, scale, nlist, 16, speedups);
  }

  print_title("Fig. 6(b): sweep nprobe, nlist = 128  (paper: nlist = 2^14)");
  header();
  for (std::size_t nprobe : {8, 16, 24, 32}) {
    run_row(bench, scale, 128, nprobe, speedups);
  }

  print_rule();
  std::printf("geomean speedup over modeled CPU: %.2fx  (paper: 2.92x geomean, "
              "2.35x-3.65x range)\n",
              geomean(speedups));
  report.add_row("cpu_speedup");
  report.add_metric("geomean_speedup", geomean(speedups));

  // (c) Pipelined batch execution. Transfer-heavy configuration: small PQ
  // tables keep the per-task LUT build cheap, one task per DPU at paper-scale
  // DPU counts keeps per-batch compute low, and a large k makes the result
  // pull carry ~half as many host-link seconds as the DPU array burns — so
  // double buffering (depth 2) can hide most of the link time under compute.
  // CL stays on the host (the default), overlapping the PIM batch.
  print_title("Fig. 6(c): pipelined execution — depth sweep, transfer-heavy config");
  const std::size_t p_nlist = 512, p_nprobe = 32, p_k = 200, p_batch = 32;
  const IvfPqIndex p_index = build_index(bench, p_nlist, /*m=*/8, /*cb=*/16);
  std::printf("nlist=%zu, m=8, cb=16, nprobe=%zu, k=%zu, batch=%zu, 2048 DPUs "
              "(analytic platform)\n",
              p_nlist, p_nprobe, p_k, p_batch);
  std::printf("%6s | %12s | %11s | %8s\n", "depth", "total ms", "QPS*", "speedup");
  print_rule(46);
  double depth1_total_s = 0.0;
  double depth2_total_s = 0.0;
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    DrimEngineOptions popts = default_engine_options(scale, p_nprobe);
    popts.platform = PimPlatformKind::kAnalytic;
    popts.pim.num_dpus = 2048;
    popts.batch_size = p_batch;
    popts.pipeline_depth = depth;
    DrimBackend backend(p_index, bench.data.learn, popts);
    (void)backend.search(bench.data.queries, p_k, p_nprobe);
    const double total_s = backend.stats().total_seconds;
    if (depth == 1) depth1_total_s = total_s;
    if (depth == 2) depth2_total_s = total_s;
    std::printf("%6zu | %12.3f | %11.0f | %7.2fx\n", depth, total_s * 1e3,
                static_cast<double>(scale.num_queries) / total_s,
                total_s > 0.0 ? depth1_total_s / total_s : 1.0);
  }
  const double pipeline_speedup =
      depth2_total_s > 0.0 ? depth1_total_s / depth2_total_s : 1.0;
  std::printf("depth-2 double buffering: %.2fx over the one-slot pipe (%.1f%% less time)\n",
              pipeline_speedup,
              100.0 * (1.0 - (depth1_total_s > 0.0
                                  ? depth2_total_s / depth1_total_s
                                  : 1.0)));
  report.add_row("pipeline_depth_sweep");
  report.add_metric("depth1_total_s", depth1_total_s);
  report.add_metric("depth2_total_s", depth2_total_s);
  report.add_metric("pipeline_speedup", pipeline_speedup);
  report.write();
  return 0;
}
