// Figure 13 + Section V-D reproduction: scalability studies.
//  - Fig. 13: DRIM-ANN with 2x and 5x DPU computational ability vs the CPU
//    baseline (paper: 4.00x-5.71x and 5.77x-8.66x, geomeans 4.63x / 7.12x) —
//    the rise confirms the engine is compute-bound on today's DPUs.
//  - Section V-D: comparison against a Faiss-GPU-class platform (RTX 4090
//    model); the paper measures DRIM-ANN at 10.11%-53.05% of the 4090
//    (geomean 21.92%).
//  - Paper-scale run: the analytic platform prices the full 2530-DPU array
//    (trivial vs balanced layout) from the same cost tables without
//    simulating MRAM bytes, so the paper's DPU count fits in a few minutes
//    of host time; recall stays real via the host-exact replay. A sim
//    column reruns the balanced layout on the byte-level simulator, which
//    must match the analytic run bit for bit, and prints the host memory
//    its simulated MRAM holds.
//
// `--smoke` shrinks every sweep so ctest finishes in seconds. Writes
// BENCH_fig13_scaling.json.

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

/// Same neighbours and the same modeled times, batch by batch and DPU by DPU.
bool runs_identical(const DrimRun& a, const DrimRun& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    if (a.results[q].size() != b.results[q].size()) return false;
    for (std::size_t i = 0; i < a.results[q].size(); ++i) {
      if (a.results[q][i].id != b.results[q][i].id ||
          a.results[q][i].dist != b.results[q][i].dist) {
        return false;
      }
    }
  }
  return a.stats.batch_seconds == b.stats.batch_seconds &&
         a.stats.per_dpu_seconds == b.stats.per_dpu_seconds &&
         a.stats.total_seconds == b.stats.total_seconds;
}

DrimEngineOptions trivial_options(const BenchScale& scale, std::size_t nprobe) {
  DrimEngineOptions o = default_engine_options(scale, nprobe);
  o.layout.enable_split = false;
  o.layout.enable_duplicate = false;
  o.layout.heat_allocation = false;
  o.scheduler.enable_filter = false;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  BenchScale scale;
  if (smoke) {
    scale.num_base = 20'000;
    scale.num_queries = 64;
    scale.num_learn = 4'000;
    scale.num_dpus = 16;
  }
  configure_host_threads(scale.threads);
  const BenchData bench = make_sift_bench(scale);
  const std::size_t nprobe = 16;

  BenchReport report("fig13_scaling");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("num_base", scale.num_base);
  report.set_config("num_queries", scale.num_queries);
  report.set_config("num_dpus", scale.num_dpus);
  report.set_config("nprobe", nprobe);
  report.set_config("k", scale.k);

  print_title("Fig. 13: speedup over CPU with scaled DPU compute (SIFT-like)");
  std::printf("%6s | %9s %9s %9s\n", "nlist", "1x", "2x", "5x");
  print_rule();

  const std::vector<std::size_t> nlists =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{32, 64, 128, 256};
  std::vector<double> s1, s2, s5;
  for (std::size_t nlist : nlists) {
    const IvfPqIndex index = build_index(bench, nlist);
    const CpuRun cpu = run_cpu(bench, index, scale.k, nprobe, scale.num_dpus);

    double speedups[3];
    const double scales[3] = {1.0, 2.0, 5.0};
    for (int i = 0; i < 3; ++i) {
      DrimEngineOptions o = default_engine_options(scale, nprobe);
      o.pim.compute_scale = scales[i];
      const DrimRun run = run_drim(bench, index, o, scale.k, nprobe);
      speedups[i] = cpu.modeled_seconds / run.modeled_seconds;
    }
    s1.push_back(speedups[0]);
    s2.push_back(speedups[1]);
    s5.push_back(speedups[2]);
    std::printf("%6zu | %8.2fx %8.2fx %8.2fx\n", nlist, speedups[0], speedups[1],
                speedups[2]);
    char label[48];
    std::snprintf(label, sizeof(label), "compute_scale nlist=%zu", nlist);
    report.add_row(label);
    report.add_metric("speedup_1x", speedups[0]);
    report.add_metric("speedup_2x", speedups[1]);
    report.add_metric("speedup_5x", speedups[2]);
  }
  print_rule();
  std::printf("geomeans: 1x %.2fx, 2x %.2fx, 5x %.2fx "
              "(paper: 2.92x, 4.63x, 7.12x)\n",
              geomean(s1), geomean(s2), geomean(s5));
  std::printf("the monotone rise confirms today's DPUs leave DRIM-ANN compute-bound\n");

  print_title("Section V-D: DRIM-ANN vs Faiss-GPU-class platform (model)");
  std::printf("%6s %7s | %12s %12s | %10s\n", "nlist", "nprobe", "GPU QPS*",
              "DRIM QPS*", "of GPU");
  print_rule();

  const std::vector<std::size_t> gpu_nlists =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{64, 128, 256};
  std::vector<double> fractions;
  for (std::size_t nlist : gpu_nlists) {
    const IvfPqIndex index = build_index(bench, nlist);
    const DrimRun drim =
        run_drim(bench, index, default_engine_options(scale, nprobe), scale.k, nprobe);

    // GPU modeled at the same platform fraction as the CPU comparator.
    const AnnWorkload w =
        workload_for(index, scale.num_base, scale.num_queries, scale.k, nprobe);
    PlatformParams gpu = gpu_platform();
    const double ratio = static_cast<double>(scale.num_dpus) / 2530.0;
    gpu.pe *= ratio;
    gpu.bandwidth_Bps *= ratio;
    const double gpu_seconds = estimate_single(w, gpu, /*multiplier_less=*/false);
    const double gpu_qps = static_cast<double>(scale.num_queries) / gpu_seconds;
    const double frac = drim.modeled_qps / gpu_qps;
    fractions.push_back(frac);
    std::printf("%6zu %7zu | %12.0f %12.0f | %9.1f%%\n", nlist, nprobe, gpu_qps,
                drim.modeled_qps, 100.0 * frac);
    char label[48];
    std::snprintf(label, sizeof(label), "vs_gpu nlist=%zu", nlist);
    report.add_row(label);
    report.add_metric("gpu_qps", gpu_qps);
    report.add_metric("drim_qps", drim.modeled_qps);
    report.add_metric("fraction_of_gpu", frac);
  }
  print_rule();
  std::printf("geomean: %.1f%% of the GPU (paper: 21.92%% geomean, "
              "10.11%%-53.05%% range)\n",
              100.0 * geomean(fractions));

  // ---- paper-scale run on the analytic platform ----
  // The analytic platform charges the same per-task cycle/DMA costs from the
  // cost tables without materializing MRAM, and the host-exact replay keeps
  // the returned neighbors (hence recall) identical to what the functional
  // kernels would compute. This section runs the full-array load-balance
  // comparison the paper's headline setting implies. The sim column then
  // reruns the balanced layout on the byte-level simulator: broadcast
  // regions cost one shared page per platform, not one copy per DPU, so the
  // full array fits in host memory there too.
  BenchScale paper = scale;
  std::size_t paper_nlist;
  std::size_t paper_nprobe;
  if (smoke) {
    paper.num_dpus = 253;  // paper/10, keeps ctest fast
    paper_nlist = 512;
    paper_nprobe = 32;
  } else {
    paper.num_dpus = 2530;  // the paper's array
    paper_nlist = 4096;
    paper_nprobe = 96;  // the paper's headline nprobe
  }
  print_title("Paper-scale: 2530-DPU array, analytic platform plus a sim column");
  std::printf("num_dpus=%zu, nlist=%zu, nprobe=%zu, layouts on analytic, sim = balanced\n",
              paper.num_dpus, paper_nlist, paper_nprobe);
  std::printf("%-10s | %11s %11s | %8s | %8s | %9s\n", "layout", "busy(s)",
              "imb", "recall", "wall(s)", "load(s)");
  print_rule();

  WallTimer paper_timer;
  const IvfPqIndex paper_index = build_index(bench, paper_nlist);
  double busy[2] = {0.0, 0.0};
  const char* names[2] = {"trivial", "balanced"};
  DrimRun balanced;
  for (int i = 0; i < 2; ++i) {
    DrimEngineOptions o = i == 0 ? trivial_options(paper, paper_nprobe)
                                 : default_engine_options(paper, paper_nprobe);
    o.platform = PimPlatformKind::kAnalytic;
    DrimRun run = run_drim(bench, paper_index, o, scale.k, paper_nprobe);
    busy[i] = run.stats.dpu_busy_seconds;
    const double imb = imbalance_factor(run.stats.per_dpu_seconds);
    std::printf("%-10s | %11.5f %10.2fx | %8.3f | %8.2f | %9.2f\n", names[i],
                busy[i], imb, run.recall, run.wall_seconds, run.load_wall_seconds);
    char label[48];
    std::snprintf(label, sizeof(label), "paper_scale %s", names[i]);
    report.add_row(label);
    report.add_metric("num_dpus", static_cast<double>(paper.num_dpus));
    report.add_metric("dpu_busy_seconds", busy[i]);
    report.add_metric("imbalance", imb);
    report.add_metric("recall", run.recall);
    report.add_metric("host_wall_seconds", run.wall_seconds);
    report.add_metric("load_wall_seconds", run.load_wall_seconds);
    if (i == 1) balanced = std::move(run);
  }
  const double paper_speedup = busy[1] > 0.0 ? busy[0] / busy[1] : 0.0;
  print_rule();

  DrimEngineOptions sim_options = default_engine_options(paper, paper_nprobe);
  sim_options.platform = PimPlatformKind::kSim;
  const DrimRun sim = run_drim(bench, paper_index, sim_options, scale.k, paper_nprobe);
  const bool sim_equal = runs_identical(sim, balanced);
  const double sim_mram_mb = static_cast<double>(sim.mram_resident_bytes) / (1 << 20);
  const double sim_peak_rss_mb = peak_rss_mb();
  std::printf("%-10s | %11.5f %10.2fx | %8.3f | %8.2f | %9.2f\n", "sim",
              sim.stats.dpu_busy_seconds, imbalance_factor(sim.stats.per_dpu_seconds),
              sim.recall, sim.wall_seconds, sim.load_wall_seconds);
  std::printf("sim == analytic (balanced): %s; simulated MRAM %.1f MB, "
              "process peak RSS %.1f MB\n",
              sim_equal ? "identical neighbours and modeled times" : "MISMATCH",
              sim_mram_mb, sim_peak_rss_mb);
  report.add_row("paper_scale sim");
  report.add_metric("num_dpus", static_cast<double>(paper.num_dpus));
  report.add_metric("sim_equals_analytic", sim_equal ? 1.0 : 0.0);
  report.add_metric("dpu_busy_seconds", sim.stats.dpu_busy_seconds);
  report.add_metric("mram_resident_mb", sim_mram_mb);
  report.add_metric("peak_rss_mb", sim_peak_rss_mb);
  report.add_metric("host_wall_seconds", sim.wall_seconds);
  report.add_metric("load_wall_seconds", sim.load_wall_seconds);
  std::printf("load-balance stack at %zu DPUs: %.2fx lower DPU busy time; "
              "whole section took %.1f s of host time\n",
              paper.num_dpus, paper_speedup, paper_timer.seconds());
  report.add_row("paper_scale summary");
  report.add_metric("speedup", paper_speedup);
  report.add_metric("section_wall_seconds", paper_timer.seconds());

  // ---- extension: other commercial DRAM-PIM families (Section II-B) ----
  print_title("Extension: Eq. (13) estimates across DRAM-PIM families (paper scale)");
  std::printf("%-22s | %12s | %10s\n", "platform", "batch (s)", "vs UPMEM");
  print_rule();
  AnnWorkload w;  // SIFT100M, nlist = 2^14, nprobe = 96
  w.C = w.N / 16384.0;
  w.P = 96;
  const PlatformParams host = cpu_platform();
  const double upmem_s = estimate(w, host, upmem_platform()).total_seconds();
  struct Row {
    const char* name;
    PlatformParams pim;
  } rows[] = {
      {"UPMEM (2530 DPUs)", upmem_platform()},
      {"UPMEM, 2x compute", upmem_platform(2.0)},
      {"UPMEM, 5x compute", upmem_platform(5.0)},
      {"HBM-PIM class", hbm_pim_platform()},
  };
  for (const Row& row : rows) {
    const double s = estimate(w, host, row.pim).total_seconds();
    std::printf("%-22s | %12.4f | %9.2fx\n", row.name, s, upmem_s / s);
    report.add_row(row.name);
    report.add_metric("batch_seconds", s);
    report.add_metric("vs_upmem", upmem_s / s);
  }
  std::printf("HBM-PIM's logic-die FPUs remove the multiply premium but its far\n"
              "smaller unit count caps parallel LUT construction — consistent with\n"
              "the paper's observation that both families stay transfer-limited.\n");

  report.write();
  // Acceptance: the balanced layout must not be slower than trivial at the
  // paper's DPU count, and the byte-level sim must reproduce the analytic
  // run exactly there.
  if (paper_speedup < 1.0) {
    std::printf("FAILED: balanced layout slower than trivial at paper scale\n");
    return 1;
  }
  if (!sim_equal) {
    std::printf("FAILED: sim and analytic disagree at paper scale\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
