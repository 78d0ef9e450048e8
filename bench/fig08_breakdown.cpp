// Figure 8 reproduction: PIM kernel latency breakdown by phase (RC / LC /
// DC / TS / AUX) as nlist and nprobe sweep. The paper's findings:
//   - DC's share falls and LC/TS's share rises as nlist grows (smaller
//     clusters mean less scanning per (q, c) pair but the same LUT work),
//   - shares barely move with nprobe (all DPU phases scale linearly in it),
//   - RC and AUX stay small throughout,
//   - the bottleneck shifts DC -> LC with growing nlist.
//
// The per-phase seconds are read two independent ways and cross-checked:
// the engine's accumulated phase_dpu_seconds (per-DPU max(compute, dma)
// summed as batches run), and a re-derivation from the raw aggregate
// hardware counters (instr cycles / IPC and DMA cycles / frequency, like
// the UPMEM SDK's perf counters). The two must agree within 1% — the
// aggregate max can only under-count when DPUs in the same phase sit on
// opposite sides of the compute/DMA crossover, which a homogeneous kernel
// mix keeps negligible. `--smoke` shrinks the sweeps for ctest and turns
// the 1% check into the exit status. Writes BENCH_fig08_breakdown.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

/// Phase seconds re-derived from the aggregate counters alone.
double counter_phase_seconds(const PhaseCounters& c, const PimConfig& cfg) {
  const double compute = static_cast<double>(c.instr_cycles) /
                         cfg.effective_ipc() * cfg.seconds_per_cycle();
  const double dma = c.dma_cycles / cfg.frequency_hz;
  return std::max(compute, dma);
}

/// Largest relative per-phase gap between the engine's accounting and the
/// counter-derived times for one run (0 when both report an empty phase).
double run_row(const BenchData& bench, const BenchScale& scale, std::size_t nlist,
               std::size_t nprobe, BenchReport& report) {
  const IvfPqIndex index = build_index(bench, nlist);
  const DrimEngineOptions options = default_engine_options(scale, nprobe);
  const DrimRun drim = run_drim(bench, index, options, scale.k, nprobe);

  double total = 0.0;
  double derived_total = 0.0;
  double max_dev = 0.0;
  std::array<double, kNumPhases> derived{};
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const double engine_s = drim.stats.phase_dpu_seconds[p];
    derived[p] = counter_phase_seconds(drim.stats.counters.phases[p], options.pim);
    total += engine_s;
    derived_total += derived[p];
    if (engine_s > 0.0 || derived[p] > 0.0) {
      const double ref = std::max(engine_s, derived[p]);
      max_dev = std::max(max_dev, std::abs(engine_s - derived[p]) / ref);
    }
  }
  auto share = [&](Phase p) {
    return total > 0 ? 100.0 * drim.stats.phase_dpu_seconds[static_cast<int>(p)] / total
                     : 0.0;
  };
  // Share of the m x cb LUT a task builds: only the entries its shard's
  // codes reference (DESIGN.md §17).
  const double table = static_cast<double>(drim.stats.tasks) *
                       static_cast<double>(index.pq().m() * index.pq().cb_entries());
  const double lut_built =
      table > 0 ? static_cast<double>(drim.stats.lut_entries_built) / table : 0.0;
  std::printf("%6zu %7zu | %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %6.1f%% | %9.4f s "
              "| %9.4f s | %6.3f%%\n",
              nlist, nprobe, share(Phase::RC), share(Phase::LC), share(Phase::DC),
              share(Phase::TS), share(Phase::AUX), 100.0 * lut_built, total,
              derived_total, 100.0 * max_dev);

  char label[64];
  std::snprintf(label, sizeof(label), "nlist=%zu nprobe=%zu", nlist, nprobe);
  report.add_row(label);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const std::string name(phase_name(static_cast<Phase>(p)));
    report.add_metric("engine_" + name + "_s", drim.stats.phase_dpu_seconds[p]);
    report.add_metric("counter_" + name + "_s", derived[p]);
  }
  report.add_metric("lut_built_fraction", lut_built);
  report.add_metric("max_phase_deviation", max_dev);
  report.add_metric("dpu_busy_seconds", drim.stats.dpu_busy_seconds);
  return max_dev;
}

void header() {
  std::printf("%6s %7s | %7s %7s %7s %7s %7s | %7s | %10s | %10s | %7s\n", "nlist",
              "nprobe", "RC", "LC", "DC", "TS", "AUX", "LUT", "phase sum", "counters",
              "max dev");
  print_rule(98);
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
    scale.num_queries = 48;
    scale.num_learn = 4'000;
    scale.num_dpus = 16;
  }
  std::printf("Fig. 8 — DPU kernel latency breakdown (simulated cycle counters)\n");
  std::printf("host simulation threads: %zu (set DRIM_THREADS to change; "
              "simulated columns are thread-count invariant)\n",
              configure_host_threads(scale.threads));
  std::printf("LUT: share of the m x cb ADC table a task builds (only the entries "
              "its shard's codes reference)\n");

  BenchReport report("fig08_breakdown");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("num_base", scale.num_base);
  report.set_config("num_dpus", scale.num_dpus);

  const BenchData bench = make_sift_bench(scale);
  const auto nlists = smoke ? std::vector<std::size_t>{32, 64}
                            : std::vector<std::size_t>{32, 64, 128, 256};
  const auto nprobes = smoke ? std::vector<std::size_t>{8, 16}
                             : std::vector<std::size_t>{8, 16, 24, 32};

  double worst_dev = 0.0;
  print_title("Fig. 8(a): sweep nlist, nprobe = 16");
  header();
  for (std::size_t nlist : nlists) {
    worst_dev = std::max(worst_dev, run_row(bench, scale, nlist, 16, report));
  }
  std::printf("expected: DC share falls / LC share rises with nlist "
              "(bottleneck shifts DC -> LC)\n");

  print_title("Fig. 8(b): sweep nprobe, nlist = 128");
  header();
  for (std::size_t nprobe : nprobes) {
    worst_dev = std::max(worst_dev, run_row(bench, scale, 128, nprobe, report));
  }
  std::printf("expected: shares approximately stable in nprobe; RC and AUX small\n");

  report.set_config("worst_phase_deviation", worst_dev);
  report.write();

  std::printf("cross-check: engine accounting vs raw counters, worst phase "
              "deviation %.4f%% (budget 1%%)\n",
              100.0 * worst_dev);
  if (worst_dev > 0.01) {
    std::printf("FAIL: counter-derived breakdown drifted past 1%%\n");
    return 1;
  }
  return 0;
}
