// Ablation: runtime-scheduler components (Section IV-D). Holds the layout
// fixed (split + duplicate + heat allocation) and varies only the online
// policy: Eq. 15 greedy predictor vs round-robin replica rotation, and the
// inter-batch filter on/off across batch sizes.

#include <cstdio>

#include "common/stats.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

int main() {
  BenchScale scale;
  const BenchData bench = make_sift_bench(scale);
  const std::size_t nprobe = 16;
  const IvfPqIndex index = build_index(bench, 128);

  print_title("Ablation A: replica-choice policy (single batch)");
  std::printf("%-24s | %11s | %10s\n", "policy", "busy (s)", "imbalance");
  print_rule();
  double greedy_busy = 0.0;
  for (const SchedulePolicy policy : {SchedulePolicy::kGreedy, SchedulePolicy::kRoundRobin}) {
    DrimEngineOptions o = default_engine_options(scale, nprobe);
    o.scheduler.policy = policy;
    o.scheduler.enable_filter = false;
    DrimAnnEngine engine(index, bench.data.learn, o);
    DrimSearchStats stats;
    engine.search(bench.data.queries, scale.k, nprobe, &stats);
    if (policy == SchedulePolicy::kGreedy) greedy_busy = stats.dpu_busy_seconds;
    std::printf("%-24s | %11.5f | %10.2f\n",
                policy == SchedulePolicy::kGreedy ? "greedy (Eq. 15 predictor)"
                                                  : "round-robin",
                stats.dpu_busy_seconds, imbalance_factor(stats.per_dpu_seconds));
  }
  print_rule();

  print_title("Ablation B: inter-batch filter across batch sizes");
  std::printf("%10s | %-9s | %11s | %8s | %s\n", "batch", "filter", "total (s)",
              "batches", "vs greedy single-batch");
  print_rule();
  const std::size_t batches[] = {48, 96};
  double filter_ratio[2] = {0.0, 0.0};  // filter on / off busy, per batch size
  for (std::size_t b = 0; b < 2; ++b) {
    const std::size_t batch = batches[b];
    double off_busy = 0.0;
    for (bool filter : {false, true}) {
      DrimEngineOptions o = default_engine_options(scale, nprobe);
      o.batch_size = batch;
      o.scheduler.enable_filter = filter;
      o.scheduler.filter_slack = 0.20;
      DrimAnnEngine engine(index, bench.data.learn, o);
      DrimSearchStats stats;
      engine.search(bench.data.queries, scale.k, nprobe, &stats);
      std::printf("%10zu | %-9s | %11.5f | %8zu | %7.2fx\n", batch,
                  filter ? "on" : "off", stats.dpu_busy_seconds, stats.batches,
                  greedy_busy / stats.dpu_busy_seconds);
      if (filter) {
        filter_ratio[b] = stats.dpu_busy_seconds / off_busy;
      } else {
        off_busy = stats.dpu_busy_seconds;
      }
    }
  }
  print_rule();
  std::printf("filter on / off DPU busy time: %.3fx at batch %zu, %.3fx at batch %zu\n"
              "(below 1x the filter saves time; above, deferring the predicted-slow\n"
              "tail costs more than it balances)\n",
              filter_ratio[0], batches[0], filter_ratio[1], batches[1]);
  return 0;
}
