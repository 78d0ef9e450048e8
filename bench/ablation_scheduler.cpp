// Ablation: runtime-scheduler components (Section IV-D). Holds the layout
// fixed (split + duplicate + heat allocation) and varies only the online
// policy: Eq. 15 greedy predictor vs round-robin replica rotation, and the
// inter-batch filter on/off across batch sizes. Both run on two query
// mixes: the query pool as drawn, and a Zipf(1.0) draw over it (hot
// queries repeat, so hot clusters collect many tasks per batch).
//
// Exits nonzero if greedy is busier than round-robin on either mix, or if
// any run's answers differ from the mix's first run (the policies choose
// replicas and steps, never results).

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

bool same_answers(const std::vector<std::vector<Neighbor>>& a,
                  const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  BenchScale scale;
  const BenchData bench = make_sift_bench(scale);
  const std::size_t nprobe = 16;
  const IvfPqIndex index = build_index(bench, 128);

  // As many Zipf(1.0) draws over the query pool as the pool holds.
  Rng rng(42);
  const ZipfSampler zipf(static_cast<std::uint32_t>(bench.data.queries.count()), 1.0);
  FloatMatrix zipf_queries;
  for (std::size_t i = 0; i < bench.data.queries.count(); ++i) {
    zipf_queries.push_back(bench.data.queries.row(zipf(rng)));
  }
  struct Mix {
    const char* name;
    const FloatMatrix* queries;
  };
  const Mix mixes[] = {{"uniform", &bench.data.queries}, {"zipf(1.0)", &zipf_queries}};

  bool ok = true;
  for (const Mix& mix : mixes) {
    std::vector<std::vector<Neighbor>> reference;
    bool answers_match = true;
    const auto run = [&](const DrimEngineOptions& o) {
      DrimAnnEngine engine(index, bench.data.learn, o);
      DrimSearchStats stats;
      auto answers = engine.search(*mix.queries, scale.k, nprobe, &stats);
      if (reference.empty()) {
        reference = std::move(answers);
      } else if (!same_answers(answers, reference)) {
        answers_match = false;
      }
      return stats;
    };

    print_title(std::string("Ablation A (") + mix.name +
                " queries): replica-choice policy (single batch)");
    std::printf("%-24s | %11s | %10s\n", "policy", "busy (s)", "imbalance");
    print_rule();
    double busy[2] = {0.0, 0.0};  // greedy, round-robin
    for (const SchedulePolicy policy :
         {SchedulePolicy::kGreedy, SchedulePolicy::kRoundRobin}) {
      DrimEngineOptions o = default_engine_options(scale, nprobe);
      o.scheduler.policy = policy;
      o.scheduler.enable_filter = false;
      const DrimSearchStats stats = run(o);
      const bool greedy = policy == SchedulePolicy::kGreedy;
      busy[greedy ? 0 : 1] = stats.dpu_busy_seconds;
      std::printf("%-24s | %11.5f | %10.2f\n",
                  greedy ? "greedy (Eq. 15 predictor)" : "round-robin",
                  stats.dpu_busy_seconds, imbalance_factor(stats.per_dpu_seconds));
    }
    print_rule();
    std::printf("greedy / round-robin DPU busy time: %.3fx\n", busy[0] / busy[1]);

    print_title(std::string("Ablation B (") + mix.name +
                " queries): inter-batch filter across batch sizes");
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
        const DrimSearchStats stats = run(o);
        std::printf("%10zu | %-9s | %11.5f | %8zu | %7.2fx\n", batch,
                    filter ? "on" : "off", stats.dpu_busy_seconds, stats.batches,
                    busy[0] / stats.dpu_busy_seconds);
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

    if (busy[0] > busy[1]) {
      std::printf("FAIL (%s): greedy is busier than round-robin\n", mix.name);
      ok = false;
    }
    if (!answers_match) {
      std::printf("FAIL (%s): answers differ between scheduler settings\n", mix.name);
      ok = false;
    }
  }
  if (ok) std::printf("\nPASS: greedy is no busier than round-robin on either mix; "
                      "answers identical across settings\n");
  return ok ? 0 : 1;
}
