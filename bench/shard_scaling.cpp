// Multi-shard cluster-tier throughput scaling (DESIGN.md §13).
//
// Builds the SIFT-like index, draws a Zipf-skewed request stream over the
// query pool, and replays it closed-loop (batches of 32 through the
// streaming enqueue/step API) against the cluster backend at 1, 2, and 4
// shards on the analytic platform — each shard a full PIM node with its own
// DPU array, clusters partitioned by the heat-balancing ShardPlan with the
// hottest fraction replicated. Reports modeled qps per shard count plus the
// router's per-shard dispatch balance, and the host wall-clock of each
// replay — the only column that moves with DRIM_THREADS (a router step runs
// its shards concurrently, one host lane per shard).
//
// Self-checks (exit status, run under ctest and the release CI job):
//   - results are identical (ids AND distances) at every shard count, so
//     recall is exactly the single-shard baseline's;
//   - the 1-shard cluster backend reproduces the plain DrimBackend
//     bit-for-bit: ids, distances, modeled total, and every per-step time;
//   - modeled qps scales: >= 1.5x at 2 shards, >= 2.5x at 4 shards.
//
// `--smoke` shrinks the corpus so the run finishes in seconds. Writes
// BENCH_shard_scaling.json.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "common/timer.hpp"
#include "data/recall.hpp"
#include "serve/workload.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

struct StreamRun {
  double total_seconds = 0.0;
  double qps = 0.0;
  std::vector<double> batch_seconds;
  std::vector<std::vector<Neighbor>> results;  ///< one row per request
  std::vector<ShardHealth> health;
};

/// Replay the request stream closed-loop through the streaming API in
/// `batch`-sized steps; returns modeled totals and per-request results.
StreamRun stream_requests(AnnBackend& backend, const FloatMatrix& pool,
                          const std::vector<serve::Request>& requests,
                          std::size_t k, std::size_t nprobe, std::size_t batch) {
  backend.reset_stream();
  StreamRun run;
  std::vector<std::uint32_t> handles;
  handles.reserve(requests.size());
  for (const serve::Request& r : requests) {
    handles.push_back(backend.enqueue(pool.row(r.query), k, nprobe));
  }
  std::size_t stepped = 0;
  while (stepped < requests.size()) {
    const std::size_t take = std::min(batch, requests.size() - stepped);
    backend.step(take, /*flush=*/stepped + take == requests.size());
    stepped += take;
  }
  while (backend.has_deferred()) backend.step(0, /*flush=*/true);
  run.results.reserve(handles.size());
  for (std::uint32_t h : handles) run.results.push_back(backend.take_results(h));
  const BackendStats stats = backend.stats();
  run.total_seconds = stats.total_seconds;
  run.qps = stats.total_seconds > 0
                ? static_cast<double>(requests.size()) / stats.total_seconds
                : 0.0;
  run.batch_seconds = stats.batch_seconds;
  run.health = backend.shard_health();
  return run;
}

bool identical_results(const std::vector<std::vector<Neighbor>>& a,
                       const std::vector<std::vector<Neighbor>>& b,
                       const char* what) {
  if (a.size() != b.size()) {
    std::printf("FAIL: %s: row count %zu vs %zu\n", what, a.size(), b.size());
    return false;
  }
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) {
      std::printf("FAIL: %s: query %zu has %zu vs %zu results\n", what, q,
                  a[q].size(), b[q].size());
      return false;
    }
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) {
        std::printf("FAIL: %s: query %zu rank %zu differs (%u,%g) vs (%u,%g)\n",
                    what, q, i, a[q][i].id, a[q][i].dist, b[q][i].id,
                    b[q][i].dist);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t num_requests = 1024;
  double replication = 0.10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      num_requests = std::strtoul(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      replication = std::strtod(argv[++i], nullptr);
    }
  }

  BenchScale scale;
  std::size_t nlist = 128;
  if (smoke) {
    scale.num_base = 20'000;
    scale.num_queries = 64;
    scale.num_learn = 4'000;
    scale.num_dpus = 16;  // per shard
    nlist = 64;
    num_requests = 512;
  }
  const std::size_t nprobe = 16;
  const std::size_t batch = 32;
  configure_host_threads(scale.threads);

  std::printf("shard_scaling — cluster-tier modeled throughput vs shard count "
              "(%s)\n", smoke ? "smoke" : "full");

  const BenchData bench = make_sift_bench(scale);
  const IvfPqIndex index = build_index(bench, nlist);

  DrimEngineOptions opts = default_engine_options(scale, nprobe);
  opts.platform = PimPlatformKind::kAnalytic;  // paper-scale shard counts
  opts.batch_size = batch;

  // Zipf-skewed draws concentrate probes on hot clusters — the regime the
  // inter-shard replication machinery targets.
  serve::WorkloadParams wp;
  wp.num_requests = num_requests;
  wp.query_skew = 1.0;
  wp.k_choices = {static_cast<std::uint32_t>(scale.k)};
  wp.nprobe_choices = {static_cast<std::uint32_t>(nprobe)};
  const std::vector<serve::Request> requests =
      serve::generate_workload(bench.data.queries.count(), wp);

  // Per-request ground truth for recall (requests repeat pool queries).
  std::vector<std::vector<Neighbor>> gt;
  gt.reserve(requests.size());
  for (const serve::Request& r : requests) {
    gt.push_back(bench.ground_truth[r.query]);
  }

  std::printf("N=%zu, nlist=%zu, %zu DPUs/shard, nprobe=%zu, k=%zu, "
              "%zu Zipf(%.1f) requests in batches of %zu, replication %.2f\n",
              scale.num_base, nlist, scale.num_dpus, nprobe, scale.k,
              requests.size(), wp.query_skew, batch, replication);

  BenchReport report("shard_scaling");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("num_base", scale.num_base);
  report.set_config("nlist", nlist);
  report.set_config("dpus_per_shard", scale.num_dpus);
  report.set_config("nprobe", nprobe);
  report.set_config("k", scale.k);
  report.set_config("requests", requests.size());
  report.set_config("query_skew", wp.query_skew);
  report.set_config("replication_fraction", replication);

  bool ok = true;

  // Plain single-backend baseline: the bit-identity reference for shards=1.
  DrimBackend plain(index, bench.data.learn, opts);
  const StreamRun base_run =
      stream_requests(plain, bench.data.queries, requests, scale.k, nprobe, batch);
  const double base_recall = mean_recall_at_k(base_run.results, gt, scale.k);
  std::printf("\nplain %-22s %10.1f qps  total %8.3f ms  recall %.4f\n",
              plain.name().c_str(), base_run.qps, base_run.total_seconds * 1e3,
              base_recall);

  print_title("Modeled throughput vs shard count");
  std::printf("%7s | %12s | %9s | %8s | %13s | %s\n", "shards", "qps", "speedup",
              "recall", "host wall ms", "per-shard tasks");
  print_rule(94);

  double qps1 = 0.0;
  std::vector<double> speedups;
  for (std::size_t S : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    cluster::ClusterOptions copts;
    copts.num_shards = S;
    copts.replication_fraction = replication;
    std::unique_ptr<AnnBackend> backend = cluster::make_cluster_backend(
        BackendKind::kDrim, index, bench.data.learn, opts, copts);
    const WallTimer wall;
    const StreamRun run = stream_requests(*backend, bench.data.queries, requests,
                                          scale.k, nprobe, batch);
    const double wall_seconds = wall.seconds();
    const double recall = mean_recall_at_k(run.results, gt, scale.k);
    if (S == 1) qps1 = run.qps;
    const double speedup = qps1 > 0 ? run.qps / qps1 : 0.0;
    speedups.push_back(speedup);

    std::string tasks;
    for (const ShardHealth& h : run.health) {
      tasks += (tasks.empty() ? "" : " / ") + std::to_string(h.dispatched_tasks);
    }
    if (tasks.empty()) tasks = "-";
    std::printf("%7zu | %12.1f | %8.2fx | %8.4f | %13.1f | %s\n", S, run.qps, speedup,
                recall, wall_seconds * 1e3, tasks.c_str());

    report.add_row("shards " + std::to_string(S));
    report.add_metric("shards", static_cast<double>(S));
    report.add_metric("qps", run.qps);
    report.add_metric("speedup", speedup);
    report.add_metric("recall", recall);
    report.add_metric("total_seconds", run.total_seconds);
    report.add_metric("host_wall_seconds", wall_seconds);

    // Results (hence recall) must be identical to the single-shard baseline
    // at every shard count — sharding moves work, never answers.
    ok = identical_results(run.results, base_run.results,
                           ("shards=" + std::to_string(S)).c_str()) && ok;

    if (S == 1) {
      // The 1-shard cluster is a passthrough: bit-identical modeled times
      // too, step for step.
      bool times_ok = run.total_seconds == base_run.total_seconds &&
                      run.batch_seconds == base_run.batch_seconds;
      if (!times_ok) {
        std::printf("FAIL: 1-shard cluster modeled times diverge from the "
                    "plain backend (%.9g vs %.9g total)\n",
                    run.total_seconds, base_run.total_seconds);
      }
      ok = times_ok && ok;
    }
  }

  // Acceptance: horizontal scale-out pays — each shard adds its own DPU
  // array, so modeled qps must grow near-linearly minus balance losses.
  const double speedup2 = speedups.size() > 1 ? speedups[1] : 0.0;
  const double speedup4 = speedups.size() > 2 ? speedups[2] : 0.0;
  if (speedup2 < 1.5) {
    std::printf("FAIL: 2-shard speedup %.2fx < 1.5x\n", speedup2);
    ok = false;
  }
  if (speedup4 < 2.5) {
    std::printf("FAIL: 4-shard speedup %.2fx < 2.5x\n", speedup4);
    ok = false;
  }

  const std::string path = report.write();
  std::printf("\n%s. wrote %s\n", ok ? "OK" : "FAILED", path.c_str());
  return ok ? 0 : 1;
}
