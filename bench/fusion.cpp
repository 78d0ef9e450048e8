// Cluster-major task fusion bench (DESIGN.md §16): a Zipf(1.0) serving
// stream swept over fuse_width {1, 4, 8} x step batch size, self-checked and
// recorded.
//
// Two operating points, both run over the same stream:
//   - Today's DPU (compute_scale 1): fig13 shows the engine is compute-bound
//     here, so fusion is time-NEUTRAL by design — the self-check demands
//     bit-identical results at every width and a strictly positive
//     dc_bytes_saved counter (the MRAM bandwidth freed for everything else,
//     e.g. a co-resident update stream), with modeled qps within a small
//     tolerance of fuse_width 1.
//   - DSE-projected DPU (compute_scale 8, extending Fig. 13's 2x/5x
//     "computational ability" axis): once compute stops masking the DC
//     stream, the per-task MRAM re-streams bind the launch, and fusing >= 4
//     co-cluster tasks per stream must buy >= 1.3x modeled qps with results
//     still bit-identical — the regime UpANNS reports on real UPMEM
//     hardware, and the acceptance gate of ISSUE 10.
//
// `--smoke` shrinks the corpus so ctest/CI finishes in seconds;
// `--check-against FILE` compares the DSE-point width-4 speedup to a
// previously written BENCH_fusion.json and fails on a >15% regression, or
// when this run's peak RSS is more than twice the baseline's `host` row.
// Writes BENCH_fusion.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "backend/drim_backend.hpp"
#include "common/rng.hpp"
#include "data/recall.hpp"
#include "drim/engine.hpp"
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

struct StreamRun {
  Results results;               ///< per request, in enqueue order
  double modeled_seconds = 0.0;  ///< backend's modeled stream total
  double qps = 0.0;
  std::uint64_t dc_bytes_saved = 0;
  double recall = 0.0;
};

/// Drive the Zipf stream through the backend's enqueue/step protocol — the
/// same path the serving runtime uses — in steps of `batch` queries.
StreamRun run_stream(const BenchData& bench, const IvfPqIndex& index,
                     const DrimEngineOptions& opts,
                     const std::vector<std::uint32_t>& stream, std::size_t k,
                     std::size_t nprobe, std::size_t batch) {
  DrimAnnEngine engine(index, bench.data.learn, opts);
  DrimBackend backend(engine);
  std::vector<std::uint32_t> handles;
  handles.reserve(stream.size());
  for (const std::uint32_t q : stream) {
    handles.push_back(backend.enqueue(bench.data.queries.row(q), k, nprobe));
  }
  std::size_t stepped = 0;
  while (stepped < stream.size()) {
    const std::size_t take = std::min(batch, stream.size() - stepped);
    backend.step(take, /*flush=*/stepped + take == stream.size());
    stepped += take;
  }
  while (backend.has_deferred()) backend.step(0, /*flush=*/true);

  StreamRun out;
  out.results.reserve(handles.size());
  for (const std::uint32_t h : handles) out.results.push_back(backend.take_results(h));
  const BackendStats stats = backend.stats();
  out.modeled_seconds = stats.total_seconds;
  out.qps = stats.qps();
  out.dc_bytes_saved = stats.dc_bytes_saved;
  std::vector<std::vector<Neighbor>> gt;
  gt.reserve(stream.size());
  for (const std::uint32_t q : stream) gt.push_back(bench.ground_truth[q]);
  out.recall = mean_recall_at_k(out.results, gt, k);
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

  // Paper-regime clusters (C = N/nlist in the thousands) with a compact
  // codebook: C drives the DC-stream share this bench measures, and
  // split_threshold is raised so a shard holds a whole cluster — fusing
  // within fragments of a split cluster would understate the re-streams the
  // unfused engine pays.
  BenchScale scale;
  std::size_t nlist = 64;
  std::size_t stream_len = 512;
  std::vector<std::size_t> batches = {64, 256};
  if (smoke) {
    scale.num_base = 40'000;
    scale.num_queries = 64;
    scale.num_learn = 6'000;
    scale.num_dpus = 16;
    nlist = 16;
    stream_len = 192;
    batches = {32, 96};
  }
  const std::size_t nprobe = 16;
  const std::size_t k = scale.k;
  const std::size_t pq_m = 16;
  const std::size_t pq_cb = 32;
  const double dse_compute_scale = 8.0;
  configure_host_threads(scale.threads);

  print_title("fusion: cluster-major task fusion on a Zipf(1.0) stream (" +
              std::string(smoke ? "smoke" : "full") + ")");
  const BenchData bench = make_sift_bench(scale);
  const IvfPqIndex index = build_index(bench, nlist, pq_m, pq_cb);
  std::printf("N=%zu, pool %zu, stream %zu, %zu DPUs, nlist=%zu (C~%zu), "
              "m=%zu, cb=%zu, nprobe=%zu, k=%zu\n",
              scale.num_base, scale.num_queries, stream_len, scale.num_dpus,
              nlist, scale.num_base / nlist, pq_m, pq_cb, nprobe, k);

  // Zipf(1.0) request stream over the query pool: hot queries repeat, so hot
  // clusters collect many co-cluster tasks per batch — the skew ISSUE 10's
  // motivation (and the paper's load-imbalance observation) says serving
  // sees.
  Rng rng(42);
  const ZipfSampler zipf(static_cast<std::uint32_t>(bench.data.queries.count()), 1.0);
  std::vector<std::uint32_t> stream(stream_len);
  for (auto& q : stream) q = zipf(rng);

  BenchReport report("fusion");
  report.set_config("mode", smoke ? std::string("smoke") : std::string("full"));
  report.set_config("num_base", scale.num_base);
  report.set_config("num_dpus", scale.num_dpus);
  report.set_config("nlist", nlist);
  report.set_config("pq_m", pq_m);
  report.set_config("pq_cb", pq_cb);
  report.set_config("nprobe", nprobe);
  report.set_config("k", k);
  report.set_config("stream_len", stream_len);
  report.set_config("zipf_skew", 1.0);
  report.set_config("dse_compute_scale", dse_compute_scale);

  const auto options_for = [&](std::size_t width, std::size_t batch,
                               double compute_scale) {
    DrimEngineOptions o = default_engine_options(scale, nprobe);
    o.platform = PimPlatformKind::kSim;
    o.layout.split_threshold = 4096;  // keep whole paper-regime clusters
    o.fuse_width = width;
    o.batch_size = batch;
    o.pim.compute_scale = compute_scale;
    return o;
  };

  const std::vector<std::size_t> widths = {1, 4, 8};
  bool ok = true;
  double dse_speedup_w4 = 0.0;  // best over batch sizes (the gated headline)

  for (const double cs : {1.0, dse_compute_scale}) {
    const bool dse = cs > 1.0;
    print_title(dse ? "DSE-projected DPU (compute_scale 8): DC stream binds"
                    : "Today's DPU (compute_scale 1): compute-bound, "
                      "fusion frees bandwidth");
    std::printf("%6s %6s | %10s %8s | %9s | %10s | %8s\n", "batch", "width",
                "modeled ms", "qps", "speedup", "saved MB", "recall");
    print_rule(72);
    for (const std::size_t batch : batches) {
      double qps_w1 = 0.0;
      Results ref;
      for (const std::size_t width : widths) {
        const StreamRun run = run_stream(bench, index, options_for(width, batch, cs),
                                         stream, k, nprobe, batch);
        if (width == 1) {
          qps_w1 = run.qps;
          ref = run.results;
        }
        const bool same = width == 1 || identical(ref, run.results);
        const double speedup = qps_w1 > 0 ? run.qps / qps_w1 : 0.0;
        std::printf("%6zu %6zu | %10.3f %8.0f | %8.2fx | %10.2f | %8.4f%s\n",
                    batch, width, run.modeled_seconds * 1e3, run.qps, speedup,
                    static_cast<double>(run.dc_bytes_saved) / 1e6, run.recall,
                    same ? "" : "  RESULTS DIVERGED");
        char label[48];
        std::snprintf(label, sizeof(label), "cs%zu_batch%zu_width%zu",
                      static_cast<std::size_t>(cs), batch, width);
        report.add_row(label);
        report.add_metric("modeled_seconds", run.modeled_seconds);
        report.add_metric("qps", run.qps);
        report.add_metric("speedup", speedup);
        report.add_metric("dc_bytes_saved", static_cast<double>(run.dc_bytes_saved));
        report.add_metric("identical", same ? 1.0 : 0.0);
        report.add_metric("recall", run.recall);

        // Self-checks, both operating points: results never change, and the
        // saved-bytes counter behaves (zero unfused, positive fused).
        ok = ok && same;
        ok = ok && (width == 1 ? run.dc_bytes_saved == 0 : run.dc_bytes_saved > 0);
        if (!dse) {
          // Compute-bound point: fusion must be ~time-neutral (the few group
          // descriptor cycles are noise, not a regression).
          ok = ok && speedup >= 0.98;
        } else if (width == 4) {
          dse_speedup_w4 = std::max(dse_speedup_w4, speedup);
        }
        if (dse && width > 1) ok = ok && speedup > 1.0;
      }
    }
  }
  print_rule(72);
  std::printf("DSE-point width-4 speedup (best batch): %.2fx (gate >= 1.30x)\n",
              dse_speedup_w4);
  report.add_row("fusion_gate");
  report.add_metric("dse_speedup_w4", dse_speedup_w4);
  ok = ok && dse_speedup_w4 >= 1.3;

  report.write();

  if (!check_against.empty()) {
    const double baseline =
        read_baseline_metric(check_against, "fusion_gate", "dse_speedup_w4");
    if (baseline <= 0.0) {
      std::fprintf(stderr, "FAIL: could not read dse_speedup_w4 from %s\n",
                   check_against.c_str());
      return 1;
    }
    const double floor = 0.85 * baseline;
    std::printf("regression gate: dse_speedup_w4 %.2f vs baseline %.2f (floor %.2f)\n",
                dse_speedup_w4, baseline, floor);
    if (dse_speedup_w4 < floor) {
      std::fprintf(stderr, "FAIL: fusion speedup regressed >15%% (%.2f < %.2f)\n",
                   dse_speedup_w4, floor);
      return 1;
    }
    // Simulator memory: sixteen sim DPUs at depth 2 are a few MB of stored
    // MRAM pages; a backing that follows the highest offset touched (the
    // ping/pong slot at half capacity) costs tens of MB per DPU instead.
    const double rss_baseline = read_baseline_metric(check_against, "host", "peak_rss_mb");
    if (rss_baseline <= 0.0) {
      std::fprintf(stderr, "FAIL: could not read peak_rss_mb from %s\n",
                   check_against.c_str());
      return 1;
    }
    const double rss = peak_rss_mb();
    const double ceiling = 2.0 * rss_baseline;
    std::printf("regression gate: peak_rss_mb %.1f vs baseline %.1f (ceiling %.1f)\n",
                rss, rss_baseline, ceiling);
    if (rss > ceiling) {
      std::fprintf(stderr, "FAIL: peak RSS more than doubled (%.1f > %.1f MB)\n", rss,
                   ceiling);
      return 1;
    }
  }

  if (!ok) {
    std::printf("FAILED: fusion invariants violated (see above)\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
