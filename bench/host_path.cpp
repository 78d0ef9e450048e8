// Host-path wall-clock regression bench: queries/sec of the pure host CPU
// IVF-PQ path — no PIM model in the loop — on the persistent work-stealing
// executor with the scalar and the AVX2 kernels, so the executor and the
// AVX2 kernel seam become regression-guarded first-class metrics alongside
// the modeled numbers.
//
// Each row runs the identical CpuIvfPq::search_batch workload; the binary
// exits nonzero if the AVX2 row's search results differ from the scalar
// reference in any bit (the scalar/AVX2 equality contract and the executor's
// fixed-order merges, end to end). `--check-against FILE` compares the best
// row's qps to a previously written BENCH_host_path.json and fails on a >15%
// regression. Writes BENCH_host_path.json.
//
// Full scale is the paper-style host config (nlist 1024, m 16, cb 256,
// k 100); `--smoke` shrinks the corpus for ctest/CI.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distances.hpp"
#include "support/harness.hpp"

using namespace drim;
using namespace drim::bench;

namespace {

struct Combo {
  const char* label;
  SimdLevel simd;
};

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

/// Best-of-N timed run of the full batch (min wall — the standard way to
/// strip scheduler noise from a throughput number).
double best_wall(const CpuIvfPq& searcher, const FloatMatrix& queries,
                 std::size_t k, std::size_t nprobe, int reps, Results* out) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    CpuSearchStats stats;
    Results res = searcher.search_batch(queries, k, nprobe, &stats);
    if (r == 0 && out != nullptr) *out = std::move(res);
    if (best == 0.0 || stats.wall_seconds < best) best = stats.wall_seconds;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 0;
  std::string check_against;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      try {
        threads = parse_thread_count(argv[++i], "--threads");
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      check_against = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--check-against FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  BenchScale scale;
  std::size_t nlist = 1024, nprobe = 64;
  const std::size_t m = 16, cb = 256, k = 100;
  if (smoke) {
    scale.num_base = 20'000;
    scale.num_queries = 48;
    scale.num_learn = 4'000;
    nlist = 128;
    nprobe = 16;
  }
  const std::size_t effective_threads = configure_host_threads(threads);

  print_title("host_path: wall-clock qps of the pure host CPU IVF-PQ path");
  std::printf("scale: base=%zu queries=%zu nlist=%zu m=%zu cb=%zu k=%zu "
              "nprobe=%zu threads=%zu avx2=%s\n",
              scale.num_base, scale.num_queries, nlist, m, cb, k, nprobe,
              effective_threads, avx2_available() ? "yes" : "no");

  const BenchData bench = make_sift_bench(scale);
  const IvfPqIndex index = build_index(bench, nlist, m, cb);
  const CpuIvfPq searcher(index);
  const int reps = smoke ? 2 : 3;

  BenchReport report("host_path");
  report.set_config("num_base", scale.num_base);
  report.set_config("num_queries", scale.num_queries);
  report.set_config("nlist", nlist);
  report.set_config("m", m);
  report.set_config("cb", cb);
  report.set_config("k", k);
  report.set_config("nprobe", nprobe);
  report.set_config("threads", effective_threads);
  report.set_config("smoke", std::string(smoke ? "true" : "false"));
  report.set_config("avx2_available", std::string(avx2_available() ? "true" : "false"));

  const Combo combos[] = {
      {"persistent_scalar", SimdLevel::kScalar},
      {"persistent_avx2", SimdLevel::kAvx2},
  };

  std::printf("\n%-20s %12s %12s %10s\n", "combo", "wall [s]", "qps",
              "vs scalar");
  print_rule();

  Results reference;
  double base_qps = 0.0, best_qps = 0.0;
  int rc = 0;
  for (const Combo& combo : combos) {
    const SimdLevel got = set_simd_level(combo.simd);
    if (combo.simd == SimdLevel::kAvx2 && got != SimdLevel::kAvx2) {
      std::printf("%-20s %12s\n", combo.label, "(no AVX2)");
      continue;
    }
    // Warmup outside the timed reps (page-in, pool spin-up).
    best_wall(searcher, bench.data.queries, k, nprobe, 1, nullptr);
    Results results;
    const double wall =
        best_wall(searcher, bench.data.queries, k, nprobe, reps, &results);
    const double qps = wall > 0 ? static_cast<double>(scale.num_queries) / wall : 0.0;

    if (reference.empty()) {
      reference = std::move(results);
      base_qps = qps;
    } else if (!identical(results, reference)) {
      std::fprintf(stderr, "FAIL: %s results differ from persistent_scalar\n",
                   combo.label);
      rc = 1;
    }
    best_qps = std::max(best_qps, qps);
    const double speedup = base_qps > 0 ? qps / base_qps : 0.0;
    std::printf("%-20s %12.4f %12.1f %9.2fx\n", combo.label, wall, qps, speedup);

    report.add_row(combo.label);
    report.add_metric("wall_seconds", wall);
    report.add_metric("qps", qps);
    report.add_metric("speedup_vs_scalar", speedup);
  }
  set_simd_level(avx2_available() ? SimdLevel::kAvx2 : SimdLevel::kScalar);

  report.add_row("summary");
  report.add_metric("best_qps", best_qps);
  report.add_metric("best_speedup_vs_scalar",
                    base_qps > 0 ? best_qps / base_qps : 0.0);
  report.write();

  if (rc == 0) {
    std::printf("\nok: all combinations bit-identical; best %.2fx vs "
                "scalar\n",
                base_qps > 0 ? best_qps / base_qps : 0.0);
  }

  if (!check_against.empty()) {
    const double baseline = read_baseline_metric(check_against, "summary", "best_qps");
    if (baseline <= 0.0) {
      std::fprintf(stderr, "FAIL: could not read best_qps from %s\n",
                   check_against.c_str());
      return 1;
    }
    const double floor = 0.85 * baseline;
    std::printf("regression gate: best_qps %.1f vs baseline %.1f (floor %.1f)\n",
                best_qps, baseline, floor);
    if (best_qps < floor) {
      std::fprintf(stderr,
                   "FAIL: host-path qps regressed >15%% (%.1f < %.1f)\n",
                   best_qps, floor);
      return 1;
    }
  }
  return rc;
}
