#pragma once
// Shared benchmark harness for the per-figure reproduction binaries.
//
// Scaling note (documented in DESIGN.md / EXPERIMENTS.md): the paper runs
// 100M-point corpora on a 2530-DPU UPMEM server against a 32-thread Xeon.
// This repository runs scaled corpora on a simulated platform, holding the
// paper's DPU-to-CPU-thread ratio fixed: with `num_dpus` simulated DPUs the
// CPU comparator is modeled as 32 * (num_dpus / 2530) Xeon threads with
// proportional memory bandwidth. Speedups therefore compare equal fractions
// of both platforms, preserving who-wins and trend shapes. Measured
// wall-clock numbers from this container are also printed for transparency
// but are not the comparison basis (the container is a 1-core CI box).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "backend/ann_backend.hpp"
#include "baseline/cpu_ivfpq.hpp"
#include "common/stats.hpp"
#include "core/flat_search.hpp"
#include "data/recall.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "model/perf_model.hpp"

namespace drim::bench {

/// Scaled dataset defaults (paper: 100M base / 10K queries / 2530 DPUs).
/// N and nlist are chosen so the average cluster size C = N / nlist matches
/// the paper's regime (C in [1526, 24414]); C drives the DC-vs-LC balance
/// that determines both the CPU bottleneck and the DPU kernel mix, so it is
/// the scale parameter most worth preserving.
struct BenchScale {
  std::size_t num_base = 200'000;
  std::size_t num_queries = 192;
  std::size_t num_learn = 16'000;
  /// Kept at or below the smallest swept nlist so IVF residuals stay within
  /// one mixture component — the regime where PQ clears the paper's
  /// recall@10 >= 0.8 constraint, as on the real corpora.
  std::size_t num_components = 64;
  std::size_t num_dpus = 64;
  std::size_t k = 10;
  /// Host threads driving the simulation (0 = DRIM_THREADS env var, falling
  /// back to all cores). Simulated seconds and recall are bit-identical at
  /// any setting; only host wall-clock changes.
  std::size_t threads = 0;
};

/// Parse a host thread count given as `what` (an env var or a flag name):
/// throws std::invalid_argument naming `what` unless `text` is a whole
/// number no larger than INT_MAX.
std::size_t parse_thread_count(const char* text, const char* what);

/// Apply the host-thread knob: n == 0 reads the DRIM_THREADS env var (unset
/// or 0 = leave the executor at all cores). Throws std::invalid_argument when
/// DRIM_THREADS is not a whole number, when the count is above INT_MAX, or
/// when the executor rejects it as a cap. Returns the effective thread count.
std::size_t configure_host_threads(std::size_t n = 0);

/// Dataset + exact ground truth, built once per binary.
struct BenchData {
  SyntheticData data;
  std::vector<std::vector<Neighbor>> ground_truth;
  std::string name;
};

BenchData make_sift_bench(const BenchScale& scale);
BenchData make_deep_bench(const BenchScale& scale);

/// Train + populate an IVF-PQ index (m=32, cb=256 clears the paper's
/// recall@10 >= 0.8 constraint on the synthetic corpora; see EXPERIMENTS.md).
IvfPqIndex build_index(const BenchData& bench, std::size_t nlist, std::size_t m = 32,
                       std::size_t cb = 256, PQVariant variant = PQVariant::kPQ);

/// CPU comparator scaled to the paper's DPU:thread ratio (see header note).
PlatformParams scaled_cpu_platform(std::size_t num_dpus);

/// Fill the Eq. (1)-(12) workload from an index + query setup.
AnnWorkload workload_for(const IvfPqIndex& index, std::size_t num_base,
                         std::size_t num_queries, std::size_t k, std::size_t nprobe);

/// One CPU-baseline evaluation: measured wall clock plus the paper-platform
/// model estimate.
struct CpuRun {
  double recall = 0.0;
  double measured_qps = 0.0;         ///< this container, for transparency
  double modeled_seconds = 0.0;      ///< scaled Xeon model (comparison basis)
  double modeled_qps = 0.0;
  CpuSearchStats stats;
};
CpuRun run_cpu(const BenchData& bench, const IvfPqIndex& index, std::size_t k,
               std::size_t nprobe, std::size_t num_dpus);

/// One DRIM-ANN evaluation on the simulated platform. `wall_seconds` is the
/// measured host time spent simulating search() on this container (scales
/// with the thread knob); `modeled_seconds` is the simulated latency and is
/// independent of host threading.
struct DrimRun {
  double recall = 0.0;
  double modeled_seconds = 0.0;
  double modeled_qps = 0.0;
  double wall_seconds = 0.0;      ///< host wall-clock of search() simulation
  double load_wall_seconds = 0.0; ///< host wall-clock of engine build + upload
  std::size_t host_threads = 1;   ///< effective simulation threads
  /// Tail summary (milliseconds) of the per-batch modeled latencies in
  /// stats.batch_seconds — the figure tables print p50/p95/p99 columns from
  /// this so batching-induced latency spread is visible next to the mean.
  TailSummary batch_ms;
  DrimSearchStats stats;
  std::vector<std::vector<Neighbor>> results;
  /// Host memory behind the platform's simulated MRAM after the search
  /// (shared pages counted once; 0 on the analytic platform).
  std::size_t mram_resident_bytes = 0;
};
DrimRun run_drim(const BenchData& bench, const IvfPqIndex& index,
                 const DrimEngineOptions& options, std::size_t k, std::size_t nprobe,
                 std::size_t threads = 0);

/// Default engine options for a bench scale.
DrimEngineOptions default_engine_options(const BenchScale& scale, std::size_t nprobe);

/// One evaluation of any AnnBackend (batch search() path). Modeled seconds
/// come from the backend's own stats; wall seconds are this container's
/// host clock around the call.
struct BackendRun {
  double recall = 0.0;
  double modeled_seconds = 0.0;
  double modeled_qps = 0.0;
  double wall_seconds = 0.0;
  BackendStats stats;
};
BackendRun run_backend(const BenchData& bench, AnnBackend& backend, std::size_t k,
                       std::size_t nprobe);

/// Git state recorded into every BENCH_*.json: the revision plus whether the
/// working tree was dirty or HEAD detached when the report was written, so
/// artifacts from unclean trees are distinguishable from clean-rev runs.
struct GitState {
  std::string rev = "unknown";
  bool dirty = false;     ///< `git status --porcelain` non-empty
  bool detached = false;  ///< `git symbolic-ref -q HEAD` fails (detached HEAD)
};

/// Probe the current working directory's git state ("unknown" / false fields
/// outside a repository).
GitState query_git_state();

/// Peak resident set size of this process so far, in MB (getrusage
/// ru_maxrss).
double peak_rss_mb();

/// Machine-readable companion to the printed tables: accumulates a config
/// map plus labeled metric rows and serializes them as BENCH_<name>.json
/// (bench name, git revision + dirty/detached state, host wall-clock since
/// construction, config, rows). Every figure/bench binary writes one so
/// sweeps are scriptable without scraping stdout. write() appends a final
/// `host` row carrying peak_rss_mb, so every report records what the
/// simulation cost in memory next to what it modeled.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, double value);
  void set_config(const std::string& key, std::size_t value);

  /// Start a new row; subsequent add_metric calls attach to it.
  void add_row(const std::string& label);
  void add_metric(const std::string& key, double value);

  /// Write BENCH_<name>.json into `dir`; returns the path written.
  std::string write(const std::string& dir = ".") const;

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string name_;
  double start_seconds_ = 0.0;  ///< steady-clock origin for host_wall_seconds
  std::vector<std::pair<std::string, std::string>> config_;  ///< key -> JSON literal
  std::vector<Row> rows_;
};

/// Pull `metric` out of the row labeled `label` in a BENCH_*.json written by
/// BenchReport (single-line row objects; no general JSON needed). Returns
/// -1 when the file, row or metric is missing; the `--check-against` gates
/// treat that as a failure.
double read_baseline_metric(const std::string& path, const std::string& label,
                            const std::string& metric);

/// Formatting helpers for paper-style tables.
void print_rule(std::size_t width = 78);
void print_title(const std::string& title);

/// "p50/p95/p99" of a per-batch tail summary, in ms (e.g. "0.42/0.55/0.61").
std::string format_batch_tail(const TailSummary& t);

}  // namespace drim::bench
