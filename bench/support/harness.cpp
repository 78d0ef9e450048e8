#include "support/harness.hpp"

#include <sys/resource.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "pim/pim_system.hpp"

namespace drim::bench {

std::size_t parse_thread_count(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE) {
    throw std::invalid_argument(std::string(what) + " must be a whole number, got \"" +
                                text + "\"");
  }
  if (v > static_cast<unsigned long long>(INT_MAX)) {
    throw std::invalid_argument(std::string(what) + " = " + text + " exceeds INT_MAX");
  }
  return static_cast<std::size_t>(v);
}

std::size_t configure_host_threads(std::size_t n) {
  if (n == 0) {
    if (const char* env = std::getenv("DRIM_THREADS")) {
      n = parse_thread_count(env, "DRIM_THREADS");
    }
  }
  if (n > static_cast<std::size_t>(INT_MAX)) {
    throw std::invalid_argument("host thread count " + std::to_string(n) +
                                " exceeds INT_MAX");
  }
  return static_cast<std::size_t>(set_num_threads(static_cast<int>(n)));
}

namespace {

SyntheticSpec spec_for(const BenchScale& scale) {
  SyntheticSpec spec;
  spec.num_base = scale.num_base;
  spec.num_queries = scale.num_queries;
  spec.num_learn = scale.num_learn;
  spec.num_components = scale.num_components;
  return spec;
}

}  // namespace

BenchData make_sift_bench(const BenchScale& scale) {
  BenchData bench;
  bench.name = "SIFT-like (D=128, uint8)";
  bench.data = make_sift_like(spec_for(scale));
  bench.ground_truth = flat_search_all(bench.data.base, bench.data.queries, scale.k);
  return bench;
}

BenchData make_deep_bench(const BenchScale& scale) {
  BenchData bench;
  bench.name = "DEEP-like (D=96, uint8-quantized)";
  bench.data = make_deep_like(spec_for(scale));
  bench.ground_truth = flat_search_all(bench.data.base, bench.data.queries, scale.k);
  return bench;
}

IvfPqIndex build_index(const BenchData& bench, std::size_t nlist, std::size_t m,
                       std::size_t cb, PQVariant variant) {
  IvfPqParams p;
  p.nlist = nlist;
  p.pq.m = m;
  p.pq.cb_entries = cb;
  p.pq.train_iters = 10;
  p.coarse_iters = 10;
  p.variant = variant;
  IvfPqIndex index;
  index.train(bench.data.learn, p);
  index.add(bench.data.base);
  return index;
}

PlatformParams scaled_cpu_platform(std::size_t num_dpus) {
  const double ratio = static_cast<double>(num_dpus) / 2530.0;
  PlatformParams cpu = cpu_platform(32.0 * ratio);
  // Memory bandwidth scales with the platform fraction; cache bandwidth is
  // already per-thread inside cpu_platform().
  cpu.bandwidth_Bps *= ratio;
  return cpu;
}

AnnWorkload workload_for(const IvfPqIndex& index, std::size_t num_base,
                         std::size_t num_queries, std::size_t k, std::size_t nprobe) {
  AnnWorkload w;
  w.N = static_cast<double>(num_base);
  w.Q = static_cast<double>(num_queries);
  w.D = static_cast<double>(index.dim());
  w.K = static_cast<double>(k);
  w.P = static_cast<double>(nprobe);
  w.C = static_cast<double>(num_base) / static_cast<double>(index.nlist());
  w.M = static_cast<double>(index.pq().m());
  w.CB = static_cast<double>(index.pq().cb_entries());
  return w;
}

CpuRun run_cpu(const BenchData& bench, const IvfPqIndex& index, std::size_t k,
               std::size_t nprobe, std::size_t num_dpus) {
  CpuRun run;
  CpuIvfPq cpu(index);
  const auto results = cpu.search_batch(bench.data.queries, k, nprobe, &run.stats);
  run.recall = mean_recall_at_k(results, bench.ground_truth, k);
  run.measured_qps = run.stats.qps();

  const AnnWorkload w = workload_for(index, bench.data.base.count(),
                                     bench.data.queries.count(), k, nprobe);
  run.modeled_seconds =
      estimate_single(w, scaled_cpu_platform(num_dpus), /*multiplier_less=*/false);
  run.modeled_qps = static_cast<double>(bench.data.queries.count()) / run.modeled_seconds;
  return run;
}

DrimRun run_drim(const BenchData& bench, const IvfPqIndex& index,
                 const DrimEngineOptions& options, std::size_t k, std::size_t nprobe,
                 std::size_t threads) {
  DrimRun run;
  run.host_threads = configure_host_threads(threads);
  WallTimer timer;
  DrimAnnEngine engine(index, bench.data.learn, options);
  run.load_wall_seconds = timer.seconds();
  timer.reset();
  run.results = engine.search(bench.data.queries, k, nprobe, &run.stats);
  run.wall_seconds = timer.seconds();
  run.recall = mean_recall_at_k(run.results, bench.ground_truth, k);
  if (const auto* array = dynamic_cast<const DpuArrayPlatform*>(&engine.platform())) {
    run.mram_resident_bytes = array->resident_bytes();
  }
  run.modeled_seconds = run.stats.total_seconds;
  run.modeled_qps = run.stats.qps();
  run.batch_ms = tail_summary(run.stats.batch_seconds);
  run.batch_ms.p50 *= 1e3;
  run.batch_ms.p95 *= 1e3;
  run.batch_ms.p99 *= 1e3;
  run.batch_ms.mean *= 1e3;
  run.batch_ms.max *= 1e3;
  return run;
}

DrimEngineOptions default_engine_options(const BenchScale& scale, std::size_t nprobe) {
  DrimEngineOptions o;
  o.pim.num_dpus = scale.num_dpus;
  o.layout.split_threshold = 2048;  // paper-regime clusters hold thousands
  o.layout.dup_copies = 1;
  o.layout.dup_fraction = 0.25;
  o.heat_nprobe = nprobe;
  return o;
}

BackendRun run_backend(const BenchData& bench, AnnBackend& backend, std::size_t k,
                       std::size_t nprobe) {
  BackendRun run;
  WallTimer timer;
  const auto results = backend.search(bench.data.queries, k, nprobe);
  run.wall_seconds = timer.seconds();
  run.recall = mean_recall_at_k(results, bench.ground_truth, k);
  run.stats = backend.stats();
  run.modeled_seconds = run.stats.total_seconds;
  run.modeled_qps = run.stats.qps();
  return run;
}

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  // JSON has no inf/nan literals; null is the conventional stand-in.
  std::string s(buf);
  if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

/// Run one git command; returns true when it exited 0, with its (trimmed)
/// stdout in `out`.
bool run_git(const char* cmd, std::string& out) {
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return false;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe)) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return status == 0;
}

}  // namespace

GitState query_git_state() {
  GitState g;
  std::string rev;
  if (run_git("git rev-parse HEAD 2>/dev/null", rev) && !rev.empty()) {
    g.rev = rev;
  } else {
    return g;  // not a repository: "unknown", clean, attached
  }
  std::string status;
  if (run_git("git status --porcelain 2>/dev/null", status)) {
    g.dirty = !status.empty();
  }
  std::string ref;
  g.detached = !run_git("git symbolic-ref -q HEAD 2>/dev/null", ref);
  return g;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_seconds_(steady_seconds()) {}

void BenchReport::set_config(const std::string& key, const std::string& value) {
  // Built with += rather than "\"" + ... + "\"": GCC 12 flags the latter
  // with a false-positive -Wrestrict under -O2.
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  config_.emplace_back(key, std::move(quoted));
}

void BenchReport::set_config(const std::string& key, double value) {
  config_.emplace_back(key, json_number(value));
}

void BenchReport::set_config(const std::string& key, std::size_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void BenchReport::add_row(const std::string& label) {
  rows_.push_back(Row{label, {}});
}

void BenchReport::add_metric(const std::string& key, double value) {
  if (rows_.empty()) add_row("");
  rows_.back().metrics.emplace_back(key, value);
}

std::string BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::vector<Row> rows = rows_;
  rows.push_back(Row{"host", {{"peak_rss_mb", peak_rss_mb()}}});
  std::ofstream out(path);
  const GitState git = query_git_state();
  out << "{\n";
  out << "  \"bench\": \"" << json_escape(name_) << "\",\n";
  out << "  \"git_rev\": \"" << json_escape(git.rev) << "\",\n";
  out << "  \"git_dirty\": " << (git.dirty ? "true" : "false") << ",\n";
  out << "  \"git_detached\": " << (git.detached ? "true" : "false") << ",\n";
  out << "  \"host_wall_seconds\": "
      << json_number(steady_seconds() - start_seconds_) << ",\n";
  out << "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i) out << ", ";
    out << "\"" << json_escape(config_[i].first) << "\": " << config_[i].second;
  }
  out << "},\n";
  out << "  \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "    {\"label\": \"" << json_escape(rows[r].label)
        << "\", \"metrics\": {";
    for (std::size_t i = 0; i < rows[r].metrics.size(); ++i) {
      if (i) out << ", ";
      out << "\"" << json_escape(rows[r].metrics[i].first)
          << "\": " << json_number(rows[r].metrics[i].second);
    }
    out << "}}" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("[bench] wrote %s\n", path.c_str());
  return path;
}

double read_baseline_metric(const std::string& path, const std::string& label,
                            const std::string& metric) {
  std::ifstream in(path);
  if (!in) return -1.0;
  std::string line;
  const std::string label_needle = "\"label\": \"" + label + "\"";
  const std::string metric_needle = "\"" + metric + "\": ";
  while (std::getline(in, line)) {
    if (line.find(label_needle) == std::string::npos) continue;
    const std::size_t at = line.find(metric_needle);
    if (at == std::string::npos) return -1.0;
    return std::atof(line.c_str() + at + metric_needle.size());
  }
  return -1.0;
}

void print_rule(std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

void print_title(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

std::string format_batch_tail(const TailSummary& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f", t.p50, t.p95, t.p99);
  return buf;
}

}  // namespace drim::bench
