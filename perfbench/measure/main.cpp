// perfbench: the repository benchmark's measuring program (run it through
// perfbench/run.py, which builds it). One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--out <dir>]
//
// It generates the workload's inputs from the seed, repeats set-up +
// measured-phase episodes until --seconds of wall time are spent (at least
// three episodes, four when tracing), checks every answer, and prints one
// JSON object as its last stdout line: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. A traced run alternates untraced and
// traced episodes, so the tracing overhead is measured within the run, and
// writes the last traced episode's host wall spans and the simulator's
// virtual-clock trace to --out. Exit status is nonzero when any correctness
// check failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "measure/workloads.hpp"
#include "support/metrics.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the printed names against it).
const MetricDef kEndToEnd[] = {
    {"recall_at_10", "frac"},    {"modeled_qps", "1/s"},    {"goodput_qps", "1/s"},
    {"modeled_p50_ms", "ms"},    {"modeled_p99_ms", "ms"},  {"max_qps_at_slo", "1/s"},
    {"host_qps", "1/s"},         {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"failed_frac", "frac"},
    {"latency_samples", "count"},
    {"latency_tail_pct", "%"},
    {"serve.self_wall_s", "s"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.batch_fill", "frac"},
    {"serve.deferred_tasks_per_step", "count"},
    {"serve.shed", "count"},
    {"serve.degraded", "count"},
    {"serve.slo_violations", "count"},
    {"backend.enqueue_wall_us_p50", "us"},
    {"backend.enqueue_wall_us_p99", "us"},
    {"backend.step_wall_ms_p50", "ms"},
    {"backend.step_wall_ms_p99", "ms"},
    {"backend.take_wall_s", "s"},
    {"backend.step_modeled_ms_p50", "ms"},
    {"backend.step_modeled_ms_p99", "ms"},
    {"backend.exec_share", "frac"},
    {"backend.host_share", "frac"},
    {"backend.stage_snapshot_wall_s", "s"},
    {"backend.stage_snapshot_modeled_ms", "ms"},
    {"backend.relayout_wall_s", "s"},
    {"backend.relayout_modeled_ms", "ms"},
    {"drim.engine_ctor_wall_s", "s"},
    {"drim.host_cl_s", "s"},
    {"drim.host_rerank_s", "s"},
    {"drim.transfer_in_s", "s"},
    {"drim.transfer_out_s", "s"},
    {"drim.dpu_busy_s", "s"},
    {"drim.tasks_per_query", "count"},
    {"drim.dc_bytes_saved", "bytes"},
    {"drim.energy_j_per_query", "J"},
    {"drim.index_load_s", "s"},
    {"pim.phase_s.CL", "s"},
    {"pim.phase_s.RC", "s"},
    {"pim.phase_s.LC", "s"},
    {"pim.phase_s.DC", "s"},
    {"pim.phase_s.TS", "s"},
    {"pim.phase_s.AUX", "s"},
    {"pim.mram_read_bytes", "bytes"},
    {"pim.mram_write_bytes", "bytes"},
    {"pim.instr_cycles", "count"},
    {"pim.dma_cycles", "count"},
    {"pim.dpu_imbalance", "ratio"},
    {"cluster.step_wall_ms_p50", "ms"},
    {"cluster.step_wall_ms_p99", "ms"},
    {"cluster.shard_busy_imbalance", "ratio"},
    {"cluster.dispatch_imbalance", "ratio"},
    {"cluster.fallback_tasks", "count"},
    {"core.train_wall_s", "s"},
    {"core.add_wall_s", "s"},
    {"core.ops_applied", "count"},
    {"core.publishes", "count"},
    {"core.publish_modeled_ms", "ms"},
    {"host.setup_user_s", "s"},
    {"host.setup_sys_s", "s"},
    {"host.setup_minflt", "count"},
    {"host.setup_majflt", "count"},
    {"host.measure_user_s", "s"},
    {"host.measure_sys_s", "s"},
    {"host.measure_minflt", "count"},
    {"host.measure_majflt", "count"},
    {"host.rss_after_setup_mb", "MB"},
    {"obs.trace_events", "count"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.span_coverage", "frac"},
};

double median(const std::vector<double>& v) { return drim::percentile(v, 50.0); }

void add_host_usage(const Episode& ep, Values& v) {
  v.emplace_back("host.setup_user_s", ep.setup_usage.user_s);
  v.emplace_back("host.setup_sys_s", ep.setup_usage.sys_s);
  v.emplace_back("host.setup_minflt", ep.setup_usage.minflt);
  v.emplace_back("host.setup_majflt", ep.setup_usage.majflt);
  v.emplace_back("host.measure_user_s", ep.measure_usage.user_s);
  v.emplace_back("host.measure_sys_s", ep.measure_usage.sys_s);
  v.emplace_back("host.measure_minflt", ep.measure_usage.minflt);
  v.emplace_back("host.measure_majflt", ep.measure_usage.majflt);
  v.emplace_back("host.rss_after_setup_mb", ep.rss_after_setup_mb);
  v.emplace_back("setup_s", ep.setup_s);
}

/// Median of each named value over `episodes`, merged into `out`.
void merge_medians(const std::vector<const Values*>& episodes, std::map<std::string, double>& out) {
  std::map<std::string, std::vector<double>> all;
  for (const Values* v : episodes) {
    for (const auto& [k, x] : *v) all[k].push_back(x);
  }
  for (auto& [k, xs] : all) out[k] = median(xs);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--threads <n>] [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::strcmp(val, "1") == 0;
    else if (key == "--threads") threads = std::strtoul(val, nullptr, 10);
    else if (key == "--out") out_dir = val;
    else return usage();
  }
  if (workload.empty() || argc % 2 == 0 || !(seconds > 0)) return usage();

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 0) threads = std::min<std::size_t>(nproc, 4);
  threads = static_cast<std::size_t>(drim::set_num_threads(static_cast<int>(threads)));

  std::unique_ptr<Workload> w;
  try {
    w = make_workload(workload, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::vector<Episode> episodes;
  std::vector<bool> traced_flags;
  std::optional<SpanRecorder> last_spans;
  std::optional<drim::obs::TraceRecorder> last_vtrace;
  const std::size_t min_episodes = trace ? 4 : 3;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0;; ++e) {
    const bool traced = trace && e % 2 == 1;
    SpanRecorder spans;
    drim::obs::TraceRecorder vtrace;
    Episode ep = w->run_episode(traced ? &spans : nullptr, traced ? &vtrace : nullptr);
    if (traced) {
      ep.traced.emplace_back("obs.trace_events",
                             static_cast<double>(spans.spans().size() + vtrace.num_events()));
      ep.traced.emplace_back("obs.span_coverage", child_coverage(spans, "episode.measure"));
      last_spans.emplace(std::move(spans));
      last_vtrace.emplace(std::move(vtrace));
    }
    episodes.push_back(std::move(ep));
    traced_flags.push_back(traced);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (episodes.size() >= min_episodes && elapsed >= seconds) break;
  }
  const double peak_rss_mb = host_usage_now().max_rss_mb;
  const Check check = w->check();

  // Correctness: every episode's checks, the reference replay, and exact
  // repetition of every modeled number across episodes.
  std::vector<std::string> errors;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    if (e > 0 && episodes[e].modeled != episodes[0].modeled) {
      errors.push_back("episode " + std::to_string(e) +
                       ": modeled numbers differ from episode 0");
    }
    for (const std::string& msg : episodes[e].errors) {
      errors.push_back("episode " + std::to_string(e) + ": " + msg);
    }
  }
  // Each failed check counts as one failed operation, each wrong answer as one.
  const std::size_t failed = errors.size() + check.wrong;
  errors.insert(errors.end(), check.errors.begin(), check.errors.end());

  std::map<std::string, double> values;
  for (const auto& [k, x] : episodes[0].modeled) values[k] = x;
  if (check.offered > 0) {
    values["failed_frac"] = failed_fraction(
        check.offered, check.shed, std::min(check.wrong, check.offered - check.shed));
  }
  std::vector<Values> host(episodes.size());
  std::vector<const Values*> untraced_host, traced_vals;
  std::vector<double> untraced_wall, traced_wall;
  double best_host_qps = 0.0;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    host[e] = episodes[e].host;
    add_host_usage(episodes[e], host[e]);
    if (traced_flags[e]) {
      traced_vals.push_back(&episodes[e].traced);
      traced_wall.push_back(episodes[e].measure_s);
    } else {
      untraced_host.push_back(&host[e]);
      untraced_wall.push_back(episodes[e].measure_s);
      best_host_qps = std::max(best_host_qps, static_cast<double>(episodes[e].requests) /
                                                  episodes[e].measure_s);
    }
  }
  merge_medians(untraced_host, values);
  merge_medians(traced_vals, values);
  // Other tenants of a shared host only ever slow an episode down, so the
  // fastest episode is the closest reading of the simulator's own cost.
  values["host_qps"] = best_host_qps;
  values["peak_rss_mb"] = peak_rss_mb;
  // ru_maxrss only grows, so only the first set-up reads as "after set-up".
  values["host.rss_after_setup_mb"] = episodes[0].rss_after_setup_mb;
  if (trace) values["obs.trace_overhead_frac"] = median(traced_wall) / median(untraced_wall) - 1.0;

  if (trace && last_spans) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    // One pair of files per workload, overwritten by each traced run.
    const std::string base = out_dir + "/" + workload;
    std::ofstream wall(base + ".wall.json");
    last_spans->write_chrome_trace(wall);
    last_vtrace->write_chrome_trace_file(base + ".virtual.json");
    std::printf("traces: %s.wall.json %s.virtual.json\n", base.c_str(), base.c_str());
  }

  for (const std::string& note : episodes[0].notes) std::printf("%s\n", note.c_str());
  for (const std::string& msg : errors) std::printf("FAILED CHECK: %s\n", msg.c_str());
  std::size_t requests = 0;
  for (const Episode& ep : episodes) requests += ep.requests;
  std::string per_episode;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s[%.4f, %.1f, %d]", e ? ", " : "", episodes[e].setup_s,
                  static_cast<double>(episodes[e].requests) / episodes[e].measure_s,
                  traced_flags[e] ? 1 : 0);
    per_episode += buf;
  }
  std::printf("context: {\"workload\": %s, \"seed\": %llu, \"episodes\": %zu, "
              "\"host_threads\": %zu, \"nproc\": %u, \"answers_checked\": %zu, "
              "\"latency_samples\": %s, \"latency_tail_pct\": %s, "
              "\"episode_setup_s_host_qps_traced\": [%s]}\n",
              json_string(workload).c_str(), static_cast<unsigned long long>(seed),
              episodes.size(), threads, nproc, check.checked,
              json_number(values["latency_samples"]).c_str(),
              json_number(values["latency_tail_pct"]).c_str(), per_episode.c_str());

  std::string metrics;
  const auto emit = [&](const MetricDef& d) {
    if (!metrics.empty()) metrics += ", ";
    const auto it = values.find(d.name);
    metrics += json_string(d.name) + ": {\"value\": " +
               json_number(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": " + json_string(d.unit) + "}";
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", requests, failed, metrics.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}
