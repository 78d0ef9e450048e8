#pragma once
// Shared fixture for the traced cluster-stream tests: one small SIFT-like
// corpus and trained IVF-PQ index per test binary, a factory for routed
// clusters on the analytic platform, and a runner that pushes one traced
// stream through a ClusterBackend and keeps everything it produced (answers,
// per-step stats, shard health and the Chrome-trace bytes), plus a 64-bit
// FNV-1a digest to pin them with.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_backend.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "obs/trace.hpp"

namespace drim::cluster {

/// 64-bit FNV-1a over raw object bytes (and over strings byte by byte).
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) byte(b);
  }
  void add_string(const std::string& s) {
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything one traced routed stream produced.
struct TracedStream {
  std::vector<std::vector<Neighbor>> results;
  std::vector<BackendStepStats> steps;
  std::vector<ShardHealth> health;
  std::string trace;  ///< write_chrome_trace output

  std::uint64_t results_digest() const {
    Fnv1a h;
    for (const auto& row : results) {
      h.add(row.size());
      for (const Neighbor& n : row) {
        h.add(n.id);
        h.add(n.dist);
      }
    }
    return h.value();
  }
  std::uint64_t steps_digest() const {
    Fnv1a h;
    for (const BackendStepStats& s : steps) {
      h.add(s.step_seconds);
      h.add(s.host_seconds);
      h.add(s.pre_seconds);
      h.add(s.exec_seconds);
      h.add(s.fresh_queries);
      h.add(s.tasks);
      h.add(s.deferred);
      h.add(s.submit_seconds);
      h.add(s.complete_seconds);
    }
    return h.value();
  }
  std::uint64_t health_digest() const {
    Fnv1a h;
    for (const ShardHealth& s : health) {
      h.add(s.shard);
      h.add(s.draining);
      h.add(s.queue_tasks);
      h.add(s.dispatched_queries);
      h.add(s.dispatched_tasks);
      h.add(s.fallback_tasks);
      h.add(s.busy_seconds);
    }
    return h.value();
  }
  std::uint64_t trace_digest() const {
    Fnv1a h;
    h.add_string(trace);
    return h.value();
  }
};

/// How run_stream perturbs the stream mid-way.
struct StreamPlan {
  std::size_t step_queries = 12;  ///< fresh queries per unflushed step
  /// Drain this shard after the first step (no drain when >= num_shards).
  std::uint32_t drain_shard = ~0u;
  /// Re-plan every shard's layout after this many steps (0 = never), while
  /// carried work is still queued, so the install's flush steps traced work.
  std::size_t relayout_after = 2;
};

class ClusterStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 64;
    spec.num_learn = 2500;
    spec.num_components = 48;
    data_ = new SyntheticData(make_sift_like(spec));

    IvfPqParams p;
    p.nlist = 48;
    p.pq.m = 16;
    p.pq.cb_entries = 32;
    index_ = new IvfPqIndex();
    index_->train(data_->learn, p);
    index_->add(data_->base);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
  }

  static DrimEngineOptions options() {
    DrimEngineOptions o;
    o.pim.num_dpus = 8;  // per shard
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 16;
    o.fuse_width = 4;  // fused groups put pim/fusion spans and counters on the trace
    o.platform = PimPlatformKind::kAnalytic;
    return o;
  }

  /// A routed cluster of `shards` shards, as the concrete type.
  static std::unique_ptr<ClusterBackend> make_cluster(std::size_t shards) {
    ClusterOptions copts;
    copts.num_shards = shards;
    copts.replication_fraction = 0.25;
    auto backend = make_cluster_backend(BackendKind::kDrim, *index_, data_->learn,
                                        options(), copts);
    return std::unique_ptr<ClusterBackend>(
        dynamic_cast<ClusterBackend*>(backend.release()));
  }

  /// Push every query through `cluster` as one traced stream: unflushed
  /// steps of plan.step_queries fresh queries, an optional drain after the
  /// first step and relayout mid-stream, then flushed steps until nothing is
  /// carried. Like the serving loop, the trace cursor is placed at each
  /// step's start (the previous step's completion) before the step.
  static TracedStream run_stream(ClusterBackend& cluster, const StreamPlan& plan) {
    obs::TraceRecorder trace;
    cluster.reset_stream();
    cluster.set_trace(&trace);
    const FloatMatrix& queries = data_->queries;
    std::vector<std::uint32_t> handles;
    for (std::size_t q = 0; q < queries.count(); ++q) {
      const std::size_t k = q % 3 == 0 ? 5 : 10;
      handles.push_back(cluster.enqueue(queries.row(q), k, 8));
    }

    TracedStream out;
    double clock = 0.0;
    const auto step = [&](std::size_t max_queries, bool flush) {
      trace.set_now(clock);
      out.steps.push_back(cluster.step(max_queries, flush));
      clock = out.steps.back().complete_seconds;
    };
    std::size_t stepped = 0;
    while (stepped < handles.size()) {
      step(plan.step_queries, /*flush=*/false);
      stepped += plan.step_queries;
      if (out.steps.size() == 1 && plan.drain_shard < cluster.num_shards()) {
        cluster.set_shard_drained(plan.drain_shard, true);
      }
      if (plan.relayout_after != 0 && out.steps.size() == plan.relayout_after) {
        trace.set_now(clock);
        clock += cluster.stage_relayout();
      }
    }
    while (cluster.has_deferred()) step(0, /*flush=*/true);

    for (std::uint32_t h : handles) out.results.push_back(cluster.take_results(h));
    out.health = cluster.shard_health();
    cluster.set_trace(nullptr);
    std::ostringstream json;
    trace.write_chrome_trace(json);
    out.trace = json.str();
    return out;
  }

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

}  // namespace drim::cluster
