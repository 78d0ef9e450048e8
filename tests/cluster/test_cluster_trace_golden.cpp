// Golden pins for traced routed streams through the cluster tier. Each
// configuration pushes one stream through a ClusterBackend on the analytic
// platform with a TraceRecorder attached and pins, bit for bit, 64-bit
// FNV-1a digests of the Chrome-trace bytes (every shardN/ lane name, lane
// order and event), of the per-step BackendStepStats, of the ShardHealth
// rows and of the merged answers. The values were recorded once and must not
// move under a refactor of how the router steps its shards; a change that
// means to move them has to say so and re-record them.
//
// Covered: 2 shards, and 4 shards with one shard drained after the first
// step so its exclusive clusters take the host-exact fallback. Both streams
// re-plan the layout mid-stream, so the install's flush steps traced work.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cluster_stream_data.hpp"

namespace drim::cluster {
namespace {

struct Golden {
  std::size_t steps = 0;
  std::uint64_t trace = 0;
  std::uint64_t step_stats = 0;
  std::uint64_t health = 0;
  std::uint64_t results = 0;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const TracedStream& run, const Golden& g) {
  // On a mismatch the message prints the observed values in source form.
  const std::string observed =
      "observed {" + std::to_string(run.steps.size()) + ", " + hex(run.trace_digest()) +
      ", " + hex(run.steps_digest()) + ", " + hex(run.health_digest()) + ", " +
      hex(run.results_digest()) + "}";
  EXPECT_EQ(run.steps.size(), g.steps) << observed;
  EXPECT_EQ(run.trace_digest(), g.trace) << observed;
  EXPECT_EQ(run.steps_digest(), g.step_stats) << observed;
  EXPECT_EQ(run.health_digest(), g.health) << observed;
  EXPECT_EQ(run.results_digest(), g.results) << observed;
}

using ClusterTraceGoldenTest = ClusterStreamTest;

TEST_F(ClusterTraceGoldenTest, TwoShards) {
  auto cluster = make_cluster(2);
  const TracedStream run = run_stream(*cluster, StreamPlan{});
  // The pin covers per-shard lane groups, not just a router-level trace.
  EXPECT_NE(run.trace.find("\"shard0/dpu 0\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"shard1/host/transfer\""), std::string::npos);
  // Carried work was queued when the relayout flushed the shards.
  EXPECT_GT(run.steps[StreamPlan{}.relayout_after - 1].deferred, 0u);
  expect_golden(run, {7, 0xaf2ab5ea77c6dd39ULL, 0x5b0a55c82b1b48dfULL,
                      0xc9fd77d84b096ee0ULL, 0x1d363d7e502b822eULL});
}

TEST_F(ClusterTraceGoldenTest, FourShardsOneDrainedFallsBack) {
  auto cluster = make_cluster(4);
  StreamPlan plan;
  plan.drain_shard = 2;
  const TracedStream run = run_stream(*cluster, plan);
  ASSERT_EQ(run.health.size(), 4u);
  EXPECT_TRUE(run.health[2].draining);
  EXPECT_GT(run.health[2].fallback_tasks, 0u);
  EXPECT_NE(run.trace.find("\"shard3/dpu 0\""), std::string::npos);
  EXPECT_GT(run.steps[plan.relayout_after - 1].deferred, 0u);
  expect_golden(run, {7, 0x50b2ab8330b387d5ULL, 0x6a25bac466748f22ULL,
                      0x8f9a8f75dde0cdb5ULL, 0x1d363d7e502b822eULL});
}

}  // namespace
}  // namespace drim::cluster
