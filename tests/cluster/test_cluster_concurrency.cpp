// Concurrency contract of the cluster router: a router step runs its shards
// under one parallel_for over shards, so nothing it produces may depend on
// how many host threads run them or in which order shards finish.
//  - A 4-shard traced stream (one shard drained mid-stream, a relayout
//    mid-stream) at 1 and 4 host threads yields identical ids, distances,
//    per-step stats, shard health and trace bytes.
//  - When several shards throw in step(), the router rethrows the lowest
//    shard's exception every time, even when a higher shard throws first,
//    and every other shard still completes its step.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster_stream_data.hpp"
#include "common/parallel.hpp"

namespace drim::cluster {
namespace {

using ClusterConcurrencyTest = ClusterStreamTest;

TEST_F(ClusterConcurrencyTest, FourShardStreamIsIdenticalAtOneAndFourThreads) {
  StreamPlan plan;
  plan.drain_shard = 1;
  const int restore = num_threads();
  set_num_threads(1);
  const TracedStream one = run_stream(*make_cluster(4), plan);
  set_num_threads(4);
  const TracedStream four = run_stream(*make_cluster(4), plan);
  set_num_threads(restore);

  ASSERT_EQ(one.results.size(), four.results.size());
  for (std::size_t q = 0; q < one.results.size(); ++q) {
    ASSERT_EQ(one.results[q].size(), four.results[q].size()) << "query " << q;
    for (std::size_t i = 0; i < one.results[q].size(); ++i) {
      EXPECT_EQ(one.results[q][i].id, four.results[q][i].id) << "query " << q;
      EXPECT_EQ(one.results[q][i].dist, four.results[q][i].dist) << "query " << q;
    }
  }
  ASSERT_EQ(one.steps.size(), four.steps.size());
  EXPECT_EQ(one.steps_digest(), four.steps_digest());
  ASSERT_EQ(one.health.size(), 4u);
  ASSERT_EQ(four.health.size(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(one.health[s].queue_tasks, four.health[s].queue_tasks) << "shard " << s;
    EXPECT_EQ(one.health[s].dispatched_tasks, four.health[s].dispatched_tasks);
    EXPECT_EQ(one.health[s].fallback_tasks, four.health[s].fallback_tasks);
    EXPECT_EQ(one.health[s].busy_seconds, four.health[s].busy_seconds);
  }
  EXPECT_EQ(one.health_digest(), four.health_digest());
  EXPECT_GT(one.health[1].fallback_tasks, 0u);
  EXPECT_EQ(one.trace, four.trace);
}

/// Routed-enqueue-capable test double: accepts every dispatch, answers
/// nothing, and (when armed) throws from step() after an optional delay.
class ThrowingShard final : public AnnBackend {
 public:
  ThrowingShard(std::uint32_t id, bool throws, std::chrono::milliseconds delay)
      : id_(id), throws_(throws), delay_(delay) {}

  std::string name() const override { return "throwing-double"; }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix&, std::size_t,
                                            std::size_t) override {
    return {};
  }
  void reset_stream() override { next_handle_ = 0; }
  std::uint32_t enqueue(std::span<const float>, std::size_t, std::size_t) override {
    throw std::logic_error("ThrowingShard: only routed enqueue is supported");
  }
  bool supports_routed_enqueue() const override { return true; }
  std::uint32_t enqueue_routed(std::span<const float>, std::size_t,
                               std::span<const std::uint32_t>) override {
    return next_handle_++;
  }
  BackendStepStats step(std::size_t, bool) override {
    std::this_thread::sleep_for(delay_);
    if (throws_) throw std::runtime_error("shard " + std::to_string(id_) + " failed");
    ++steps_;
    return {};
  }
  bool has_deferred() const override { return false; }
  bool finished(std::uint32_t) const override { return true; }
  std::vector<Neighbor> take_results(std::uint32_t) override { return {}; }
  std::size_t stream_depth() const override { return next_handle_; }
  double estimate_batch_seconds(std::size_t, std::size_t, std::size_t) const override {
    return 0.0;
  }
  BackendStats stats() const override { return {}; }

  std::size_t completed_steps() const { return steps_.load(); }

 private:
  std::uint32_t id_;
  bool throws_;
  std::chrono::milliseconds delay_;
  std::uint32_t next_handle_ = 0;
  std::atomic<std::size_t> steps_{0};
};

TEST_F(ClusterConcurrencyTest, RouterRethrowsTheLowestThrowingShardEveryTime) {
  constexpr std::size_t kShards = 4;
  ShardPlanParams pp;
  pp.num_shards = kShards;
  ShardPlan plan(index_->list_sizes(), std::vector<double>(index_->nlist(), 1.0), pp);
  // Shards 1 and 3 throw; shard 3 throws at once while shard 1 first sleeps,
  // so with real concurrency shard 3's exception is the first one raised.
  std::vector<std::unique_ptr<AnnBackend>> shards;
  std::vector<const ThrowingShard*> doubles;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const bool throws = s == 1 || s == 3;
    const auto delay = std::chrono::milliseconds(s == 1 ? 20 : 0);
    auto shard = std::make_unique<ThrowingShard>(s, throws, delay);
    doubles.push_back(shard.get());
    shards.push_back(std::move(shard));
  }
  ClusterBackend router(*index_, std::move(plan), std::move(shards), ClusterOptions{});

  const int restore = num_threads();
  set_num_threads(4);
  for (std::size_t q = 0; q < 8; ++q) router.enqueue(data_->queries.row(q), 10, 8);
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    try {
      router.step(0, /*flush=*/false);
      ADD_FAILURE() << "round " << round << ": step did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1 failed") << "round " << round;
    }
  }
  set_num_threads(restore);

  // A throwing shard does not cut the others' steps short.
  EXPECT_EQ(doubles[0]->completed_steps(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(doubles[2]->completed_steps(), static_cast<std::size_t>(kRounds));
}

}  // namespace
}  // namespace drim::cluster
