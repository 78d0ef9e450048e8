// Tests for the runtime scheduler: task completeness (every (q, slice)
// scheduled exactly once), replica choice, load prediction, and the
// inter-batch filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "drim/scheduler.hpp"

namespace drim {
namespace {

struct SchedulerWorld {
  SyntheticData data;
  IvfPqIndex index;
  std::unique_ptr<PimIndexData> pim_data;
  std::vector<double> heat;
  std::unique_ptr<DataLayout> layout;

  explicit SchedulerWorld(const LayoutParams& params, std::size_t num_dpus = 12) {
    SyntheticSpec spec;
    spec.num_base = 4000;
    spec.num_queries = 80;
    spec.num_learn = 1500;
    spec.num_components = 32;
    spec.query_skew = 1.0;
    data = make_sift_like(spec);

    IvfPqParams p;
    p.nlist = 32;
    p.pq.m = 8;
    p.pq.cb_entries = 16;
    index.train(data.learn, p);
    index.add(data.base);
    pim_data = std::make_unique<PimIndexData>(index);
    heat = estimate_heat(index, data.queries, 8);
    layout = std::make_unique<DataLayout>(*pim_data, num_dpus, heat, params);
  }

  std::vector<std::vector<std::uint32_t>> probes(std::size_t nprobe) const {
    std::vector<std::vector<std::uint32_t>> out(data.queries.count());
    for (std::size_t q = 0; q < data.queries.count(); ++q) {
      out[q] = index.locate_clusters(data.queries.row(q), nprobe);
    }
    return out;
  }
};

LayoutParams default_params() {
  LayoutParams p;
  p.split_threshold = 128;
  p.dup_copies = 1;
  p.dup_fraction = 0.2;
  return p;
}

TEST(Scheduler, EveryQuerySliceScheduledExactlyOnce) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const auto probes = world.probes(8);
  const Assignment a = sched.schedule(probes, {}, /*final_batch=*/true);

  // Expected task multiset: for each query, one task per (cluster, slice).
  std::map<std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>, int> expected;
  for (std::size_t q = 0; q < probes.size(); ++q) {
    for (std::uint32_t c : probes[q]) {
      const auto& groups = world.layout->slice_groups(c);
      for (std::size_t s = 0; s < groups.size(); ++s) {
        if (!groups[s].empty()) {
          ++expected[{static_cast<std::uint32_t>(q),
                      {c, static_cast<std::uint32_t>(s)}}];
        }
      }
    }
  }

  std::map<std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>, int> got;
  for (const auto& dpu_tasks : a.per_dpu) {
    for (const Task& t : dpu_tasks) {
      const Shard& sh = world.layout->shard(t.shard);
      // Slice index = position of this shard's range within the cluster.
      const auto& groups = world.layout->slice_groups(sh.cluster);
      std::uint32_t slice = 0;
      for (std::size_t s = 0; s < groups.size(); ++s) {
        const Shard& rep = world.layout->shard(groups[s].front());
        if (rep.begin == sh.begin && rep.end == sh.end) {
          slice = static_cast<std::uint32_t>(s);
          break;
        }
      }
      ++got[{t.query, {sh.cluster, slice}}];
    }
  }
  EXPECT_TRUE(a.deferred.empty());
  EXPECT_EQ(got, expected);
}

TEST(Scheduler, TasksLandOnDpusHoldingTheShard) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const Assignment a = sched.schedule(world.probes(8), {}, true);
  for (std::size_t d = 0; d < a.per_dpu.size(); ++d) {
    for (const Task& t : a.per_dpu[d]) {
      EXPECT_EQ(world.layout->shard(t.shard).dpu, d);
    }
  }
}

TEST(Scheduler, PredictedLoadMatchesTaskCosts) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const Assignment a = sched.schedule(world.probes(4), {}, true);
  for (std::size_t d = 0; d < a.per_dpu.size(); ++d) {
    double sum = 0.0;
    for (const Task& t : a.per_dpu[d]) {
      sum += sched.task_cost(world.layout->shard(t.shard));
    }
    EXPECT_NEAR(a.predicted_load[d], sum, 1e-6 * std::max(1.0, sum));
  }
}

TEST(Scheduler, Eq15LatencyLinearInShardSize) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.l_lut = 100.0;
  p.l_calu = 2.0;
  p.l_sortu = 1.0;
  RuntimeScheduler sched(*world.layout, p);
  Shard small;
  small.begin = 0;
  small.end = 10;
  Shard big;
  big.begin = 0;
  big.end = 100;
  EXPECT_DOUBLE_EQ(sched.task_cost(small), 100.0 + 10 * 3.0);
  EXPECT_DOUBLE_EQ(sched.task_cost(big), 100.0 + 100 * 3.0);
}

TEST(Scheduler, FilterDefersWorkFromOverloadedDpus) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.enable_filter = true;
  p.filter_slack = 0.0;  // aggressive: anything above mean defers
  RuntimeScheduler sched(*world.layout, p);
  const Assignment a = sched.schedule(world.probes(8), {}, /*final_batch=*/false);
  EXPECT_GT(a.deferred.size(), 0u);

  // Conservation: deferred + scheduled == total demand.
  std::size_t scheduled = 0;
  for (const auto& tasks : a.per_dpu) scheduled += tasks.size();
  const Assignment all = sched.schedule(world.probes(8), {}, true);
  std::size_t total = 0;
  for (const auto& tasks : all.per_dpu) total += tasks.size();
  EXPECT_EQ(scheduled + a.deferred.size(), total);
}

TEST(Scheduler, FinalBatchNeverDefers) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.enable_filter = true;
  p.filter_slack = 0.0;
  RuntimeScheduler sched(*world.layout, p);
  const Assignment a = sched.schedule(world.probes(8), {}, /*final_batch=*/true);
  EXPECT_TRUE(a.deferred.empty());
}

TEST(Scheduler, CarriedTasksAreRescheduled) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const auto probes = world.probes(4);
  const Assignment first = sched.schedule(probes, {}, true);

  // Take a few tasks and carry them into an empty batch.
  std::vector<Task> carried;
  for (const auto& tasks : first.per_dpu) {
    for (const Task& t : tasks) {
      carried.push_back(t);
      if (carried.size() >= 5) break;
    }
    if (carried.size() >= 5) break;
  }
  std::vector<std::vector<std::uint32_t>> empty_probes(probes.size());
  const Assignment second = sched.schedule(empty_probes, carried, true);
  std::size_t scheduled = 0;
  for (const auto& tasks : second.per_dpu) scheduled += tasks.size();
  EXPECT_EQ(scheduled, carried.size());
}

TEST(Scheduler, DuplicationSpreadsContendedCluster) {
  // Observation 2 in its pure form: every query in the batch probes the SAME
  // cluster. Without replicas all tasks serialize on the cluster's one DPU;
  // with replicas the scheduler fans them out.
  LayoutParams no_dup = default_params();
  no_dup.enable_duplicate = false;
  no_dup.enable_split = false;
  LayoutParams with_dup = no_dup;
  with_dup.enable_duplicate = true;
  with_dup.dup_copies = 3;
  with_dup.dup_fraction = 1.0;  // duplicate everything so the target is covered

  SchedulerWorld a(no_dup), b(with_dup);

  // All 40 queries hit cluster 0 only.
  std::vector<std::vector<std::uint32_t>> probes(40, std::vector<std::uint32_t>{0});

  RuntimeScheduler sa(*a.layout, SchedulerParams{});
  RuntimeScheduler sb(*b.layout, SchedulerParams{});
  const auto pa = sa.schedule(probes, {}, true).predicted_load;
  const auto pb = sb.schedule(probes, {}, true).predicted_load;

  // Without duplication one DPU carries everything.
  std::size_t loaded_a = 0, loaded_b = 0;
  for (double l : pa) loaded_a += (l > 0.0);
  for (double l : pb) loaded_b += (l > 0.0);
  EXPECT_EQ(loaded_a, 1u);
  EXPECT_EQ(loaded_b, 4u);  // primary + 3 replicas
  EXPECT_LT(imbalance_factor(pb), imbalance_factor(pa));
}

TEST(Scheduler, PlacesSingleOwnerTasksBeforeChoosingReplicas) {
  // Two DPUs, no splits, one hot cluster A duplicated onto both. Query 0
  // probes A and query 1 probes a single-owner cluster B that shares a DPU
  // with A's primary, so A's task arrives before B's. With every task
  // priced alike, the optimum puts them on different DPUs; choosing A's
  // replica before B is placed stacks both on A's primary DPU.
  LayoutParams lp = default_params();
  lp.enable_split = false;
  lp.dup_copies = 1;
  lp.dup_fraction = 0.05;  // 1 of 32 clusters
  SchedulerWorld world(lp, 2);
  const DataLayout& layout = *world.layout;

  std::uint32_t a = ~0u;
  for (std::uint32_t c = 0; c < world.index.nlist() && a == ~0u; ++c) {
    const auto& groups = layout.slice_groups(c);
    if (groups.size() == 1 && groups[0].size() == 2) a = c;
  }
  ASSERT_NE(a, ~0u) << "no duplicated cluster";
  const std::uint32_t primary_dpu = layout.shard(layout.slice_groups(a)[0].front()).dpu;
  std::uint32_t b = ~0u;
  for (std::uint32_t c = 0; c < world.index.nlist() && b == ~0u; ++c) {
    const auto& groups = layout.slice_groups(c);
    if (c != a && groups.size() == 1 && groups[0].size() == 1 &&
        layout.shard(groups[0][0]).dpu == primary_dpu) {
      b = c;
    }
  }
  ASSERT_NE(b, ~0u) << "no single-owner cluster beside A's primary";

  SchedulerParams p;
  p.l_lut = 1.0;
  p.l_calu = 0.0;
  p.l_sortu = 0.0;
  p.enable_filter = false;
  RuntimeScheduler sched(layout, p);
  const std::vector<std::vector<std::uint32_t>> probes = {{a}, {b}};
  const Assignment out = sched.schedule(probes, {}, true);
  const double max_load =
      *std::max_element(out.predicted_load.begin(), out.predicted_load.end());
  EXPECT_DOUBLE_EQ(max_load, 1.0);  // two unit tasks over two DPUs
  ASSERT_EQ(out.per_dpu[primary_dpu].size(), 1u);
  EXPECT_EQ(out.per_dpu[primary_dpu][0].query, 1u);
}

TEST(Scheduler, Eq15PricesTheListedTable) {
  // Slices of 16 points reference only part of each 16-entry codebook, so
  // equal-size slices build tables of different sizes.
  LayoutParams lp = default_params();
  lp.split_threshold = 16;
  SchedulerWorld world(lp);
  DrimEngineOptions o;
  o.pim.num_dpus = 12;
  o.platform = PimPlatformKind::kAnalytic;
  o.layout = lp;
  o.enable_q4 = true;
  DrimAnnEngine engine(world.index, world.data.learn, o);
  const RuntimeScheduler& sched = engine.scheduler();

  // Of the full-size slices, the ones with the fewest and most listed entries.
  const Shard* fewest = nullptr;
  const Shard* most = nullptr;
  const auto entries = [&](const Shard& sh) { return engine.codeword_list(sh.id).size(); };
  for (const Shard& sh : engine.layout().shards()) {
    if (sh.size() != lp.split_threshold) continue;
    if (fewest == nullptr || entries(sh) < entries(*fewest)) fewest = &sh;
    if (most == nullptr || entries(sh) > entries(*most)) most = &sh;
  }
  ASSERT_NE(fewest, nullptr);
  ASSERT_LT(entries(*fewest), entries(*most));
  EXPECT_LT(sched.task_cost(*fewest), sched.task_cost(*most));

  // q4 tasks build dense tables, so equal sizes price alike.
  EXPECT_DOUBLE_EQ(sched.task_cost(*fewest, true), sched.task_cost(*most, true));

  // Without lists every full-rung task prices the dense l_lut.
  const RuntimeScheduler dense(engine.layout(), sched.params());
  EXPECT_DOUBLE_EQ(dense.task_cost(*fewest), dense.task_cost(*most));
  EXPECT_DOUBLE_EQ(dense.task_cost(*fewest),
                   sched.params().l_lut + 16.0 * (sched.params().l_calu +
                                                  sched.params().l_sortu));
  EXPECT_DOUBLE_EQ(dense.task_cost(*fewest, true), sched.task_cost(*fewest, true));
  EXPECT_LT(sched.task_cost(*most), dense.task_cost(*most));
}

}  // namespace
}  // namespace drim
