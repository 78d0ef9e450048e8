// Tests for pipelined batch execution: the PipelineTimeline stage scheduler
// (half-duplex host link, exclusive DPU array, `depth` staging slots) and the
// engine-level invariants it must preserve — results bit-identical to the
// serial path at every depth on both platforms, transfer tallies unchanged
// (overlap moves stages in time, it never changes what is transferred), and
// the pipelined makespan bounded below by each resource's busy time and above
// by the serial stage sum. Also pins the halved ping/pong staging capacity at
// depth 2 and the determinism of the parallelized result merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "pim/pim_system.hpp"
#include "pim/pipeline.hpp"

namespace drim {
namespace {

// ---- PipelineTimeline unit tests ----

PipelineStageTimes stages(double in, double lo, double compute, double out,
                          double host = 0.0) {
  PipelineStageTimes st;
  st.transfer_in_seconds = in;
  st.launch_overhead_seconds = lo;
  st.compute_seconds = compute;
  st.transfer_out_seconds = out;
  st.host_seconds = host;
  return st;
}

PipelineSchedule run_one(PipelineTimeline& tl, double submit,
                         const PipelineStageTimes& st, double pre = 0.0) {
  tl.begin_batch(submit, pre);
  return tl.finish_batch(st);
}

TEST(PipelineTimeline, SingleBatchIsTheStageSum) {
  PipelineTimeline tl(2);
  const PipelineSchedule s = run_one(tl, 0.0, stages(1.0, 0.25, 4.0, 2.0));
  EXPECT_DOUBLE_EQ(s.in_start, 0.0);
  EXPECT_DOUBLE_EQ(s.compute_start, 1.0);
  EXPECT_DOUBLE_EQ(s.out_start, 1.0 + 0.25 + 4.0);
  EXPECT_DOUBLE_EQ(s.done_seconds, 1.0 + 0.25 + 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(tl.last_done_seconds(), s.done_seconds);
  EXPECT_DOUBLE_EQ(tl.link_busy_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(tl.dpu_busy_seconds(), 4.25);
}

TEST(PipelineTimeline, SecondBatchTransfersUnderFirstBatchCompute) {
  PipelineTimeline tl(2);
  const PipelineSchedule a = run_one(tl, 0.0, stages(1.0, 0.0, 10.0, 1.0));
  const PipelineSchedule b = run_one(tl, 0.0, stages(1.0, 0.0, 10.0, 1.0));
  // Double buffering: batch b's query push rides the idle link while batch
  // a's compute occupies the DPU array.
  EXPECT_DOUBLE_EQ(b.in_start, 1.0);
  EXPECT_LT(b.in_start, a.compute_end);
  // The DPU array is exclusive: b computes only after a releases it.
  EXPECT_DOUBLE_EQ(b.compute_start, a.compute_end);
  // Overlap shortens the makespan below the serial stage sum.
  EXPECT_LT(tl.last_done_seconds(), 2.0 * 12.0);
}

TEST(PipelineTimeline, LinkIsHalfDuplex) {
  PipelineTimeline tl(3);
  const PipelineSchedule a = run_one(tl, 0.0, stages(1.0, 0.0, 1.0, 5.0));
  const PipelineSchedule b = run_one(tl, 0.0, stages(4.0, 0.0, 1.0, 1.0));
  // b's push and a's result pull want the link at the same time; they must
  // not overlap (one shared half-duplex resource).
  const bool disjoint = b.in_end <= a.out_start ||
                        b.in_start >= a.out_end;
  EXPECT_TRUE(disjoint);
  // Everything the link carried is accounted.
  EXPECT_DOUBLE_EQ(tl.link_busy_seconds(), 1.0 + 5.0 + 4.0 + 1.0);
}

TEST(PipelineTimeline, MakespanAtLeastEachResourceBusyTime) {
  PipelineTimeline tl(2);
  for (int i = 0; i < 5; ++i) {
    run_one(tl, 0.0, stages(0.5 + 0.1 * i, 0.1, 2.0, 0.7), 0.2);
  }
  EXPECT_GE(tl.last_done_seconds(), tl.link_busy_seconds());
  EXPECT_GE(tl.last_done_seconds(), tl.dpu_busy_seconds());
}

TEST(PipelineTimeline, DepthTwoBlocksOnSlotReuse) {
  PipelineTimeline tl(2);
  const PipelineSchedule a = run_one(tl, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  run_one(tl, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  PipelineTimeline deep(3);
  const PipelineSchedule da = run_one(deep, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  run_one(deep, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  // Batch 2 reuses batch 0's staging slot at depth 2, so its push must wait
  // for batch 0's result pull to vacate the slot; at depth 3 it has its own
  // slot and only contends for the link.
  const PipelineSchedule c = run_one(tl, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  const PipelineSchedule dc = run_one(deep, 0.0, stages(1.0, 0.0, 10.0, 3.0));
  EXPECT_GE(c.in_start, a.out_end);
  EXPECT_LT(dc.in_start, da.out_end);
}

TEST(PipelineTimeline, DoneTimesAreMonotone) {
  PipelineTimeline tl(4);
  double prev = 0.0;
  for (int i = 0; i < 8; ++i) {
    const PipelineSchedule s =
        run_one(tl, 0.1 * i, stages(0.3, 0.05, 1.0 / (i + 1), 0.2));
    EXPECT_GE(s.done_seconds, prev);
    prev = s.done_seconds;
  }
}

TEST(PipelineTimeline, DepthZeroClampsToOne) {
  PipelineTimeline tl(0);
  EXPECT_EQ(tl.depth(), 1u);
}

TEST(PipelineTimeline, RejectsNestedBeginBatch) {
  PipelineTimeline tl(2);
  tl.begin_batch(0.0, 0.0);
  EXPECT_THROW(tl.begin_batch(0.0, 0.0), std::logic_error);
}

// ---- engine-level invariants ----

/// Run `fn` with the host executor capped at `threads`, restoring after.
template <typename Fn>
auto with_threads(int threads, const Fn& fn) {
  const int saved = num_threads();
  set_num_threads(threads);
  auto result = fn();
  set_num_threads(saved);
  return result;
}

class PipelinedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 48;
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

  static DrimEngineOptions options(PimPlatformKind platform, std::size_t depth) {
    DrimEngineOptions o;
    o.pim.num_dpus = 16;
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 12;  // several batches per search, filter carry-over active
    o.platform = platform;
    o.pipeline_depth = depth;
    return o;
  }

  struct Run {
    std::vector<std::vector<Neighbor>> results;
    DrimSearchStats stats;
  };

  static Run run(PimPlatformKind platform, std::size_t depth,
                 bool cl_on_pim = false) {
    DrimEngineOptions o = options(platform, depth);
    o.cl_on_pim = cl_on_pim;
    Run r;
    DrimAnnEngine engine(*index_, data_->learn, o);
    r.results = engine.search(data_->queries, 10, 8, &r.stats);
    return r;
  }

  static void expect_identical_results(const Run& a, const Run& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t q = 0; q < a.results.size(); ++q) {
      ASSERT_EQ(a.results[q].size(), b.results[q].size()) << "query " << q;
      for (std::size_t i = 0; i < a.results[q].size(); ++i) {
        EXPECT_EQ(a.results[q][i].id, b.results[q][i].id)
            << "query " << q << " rank " << i;
        EXPECT_EQ(a.results[q][i].dist, b.results[q][i].dist)
            << "query " << q << " rank " << i;
      }
    }
  }

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(PipelinedEngineTest, ResultsBitIdenticalAtEveryDepthOnBothPlatforms) {
  for (PimPlatformKind platform :
       {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    SCOPED_TRACE(pim_platform_name(platform));
    const Run serial = run(platform, 1);
    for (std::size_t depth : {std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(depth);
      expect_identical_results(serial, run(platform, depth));
    }
  }
}

TEST_F(PipelinedEngineTest, TransferTalliesAreExactlyDepthInvariant) {
  for (PimPlatformKind platform :
       {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    SCOPED_TRACE(pim_platform_name(platform));
    const Run serial = run(platform, 1);
    for (std::size_t depth : {std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(depth);
      const Run piped = run(platform, depth);
      // Overlap reschedules transfers; it must not change what crosses the
      // link or what the DPUs execute.
      EXPECT_DOUBLE_EQ(piped.stats.transfer_in_seconds,
                       serial.stats.transfer_in_seconds);
      EXPECT_DOUBLE_EQ(piped.stats.transfer_out_seconds,
                       serial.stats.transfer_out_seconds);
      EXPECT_DOUBLE_EQ(piped.stats.dpu_busy_seconds,
                       serial.stats.dpu_busy_seconds);
      EXPECT_EQ(piped.stats.tasks, serial.stats.tasks);
      EXPECT_EQ(piped.stats.batches, serial.stats.batches);
    }
  }
}

TEST_F(PipelinedEngineTest, PipelinedTotalBoundedBySerialAndByResourceBusyTimes) {
  for (PimPlatformKind platform :
       {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    SCOPED_TRACE(pim_platform_name(platform));
    const Run serial = run(platform, 1);
    double prev_total = serial.stats.total_seconds;
    for (std::size_t depth : {std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(depth);
      const Run piped = run(platform, depth);
      // Overlap can only help, and a deeper pipe can only help further.
      EXPECT_LE(piped.stats.total_seconds, prev_total * (1.0 + 1e-12));
      // ... but no schedule beats either bottleneck resource's busy time.
      EXPECT_GE(piped.stats.total_seconds,
                piped.stats.transfer_in_seconds + piped.stats.transfer_out_seconds);
      EXPECT_GE(piped.stats.total_seconds, piped.stats.dpu_busy_seconds);
      prev_total = piped.stats.total_seconds;
    }
  }
}

TEST_F(PipelinedEngineTest, PlatformsAgreeExactlyOnThePipelinedTimeline) {
  for (std::size_t depth : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(depth);
    const Run sim = run(PimPlatformKind::kSim, depth);
    const Run analytic = run(PimPlatformKind::kAnalytic, depth);
    ASSERT_EQ(sim.stats.batch_seconds.size(), analytic.stats.batch_seconds.size());
    for (std::size_t b = 0; b < sim.stats.batch_seconds.size(); ++b) {
      EXPECT_DOUBLE_EQ(analytic.stats.batch_seconds[b], sim.stats.batch_seconds[b])
          << "batch " << b;
    }
    EXPECT_DOUBLE_EQ(analytic.stats.total_seconds, sim.stats.total_seconds);
  }
}

TEST_F(PipelinedEngineTest, ClOnPimResultsBitIdenticalAcrossDepths) {
  const Run serial = run(PimPlatformKind::kSim, 1, /*cl_on_pim=*/true);
  const Run piped = run(PimPlatformKind::kSim, 2, /*cl_on_pim=*/true);
  expect_identical_results(serial, piped);
  EXPECT_LE(piped.stats.total_seconds, serial.stats.total_seconds * (1.0 + 1e-12));
}

TEST_F(PipelinedEngineTest, BatchSecondsTelescopeToTheTotalAtDepthTwo) {
  const Run piped = run(PimPlatformKind::kSim, 2);
  double sum = 0.0;
  for (double s : piped.stats.batch_seconds) sum += s;
  EXPECT_NEAR(sum, piped.stats.total_seconds, 1e-9);
}

TEST_F(PipelinedEngineTest, OneSlotTimelineOverlapsHostTailsWithTheNextStep) {
  // A slow host makes the wide steps host-bound (host CL scales with the
  // step's queries) while the one-query steps stay PIM-bound. At depth 1 the
  // slot frees once a step's results are pulled, so the next step's
  // transfers and compute overlap the previous step's host tail.
  DrimEngineOptions o = options(PimPlatformKind::kAnalytic, 1);
  o.host.flops_per_sec = 2e8;
  DrimAnnEngine engine(*index_, data_->learn, o);
  SearchBatchState state;
  engine.enqueue_queries(state, data_->queries, 10, 8);
  DrimSearchStats stats;
  std::vector<BatchStepStats> steps;
  while (!state.idle()) {
    const std::size_t want = steps.size() % 2 == 0 ? 12 : 1;
    steps.push_back(engine.search_batch(state, want, state.pending() <= want, &stats));
  }
  std::size_t host_bound = 0;
  std::size_t pim_bound = 0;
  double stage_sum = 0.0;
  double deltas = 0.0;
  for (const BatchStepStats& s : steps) {
    const double host = s.host_cl_seconds + s.host_rerank_seconds;
    ++(host > s.pim_batch_seconds ? host_bound : pim_bound);
    stage_sum += s.cl_pim_seconds + std::max(host, s.pim_batch_seconds);
    deltas += s.step_seconds;
  }
  ASSERT_GT(host_bound, 0u);
  ASSERT_GT(pim_bound, 0u);
  EXPECT_LT(stats.total_seconds, stage_sum);
  EXPECT_NEAR(deltas, stats.total_seconds, 1e-12 * stats.total_seconds);
  EXPECT_NEAR(steps.back().complete_seconds, stats.total_seconds,
              1e-12 * stats.total_seconds);
}

// ---- ping/pong staging capacity ----

TEST_F(PipelinedEngineTest, PingPongStagingHalvesTheFeasibleBatchAndSaysSo) {
  DrimEngineOptions small = options(PimPlatformKind::kSim, 1);
  small.pim.mram_bytes = 1 << 20;  // squeeze the staging region
  small.batch_size = 4;
  const DrimAnnEngine probe(*index_, data_->learn, small);
  const std::size_t cap_serial = probe.max_staged_queries(1);

  DrimEngineOptions piped = small;
  piped.pipeline_depth = 2;
  piped.batch_size = 4;
  const DrimAnnEngine probe2(*index_, data_->learn, piped);
  const std::size_t cap_piped = probe2.max_staged_queries(1);
  // Two in-flight slots split the staging region: roughly half the queries
  // fit per batch (the slot stride is 8-byte aligned, so at most half).
  ASSERT_GT(cap_serial, 1u);
  EXPECT_LE(cap_piped, cap_serial / 2);
  EXPECT_GE(cap_piped, 1u);

  // A batch size that fit serially but overflows a ping/pong slot is
  // rejected at construction, and the error names the feasible size.
  DrimEngineOptions bad = piped;
  bad.batch_size = cap_piped + 1;
  try {
    DrimAnnEngine broken(*index_, data_->learn, bad);
    FAIL() << "expected construction to reject batch_size " << bad.batch_size;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("maximum feasible"), std::string::npos)
        << e.what();
  }
}

TEST_F(PipelinedEngineTest, PingPongSlotDoesNotMaterializeHalfOfMram) {
  // Slot 1 starts near half of the 64 MB MRAM. Host memory must follow the
  // bytes the layout stores (index shards plus two staging slots), not the
  // highest offset touched — a contiguous backing would hold >= 32 MiB here.
  DrimEngineOptions o = options(PimPlatformKind::kSim, 2);
  DrimAnnEngine engine(*index_, data_->learn, o);
  engine.search(data_->queries, 10, 8);
  const auto& sim = dynamic_cast<const DpuArrayPlatform&>(engine.platform());
  ASSERT_EQ(sim.num_dpus(), 16u);
  for (std::size_t d = 0; d < sim.num_dpus(); ++d) {
    EXPECT_LT(sim.dpu(d).mram().resident_bytes(), std::size_t{8} << 20) << "dpu " << d;
    EXPECT_GT(sim.dpu(d).mram().resident_bytes(), 0u) << "dpu " << d;
  }
}

// ---- merge determinism ----

TEST_F(PipelinedEngineTest, ParallelMergeIsBitIdenticalAcrossThreadCounts) {
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(depth);
    const Run par =
        with_threads(4, [&] { return run(PimPlatformKind::kSim, depth); });
    const Run ser =
        with_threads(1, [&] { return run(PimPlatformKind::kSim, depth); });
    // The collect merge visits each query's (dpu, task) hits in a fixed
    // order regardless of which host thread replays it, so ids, distances,
    // and tie-breaks are identical.
    expect_identical_results(par, ser);
    EXPECT_DOUBLE_EQ(par.stats.total_seconds, ser.stats.total_seconds);
  }
}

}  // namespace
}  // namespace drim
