// Tests for the parallel host simulation loop: run_batch fans DPU kernels
// out across host threads, staging/collection run concurrently, and the
// engine must nevertheless produce byte-identical results, cycle counters,
// and BatchResult timings at every thread count. Also covers the batch-time
// accounting fixes: one-time index-load transfer draining and per-k Eq. 15
// scheduler coefficients.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

PimConfig small_config(std::size_t dpus) {
  PimConfig cfg;
  cfg.num_dpus = dpus;
  cfg.mram_bytes = 1 << 20;
  return cfg;
}

/// Run `fn` with the host executor capped at `threads`, restoring after.
template <typename Fn>
auto with_threads(int threads, const Fn& fn) {
  const int saved = num_threads();
  set_num_threads(threads);
  auto result = fn();
  set_num_threads(saved);
  return result;
}

void expect_counters_equal(const DpuCounters& a, const DpuCounters& b) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    EXPECT_EQ(a.phases[p].instr_cycles, b.phases[p].instr_cycles);
    EXPECT_DOUBLE_EQ(a.phases[p].dma_cycles, b.phases[p].dma_cycles);
    EXPECT_EQ(a.phases[p].mram_bytes_read, b.phases[p].mram_bytes_read);
    EXPECT_EQ(a.phases[p].mram_bytes_written, b.phases[p].mram_bytes_written);
    EXPECT_EQ(a.phases[p].mul_count, b.phases[p].mul_count);
  }
}

// ---- SimPimPlatform-level determinism ----

BatchResult run_mixed_batch(SimPimPlatform& sys) {
  const std::size_t n = sys.num_dpus();
  std::vector<std::uint8_t> staged(64, 0x5A);
  for (std::size_t d = 0; d < n; ++d) sys.push(d, 0, staged);
  return sys.run_batch(
      [](std::size_t d, DpuContext& ctx) {
        ctx.set_phase(Phase::DC);
        ctx.charge_adds(100 * (d + 1));
        ctx.charge_muls(d);
        std::vector<std::uint8_t> buf(64);
        ctx.mram_read(0, buf);
        buf[0] = static_cast<std::uint8_t>(d);
        ctx.mram_write(128, buf);
      },
      [&]() {
        parallel_for(0, n, [&](std::size_t d) {
          std::vector<std::uint8_t> out(64);
          sys.pull(d, 128, out);
        });
      });
}

TEST(ParallelBatch, TimingsAndCountersMatchSerial) {
  SimPimPlatform par(small_config(32)), ser(small_config(32));
  const BatchResult a = with_threads(4, [&] { return run_mixed_batch(par); });
  const BatchResult b = with_threads(1, [&] { return run_mixed_batch(ser); });

  ASSERT_EQ(a.per_dpu_seconds.size(), b.per_dpu_seconds.size());
  for (std::size_t d = 0; d < a.per_dpu_seconds.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.per_dpu_seconds[d], b.per_dpu_seconds[d]);
  }
  EXPECT_DOUBLE_EQ(a.dpu_seconds, b.dpu_seconds);
  EXPECT_DOUBLE_EQ(a.transfer_in_seconds, b.transfer_in_seconds);
  EXPECT_DOUBLE_EQ(a.transfer_out_seconds, b.transfer_out_seconds);
  for (std::size_t d = 0; d < 32; ++d) {
    expect_counters_equal(par.dpu(d).counters(), ser.dpu(d).counters());
  }
}

TEST(ParallelBatch, MramContentsMatchSerial) {
  SimPimPlatform par(small_config(16)), ser(small_config(16));
  with_threads(4, [&] { return run_mixed_batch(par); });
  with_threads(1, [&] { return run_mixed_batch(ser); });
  for (std::size_t d = 0; d < 16; ++d) {
    std::uint8_t a[64], b[64];
    par.dpu(d).mram().read(128, a);
    ser.dpu(d).mram().read(128, b);
    EXPECT_TRUE(std::equal(std::begin(a), std::end(a), std::begin(b)));
  }
}

TEST(ParallelBatch, KernelExceptionPropagates) {
  SimPimPlatform sys(small_config(8));
  EXPECT_THROW(sys.run_batch([](std::size_t d, DpuContext&) {
                 if (d == 5) throw std::runtime_error("kernel failure");
               }),
               std::runtime_error);
}

// ---- transfer accounting ----

TEST(TransferAccounting, DrainBillsPendingBytesOutsideBatches) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(512);
  std::vector<std::uint8_t> data(500);
  sys.push(0, off, data);
  EXPECT_NEAR(sys.drain_pending_transfer(), 0.5, 1e-12);
  // The drained bytes must not leak into the next batch.
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_DOUBLE_EQ(r.transfer_in_seconds, 0.0);
  // An empty drain bills nothing.
  EXPECT_DOUBLE_EQ(sys.drain_pending_transfer(), 0.0);
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 5000;
    spec.num_queries = 48;
    spec.num_learn = 2000;
    spec.num_components = 32;
    data_ = new SyntheticData(make_sift_like(spec));

    IvfPqParams p;
    p.nlist = 32;
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

  static DrimEngineOptions default_options() {
    DrimEngineOptions o;
    o.pim.num_dpus = 16;
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 12;  // several batches, filter carry-over active
    return o;
  }

  static SyntheticData* data_;
  static IvfPqIndex* index_;
};

SyntheticData* ParallelEngineTest::data_ = nullptr;
IvfPqIndex* ParallelEngineTest::index_ = nullptr;

struct EngineRun {
  std::vector<std::vector<Neighbor>> results;
  DrimSearchStats stats;
};

EngineRun run_engine(const IvfPqIndex& index, const SyntheticData& data,
                     const DrimEngineOptions& options, std::size_t k,
                     std::size_t nprobe) {
  EngineRun run;
  DrimAnnEngine engine(index, data.learn, options);
  run.results = engine.search(data.queries, k, nprobe, &run.stats);
  return run;
}

void expect_runs_identical(const EngineRun& a, const EngineRun& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    ASSERT_EQ(a.results[q].size(), b.results[q].size());
    for (std::size_t i = 0; i < a.results[q].size(); ++i) {
      EXPECT_EQ(a.results[q][i].id, b.results[q][i].id);
      EXPECT_EQ(a.results[q][i].dist, b.results[q][i].dist);
    }
  }
  EXPECT_DOUBLE_EQ(a.stats.total_seconds, b.stats.total_seconds);
  EXPECT_DOUBLE_EQ(a.stats.dpu_busy_seconds, b.stats.dpu_busy_seconds);
  EXPECT_DOUBLE_EQ(a.stats.transfer_in_seconds, b.stats.transfer_in_seconds);
  EXPECT_DOUBLE_EQ(a.stats.transfer_out_seconds, b.stats.transfer_out_seconds);
  EXPECT_DOUBLE_EQ(a.stats.index_load_seconds, b.stats.index_load_seconds);
  ASSERT_EQ(a.stats.per_dpu_seconds.size(), b.stats.per_dpu_seconds.size());
  for (std::size_t d = 0; d < a.stats.per_dpu_seconds.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.stats.per_dpu_seconds[d], b.stats.per_dpu_seconds[d]);
  }
  expect_counters_equal(a.stats.counters, b.stats.counters);
  EXPECT_EQ(a.stats.tasks, b.stats.tasks);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
}

TEST_F(ParallelEngineTest, SearchIsBitIdenticalAcrossThreadCounts) {
  const EngineRun par = with_threads(
      4, [&] { return run_engine(*index_, *data_, default_options(), 10, 8); });
  const EngineRun ser = with_threads(
      1, [&] { return run_engine(*index_, *data_, default_options(), 10, 8); });
  expect_runs_identical(par, ser);
}

TEST_F(ParallelEngineTest, ClOnPimIsBitIdenticalAcrossThreadCounts) {
  DrimEngineOptions o = default_options();
  o.cl_on_pim = true;
  const EngineRun par =
      with_threads(4, [&] { return run_engine(*index_, *data_, o, 10, 8); });
  const EngineRun ser =
      with_threads(1, [&] { return run_engine(*index_, *data_, o, 10, 8); });
  expect_runs_identical(par, ser);
}

// ---- regression: Eq. 15 coefficients follow the actual search k ----

TEST(SchedulerParamsK, TsTermGrowsWithK) {
  const PimConfig cfg;
  const SchedulerParams k10 = derive_scheduler_params(cfg, 128, 16, 32, 10, true);
  const SchedulerParams k1000 = derive_scheduler_params(cfg, 128, 16, 32, 1000, true);
  EXPECT_GT(k1000.l_sortu, k10.l_sortu);
  EXPECT_DOUBLE_EQ(k1000.l_lut, k10.l_lut);    // TS-only dependence on k
  EXPECT_DOUBLE_EQ(k1000.l_calu, k10.l_calu);
}

TEST_F(ParallelEngineTest, SchedulerParamsFollowSearchK) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  const auto& d = engine.data();
  const PimConfig& cfg = engine.options().pim;

  engine.search(data_->queries, 40, 8);
  const SchedulerParams k40 = derive_scheduler_params(
      cfg, d.dim(), d.m(), d.cb_entries(), 40, engine.options().use_square_lut);
  EXPECT_DOUBLE_EQ(engine.options().scheduler.l_sortu, k40.l_sortu);

  engine.search(data_->queries, 10, 8);
  const SchedulerParams k10 = derive_scheduler_params(
      cfg, d.dim(), d.m(), d.cb_entries(), 10, engine.options().use_square_lut);
  EXPECT_DOUBLE_EQ(engine.options().scheduler.l_sortu, k10.l_sortu);
  EXPECT_NE(k40.l_sortu, k10.l_sortu);
}

// ---- regression: static index upload is not billed to the first batch ----

TEST_F(ParallelEngineTest, FirstBatchNotBilledForIndexUpload) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  EXPECT_GT(engine.index_load_seconds(), 0.0);

  DrimSearchStats first, second;
  engine.search(data_->queries, 10, 8, &first);
  engine.search(data_->queries, 10, 8, &second);
  // Identical query batches stage identical bytes; before the fix the first
  // search additionally carried the whole static index transfer.
  EXPECT_DOUBLE_EQ(first.transfer_in_seconds, second.transfer_in_seconds);
  EXPECT_DOUBLE_EQ(first.total_seconds, second.total_seconds);
  EXPECT_DOUBLE_EQ(first.index_load_seconds, engine.index_load_seconds());
  EXPECT_DOUBLE_EQ(second.index_load_seconds, engine.index_load_seconds());
  // The reported load seconds are exactly the static bytes (square LUT,
  // codebooks, centroids, per-shard codes + ids) over the host link.
  const auto& d = engine.data();
  std::uint64_t static_bytes = engine.square_lut().size_bytes() +
                               d.codebooks().size() * 2 + d.centroids().size() * 2;
  for (const Shard& sh : engine.layout().shards()) {
    static_bytes += static_cast<std::uint64_t>(sh.size()) *
                    (d.code_size() + sizeof(std::uint32_t));
  }
  EXPECT_DOUBLE_EQ(
      first.index_load_seconds,
      static_cast<double>(static_bytes) / engine.options().pim.host_link_bytes_per_sec);
}

// ---- ranged scheduling matches the old whole-table semantics ----

TEST_F(ParallelEngineTest, RangedScheduleMatchesMaskedCopy) {
  DrimAnnEngine engine(*index_, data_->learn, default_options());
  const DataLayout& layout = engine.layout();
  RuntimeScheduler sched(layout, engine.options().scheduler);

  std::vector<std::vector<std::uint32_t>> probes(data_->queries.count());
  for (std::size_t q = 0; q < probes.size(); ++q) {
    probes[q] = index_->locate_clusters(data_->queries.row(q), 8);
  }
  const std::size_t begin = 10, end = 30;
  std::vector<std::vector<std::uint32_t>> masked(probes.size());
  for (std::size_t q = begin; q < end; ++q) masked[q] = probes[q];

  const Assignment ranged = sched.schedule(probes, begin, end, {}, true);
  const Assignment copied = sched.schedule(masked, {}, true);
  ASSERT_EQ(ranged.per_dpu.size(), copied.per_dpu.size());
  for (std::size_t d = 0; d < ranged.per_dpu.size(); ++d) {
    ASSERT_EQ(ranged.per_dpu[d].size(), copied.per_dpu[d].size());
    for (std::size_t t = 0; t < ranged.per_dpu[d].size(); ++t) {
      EXPECT_EQ(ranged.per_dpu[d][t].query, copied.per_dpu[d][t].query);
      EXPECT_EQ(ranged.per_dpu[d][t].shard, copied.per_dpu[d][t].shard);
    }
    EXPECT_DOUBLE_EQ(ranged.predicted_load[d], copied.predicted_load[d]);
  }
}

}  // namespace
}  // namespace drim
