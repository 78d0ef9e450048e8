// Cross-platform equivalence tests for the PimPlatform seam: the analytic
// platform must return bit-identical neighbors (the host-exact replay runs
// the same uint32 ADC arithmetic over the same scheduled task list as the
// functional kernels) and report exactly equal per-phase counters — the
// functional and charge kernels share the same deterministic
// instruction-charging helpers and issue the same DMA sequence (see
// kernels.hpp), so instruction cycles, DMA cycles, byte tallies, and the
// per-batch times derived from them are all exactly equal. The tracing
// layer (src/obs) relies on this: either platform's counters are ground
// truth for the Fig. 8 breakdown.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/flat_search.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "pim/pim_platform.hpp"

namespace drim {
namespace {

class PlatformTest : public ::testing::Test {
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

  static DrimEngineOptions options(PimPlatformKind platform) {
    DrimEngineOptions o;
    o.pim.num_dpus = 16;
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 16;  // several batches per search, so per-batch times exist
    o.platform = platform;
    return o;
  }

  static void expect_identical(const std::vector<std::vector<Neighbor>>& a,
                               const std::vector<std::vector<Neighbor>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
      for (std::size_t i = 0; i < a[q].size(); ++i) {
        EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
        EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q << " rank " << i;
      }
    }
  }

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(PlatformTest, AnalyticReturnsBitIdenticalNeighbors) {
  DrimAnnEngine sim(*index_, data_->learn, options(PimPlatformKind::kSim));
  DrimAnnEngine analytic(*index_, data_->learn, options(PimPlatformKind::kAnalytic));
  expect_identical(sim.search(data_->queries, 10, 8),
                   analytic.search(data_->queries, 10, 8));
}

TEST_F(PlatformTest, AnalyticMatchesSimUnderClOnPim) {
  DrimEngineOptions so = options(PimPlatformKind::kSim);
  so.cl_on_pim = true;
  DrimEngineOptions ao = options(PimPlatformKind::kAnalytic);
  ao.cl_on_pim = true;
  DrimAnnEngine sim(*index_, data_->learn, so);
  DrimAnnEngine analytic(*index_, data_->learn, ao);
  expect_identical(sim.search(data_->queries, 10, 8),
                   analytic.search(data_->queries, 10, 8));
}

TEST_F(PlatformTest, PerPhaseCountersAreExactlyEqual) {
  DrimAnnEngine sim(*index_, data_->learn, options(PimPlatformKind::kSim));
  DrimAnnEngine analytic(*index_, data_->learn, options(PimPlatformKind::kAnalytic));
  DrimSearchStats ss, as;
  sim.search(data_->queries, 10, 8, &ss);
  analytic.search(data_->queries, 10, 8, &as);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
    EXPECT_EQ(ss.counters.phases[p].instr_cycles, as.counters.phases[p].instr_cycles);
    EXPECT_DOUBLE_EQ(ss.counters.phases[p].dma_cycles, as.counters.phases[p].dma_cycles);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_read,
              as.counters.phases[p].mram_bytes_read);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_written,
              as.counters.phases[p].mram_bytes_written);
    EXPECT_EQ(ss.counters.phases[p].mul_count, as.counters.phases[p].mul_count);
    EXPECT_DOUBLE_EQ(ss.phase_dpu_seconds[p], as.phase_dpu_seconds[p]);
  }
  EXPECT_DOUBLE_EQ(ss.transfer_in_seconds, as.transfer_in_seconds);
  EXPECT_DOUBLE_EQ(ss.transfer_out_seconds, as.transfer_out_seconds);
  EXPECT_EQ(ss.tasks, as.tasks);
  EXPECT_EQ(ss.batches, as.batches);
}

TEST_F(PlatformTest, PerPhaseCountersAreExactlyEqualUnderClOnPim) {
  DrimEngineOptions so = options(PimPlatformKind::kSim);
  so.cl_on_pim = true;
  DrimEngineOptions ao = options(PimPlatformKind::kAnalytic);
  ao.cl_on_pim = true;
  DrimAnnEngine sim(*index_, data_->learn, so);
  DrimAnnEngine analytic(*index_, data_->learn, ao);
  DrimSearchStats ss, as;
  sim.search(data_->queries, 10, 8, &ss);
  analytic.search(data_->queries, 10, 8, &as);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
    EXPECT_EQ(ss.counters.phases[p].instr_cycles, as.counters.phases[p].instr_cycles);
    EXPECT_DOUBLE_EQ(ss.counters.phases[p].dma_cycles, as.counters.phases[p].dma_cycles);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_read,
              as.counters.phases[p].mram_bytes_read);
  }
  EXPECT_GT(ss.counters.at(Phase::CL).instr_cycles, 0u);
}

TEST_F(PlatformTest, BatchTimesAreExactlyEqual) {
  DrimAnnEngine sim(*index_, data_->learn, options(PimPlatformKind::kSim));
  DrimAnnEngine analytic(*index_, data_->learn, options(PimPlatformKind::kAnalytic));
  DrimSearchStats ss, as;
  sim.search(data_->queries, 10, 8, &ss);
  analytic.search(data_->queries, 10, 8, &as);
  ASSERT_EQ(ss.batch_seconds.size(), as.batch_seconds.size());
  ASSERT_GT(ss.batch_seconds.size(), 1u);
  // Both platforms derive batch times from the same shared charging policy,
  // so modeled times collapse to exact equality (was a 15% band before the
  // charge streams were unified).
  for (std::size_t b = 0; b < ss.batch_seconds.size(); ++b) {
    ASSERT_GT(ss.batch_seconds[b], 0.0);
    EXPECT_DOUBLE_EQ(as.batch_seconds[b], ss.batch_seconds[b]) << "batch " << b;
  }
  EXPECT_DOUBLE_EQ(as.total_seconds, ss.total_seconds);
}

// Precision-ladder contract, full rung: merely enabling the q4 tables must
// not perturb the precise path. Same neighbors bit for bit, same modeled
// time to the last ulp, and a zero rerank tail — on both platforms.
TEST_F(PlatformTest, EnablingQ4LeavesFullRungBitIdentical) {
  for (const PimPlatformKind kind :
       {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    SCOPED_TRACE(pim_platform_name(kind));
    DrimEngineOptions off = options(kind);
    DrimEngineOptions on = options(kind);
    on.enable_q4 = true;
    DrimAnnEngine plain(*index_, data_->learn, off);
    DrimAnnEngine ladder(*index_, data_->learn, on);
    ASSERT_TRUE(ladder.q4_ready());
    DrimSearchStats ps, ls;
    const auto plain_res = plain.search(data_->queries, 10, 8, &ps);
    const auto ladder_res = ladder.search(data_->queries, 10, 8, &ls);
    expect_identical(plain_res, ladder_res);
    EXPECT_DOUBLE_EQ(ls.total_seconds, ps.total_seconds);
    EXPECT_EQ(ls.host_rerank_seconds, 0.0);
  }
}

// Precision-ladder contract, q4 rung: the charge twin holds on the coarse
// rung too. Sim and analytic return bit-identical neighbors (host-exact
// replay of the same packed-nibble ADC + rerank tail) and exactly equal
// modeled times, and the rerank tail is actually billed.
TEST_F(PlatformTest, Q4RungPlatformsAreChargeTwins) {
  DrimEngineOptions so = options(PimPlatformKind::kSim);
  so.enable_q4 = true;
  DrimEngineOptions ao = options(PimPlatformKind::kAnalytic);
  ao.enable_q4 = true;
  DrimAnnEngine sim(*index_, data_->learn, so);
  DrimAnnEngine analytic(*index_, data_->learn, ao);
  DrimSearchStats ss, as;
  const auto sim_res =
      sim.search(data_->queries, 10, 8, &ss, Precision::kQ4);
  const auto analytic_res =
      analytic.search(data_->queries, 10, 8, &as, Precision::kQ4);
  expect_identical(sim_res, analytic_res);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
    EXPECT_EQ(ss.counters.phases[p].instr_cycles, as.counters.phases[p].instr_cycles);
    EXPECT_DOUBLE_EQ(ss.counters.phases[p].dma_cycles, as.counters.phases[p].dma_cycles);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_read,
              as.counters.phases[p].mram_bytes_read);
  }
  EXPECT_DOUBLE_EQ(as.total_seconds, ss.total_seconds);
  EXPECT_DOUBLE_EQ(as.host_rerank_seconds, ss.host_rerank_seconds);
  EXPECT_GT(ss.host_rerank_seconds, 0.0);

  // The coarse rung must actually be coarser: same task count, fewer MRAM
  // code bytes per distance than the full rung would read.
  DrimSearchStats fs;
  sim.search(data_->queries, 10, 8, &fs, Precision::kFull);
  EXPECT_EQ(ss.tasks, fs.tasks);
  EXPECT_LT(ss.counters.at(Phase::DC).mram_bytes_read,
            fs.counters.at(Phase::DC).mram_bytes_read);
}

TEST_F(PlatformTest, FactoryAndNamesRoundTrip) {
  EXPECT_EQ(pim_platform_name(PimPlatformKind::kSim), "sim");
  EXPECT_EQ(pim_platform_name(PimPlatformKind::kAnalytic), "analytic");
  EXPECT_EQ(parse_pim_platform("sim"), PimPlatformKind::kSim);
  EXPECT_EQ(parse_pim_platform("analytic"), PimPlatformKind::kAnalytic);
  EXPECT_THROW(parse_pim_platform("gpu"), std::invalid_argument);

  PimConfig cfg;
  cfg.num_dpus = 4;
  const auto sim = make_pim_platform(PimPlatformKind::kSim, cfg);
  const auto analytic = make_pim_platform(PimPlatformKind::kAnalytic, cfg);
  EXPECT_TRUE(sim->functional());
  EXPECT_FALSE(analytic->functional());
  EXPECT_EQ(sim->name(), "sim");
  EXPECT_EQ(analytic->name(), "analytic");
  EXPECT_EQ(sim->num_dpus(), 4u);
  EXPECT_EQ(analytic->num_dpus(), 4u);
}

TEST_F(PlatformTest, AnalyticPullLeavesBufferUntouched) {
  PimConfig cfg;
  cfg.num_dpus = 2;
  const auto analytic = make_pim_platform(PimPlatformKind::kAnalytic, cfg);
  const std::size_t off = analytic->alloc_symmetric(64);
  std::vector<std::uint8_t> payload(64, 0xAB);
  analytic->push(0, off, payload);
  std::vector<std::uint8_t> out(64, 0x5C);
  analytic->pull(0, off, out);
  for (std::uint8_t b : out) EXPECT_EQ(b, 0x5C);
}

TEST_F(PlatformTest, BothPlatformsRejectTheSameOutOfRangeTransfers) {
  PimConfig cfg;
  cfg.num_dpus = 2;
  cfg.mram_bytes = 1 << 20;
  std::vector<std::uint8_t> buf(16);
  for (PimPlatformKind kind : {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    SCOPED_TRACE(pim_platform_name(kind));
    const auto p = make_pim_platform(kind, cfg);
    EXPECT_NO_THROW(p->pull(1, cfg.mram_bytes - 16, buf));
    EXPECT_THROW(p->pull(1, cfg.mram_bytes - 8, buf), std::runtime_error);
    // offset + size wraps past SIZE_MAX here; neither platform may accept it.
    EXPECT_THROW(p->pull(0, SIZE_MAX - 3, buf), std::runtime_error);
    EXPECT_THROW(p->push(0, SIZE_MAX - 3, buf), std::runtime_error);
    EXPECT_THROW(p->broadcast(SIZE_MAX - 3, buf), std::runtime_error);
  }
}

}  // namespace
}  // namespace drim
