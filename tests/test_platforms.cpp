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

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "core/flat_search.hpp"
#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "drim/host_exact.hpp"
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

// ---- heavily sliced clusters ----
// The fixture's split_threshold 128 leaves most clusters in one slice, so the
// cluster-major host replay (one table per (query, cluster), shared by every
// slice on every DPU) is barely exercised. Here every probed cluster spans at
// least 3 slices on distinct DPUs, hot clusters are duplicated, a writer
// publish leaves tombstones in the snapshot, and full and q4 requests mix in
// one stream.

constexpr std::size_t kSlicedThreshold = 16;
constexpr std::size_t kSlicedNprobe = 6;

/// Tombstone every 5th base id (and insert a few points) through a writer,
/// so the published snapshot carries dead flags in every cluster.
IndexSnapshot sliced_snapshot(const IvfPqIndex& index, const SyntheticData& data) {
  IndexWriter writer(index);
  for (std::uint32_t id = 0; id < index.ntotal(); id += 5) writer.erase(id);
  std::vector<float> v(data.queries.dim());
  for (std::size_t i = 0; i < 16; ++i) {
    const auto row = data.learn.row(i);
    v.assign(row.begin(), row.end());
    writer.insert(v);
  }
  return writer.publish();
}

/// The fixture's queries whose every probed cluster holds at least three
/// slices' worth of points in `snap` (a few clusters are too small to split
/// three ways at any threshold that keeps the big ones on <= 32 DPUs).
FloatMatrix sliced_queries(const IndexSnapshot& snap, const FloatMatrix& queries) {
  FloatMatrix out;
  for (std::size_t q = 0; q < queries.count(); ++q) {
    bool big = true;
    for (const std::uint32_t c :
         snap.index->locate_clusters(queries.row(q), kSlicedNprobe)) {
      big &= snap.index->list(c).ids.size() >= 3 * kSlicedThreshold;
    }
    if (big) out.push_back(queries.row(q));
  }
  return out;
}

DrimEngineOptions sliced_options(PimPlatformKind kind, std::size_t fuse_width,
                                 std::size_t depth) {
  DrimEngineOptions o;
  o.pim.num_dpus = 32;
  o.layout.split_threshold = kSlicedThreshold;
  o.layout.dup_fraction = 0.25;
  // ID-order placement deals a cluster's shards to consecutive DPUs, so its
  // slices never share a DPU (the heat-greedy allocator may co-locate them).
  o.layout.heat_allocation = false;
  o.heat_nprobe = kSlicedNprobe;
  o.batch_size = 12;
  o.fuse_width = fuse_width;
  o.pipeline_depth = depth;
  o.enable_q4 = true;
  o.platform = kind;
  return o;
}

/// Streams every query through search_batch, odd queries on the q4 rung.
std::vector<std::vector<Neighbor>> search_mixed(DrimAnnEngine& engine,
                                                const FloatMatrix& queries,
                                                DrimSearchStats* stats) {
  SearchBatchState state;
  for (std::size_t q = 0; q < queries.count(); ++q) {
    engine.enqueue_query(state, queries.row(q), 10, kSlicedNprobe,
                         q % 2 == 1 ? Precision::kQ4 : Precision::kFull);
  }
  const std::size_t batch = engine.options().batch_size;
  while (state.next_query < queries.count() || state.has_deferred()) {
    const bool flush = state.next_query + batch >= queries.count();
    engine.search_batch(state, batch, flush, stats);
  }
  std::vector<std::vector<Neighbor>> out(queries.count());
  for (std::size_t q = 0; q < queries.count(); ++q) {
    out[q] = state.take_results(static_cast<std::uint32_t>(q));
  }
  return out;
}

TEST_F(PlatformTest, SlicedClustersAnalyticMatchesSimExactly) {
  const IndexSnapshot snap = sliced_snapshot(*index_, *data_);
  const FloatMatrix queries = sliced_queries(snap, data_->queries);
  ASSERT_GE(queries.count(), 24u);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("fuse_width " + std::to_string(width) + " depth " +
                   std::to_string(depth));
      DrimAnnEngine sim(snap, data_->learn,
                        sliced_options(PimPlatformKind::kSim, width, depth));
      DrimAnnEngine analytic(snap, data_->learn,
                             sliced_options(PimPlatformKind::kAnalytic, width, depth));
      ASSERT_TRUE(analytic.q4_ready());

      // The shape this test exists for: every probed cluster has >= 3
      // slices, on >= 3 distinct DPUs, and some are replicated.
      const DataLayout& layout = analytic.layout();
      bool replicated = false;
      for (std::size_t q = 0; q < queries.count(); ++q) {
        for (const std::uint32_t c :
             snap.index->locate_clusters(queries.row(q), kSlicedNprobe)) {
          const auto& slices = layout.slice_groups(c);
          ASSERT_GE(slices.size(), 3u) << "cluster " << c;
          std::set<std::uint32_t> dpus;
          for (const auto& replicas : slices) {
            replicated |= replicas.size() > 1;
            for (const std::uint32_t id : replicas) dpus.insert(layout.shard(id).dpu);
          }
          ASSERT_GE(dpus.size(), 3u) << "cluster " << c;
        }
      }
      EXPECT_TRUE(replicated);

      DrimSearchStats ss, as;
      const auto sim_res = search_mixed(sim, queries, &ss);
      const auto analytic_res = search_mixed(analytic, queries, &as);
      expect_identical(sim_res, analytic_res);
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
        EXPECT_EQ(ss.counters.phases[p].instr_cycles, as.counters.phases[p].instr_cycles);
        EXPECT_EQ(ss.counters.phases[p].dma_cycles, as.counters.phases[p].dma_cycles);
        EXPECT_EQ(ss.counters.phases[p].mram_bytes_read,
                  as.counters.phases[p].mram_bytes_read);
        EXPECT_EQ(ss.counters.phases[p].mram_bytes_written,
                  as.counters.phases[p].mram_bytes_written);
        EXPECT_EQ(ss.counters.phases[p].mul_count, as.counters.phases[p].mul_count);
        EXPECT_EQ(ss.phase_dpu_seconds[p], as.phase_dpu_seconds[p]);
      }
      EXPECT_EQ(ss.transfer_in_seconds, as.transfer_in_seconds);
      EXPECT_EQ(ss.transfer_out_seconds, as.transfer_out_seconds);
      EXPECT_EQ(ss.host_rerank_seconds, as.host_rerank_seconds);
      EXPECT_GT(ss.host_rerank_seconds, 0.0);
      EXPECT_EQ(ss.tasks, as.tasks);
      ASSERT_EQ(ss.batch_seconds.size(), as.batch_seconds.size());
      for (std::size_t b = 0; b < ss.batch_seconds.size(); ++b) {
        EXPECT_EQ(ss.batch_seconds[b], as.batch_seconds[b]) << "batch " << b;
      }
    }
  }
}

// The batch replay against the independent per-task oracle: every row of
// host_replay_batch equals host_search_task_into (full rung) or
// host_search_task_q4_into + host_rerank_q4_row (q4 rung) for the same
// (query, slice), including slices of one cluster scanned by several queries
// at once, replicas of one slice, and tombstoned positions.
TEST_F(PlatformTest, BatchReplayMatchesPerTaskOracle) {
  const IndexSnapshot snap = sliced_snapshot(*index_, *data_);
  const PimIndexData data(*snap.index);
  ASSERT_TRUE(data.has_q4());
  const std::uint32_t k = 10;
  std::vector<std::vector<std::int16_t>> q16;
  for (std::size_t q = 0; q < data_->queries.count(); ++q) {
    q16.push_back(PimIndexData::quantize_query(data_->queries.row(q)));
  }
  std::vector<HostReplayTask> tasks;
  for (std::size_t q = 0; q < q16.size(); ++q) {
    for (const std::uint32_t c :
         snap.index->locate_clusters(data_->queries.row(q), kSlicedNprobe)) {
      const auto size = static_cast<std::uint32_t>(data.cluster_size(c));
      for (std::uint32_t b = 0; b < size; b += kSlicedThreshold) {
        HostReplayTask t;
        t.query = q16[q].data();
        t.query_id = static_cast<std::uint32_t>(q);
        t.dead = snap.dead_flags(c);
        t.cluster = c;
        t.begin = b;
        t.end = std::min<std::uint32_t>(size, b + kSlicedThreshold);
        t.q4 = q % 3 == 1;
        tasks.push_back(t);
        // Every 4th slice also runs on a second replica of itself.
        if (b / kSlicedThreshold % 4 == 0) tasks.push_back(t);
      }
    }
  }
  // The replay must not depend on task order: interleave the queries.
  std::shuffle(tasks.begin(), tasks.end(), std::mt19937(5));
  std::vector<KernelHit> rows(tasks.size() * k);
  host_replay_batch(data, tasks, k, rows);

  std::vector<KernelHit> want(k);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const HostReplayTask& t = tasks[i];
    Shard sh;
    sh.cluster = t.cluster;
    sh.begin = t.begin;
    sh.end = t.end;
    const auto& query = q16[t.query_id];
    if (t.q4) {
      host_search_task_q4_into(data, query, sh, k, want, t.dead);
      host_rerank_q4_row(data, query, sh, want);
    } else {
      host_search_task_into(data, query, sh, k, want, t.dead);
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      ASSERT_EQ(rows[i * k + j].dist, want[j].dist) << "task " << i << " rank " << j;
      ASSERT_EQ(rows[i * k + j].id, want[j].id) << "task " << i << " rank " << j;
    }
  }
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

// Wide codes (cb > 256 forces 16-bit codes) run through the same shared DC
// loop as byte codes. Sim and analytic must agree exactly on them too —
// identical neighbors and per-phase counters — unfused and at the widest
// feasible fuse_width, and fusion must leave the neighbors untouched.
TEST(PlatformWideCodes, SimEqualsAnalyticExactlyAcrossFuseWidths) {
  SyntheticSpec spec;
  spec.num_base = 3000;
  spec.num_queries = 32;
  spec.num_learn = 1500;
  spec.num_components = 24;
  const SyntheticData data = make_sift_like(spec);
  IvfPqParams p;
  p.nlist = 24;
  p.pq.m = 8;
  p.pq.cb_entries = 300;
  IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);
  ASSERT_TRUE(index.pq().wide_codes());

  const auto options = [](PimPlatformKind platform, std::size_t fuse_width) {
    DrimEngineOptions o;
    o.pim.num_dpus = 8;
    o.layout.split_threshold = 128;
    o.heat_nprobe = 8;
    o.batch_size = 16;
    o.platform = platform;
    o.fuse_width = fuse_width;
    return o;
  };
  const std::size_t k = 10;
  const std::size_t widest =
      DrimAnnEngine(index, data.learn, options(PimPlatformKind::kSim, 1))
          .max_feasible_fuse_width(k);
  ASSERT_GE(widest, 2u);

  std::vector<std::vector<Neighbor>> reference;
  for (const std::size_t width : {std::size_t{1}, widest}) {
    SCOPED_TRACE("fuse_width " + std::to_string(width));
    DrimAnnEngine sim(index, data.learn, options(PimPlatformKind::kSim, width));
    DrimAnnEngine analytic(index, data.learn, options(PimPlatformKind::kAnalytic, width));
    DrimSearchStats ss, as;
    const auto rs = sim.search(data.queries, k, 8, &ss);
    const auto ra = analytic.search(data.queries, k, 8, &as);
    if (reference.empty()) reference = rs;
    for (const auto* r : {&rs, &ra}) {
      ASSERT_EQ(r->size(), reference.size());
      for (std::size_t q = 0; q < r->size(); ++q) {
        ASSERT_EQ((*r)[q].size(), reference[q].size()) << "query " << q;
        for (std::size_t i = 0; i < (*r)[q].size(); ++i) {
          EXPECT_EQ((*r)[q][i].id, reference[q][i].id) << "query " << q << " rank " << i;
          EXPECT_EQ((*r)[q][i].dist, reference[q][i].dist) << "query " << q << " rank " << i;
        }
      }
    }
    for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
      SCOPED_TRACE(phase_name(static_cast<Phase>(ph)));
      const PhaseCounters& a = ss.counters.phases[ph];
      const PhaseCounters& b = as.counters.phases[ph];
      EXPECT_EQ(a.instr_cycles, b.instr_cycles);
      EXPECT_EQ(a.dma_cycles, b.dma_cycles);
      EXPECT_EQ(a.mram_bytes_read, b.mram_bytes_read);
      EXPECT_EQ(a.mram_bytes_written, b.mram_bytes_written);
      EXPECT_EQ(a.mul_count, b.mul_count);
    }
    EXPECT_EQ(ss.total_seconds, as.total_seconds);
    EXPECT_GT(ss.counters.at(Phase::DC).mram_bytes_read, 0u);
    if (width > 1) {
      EXPECT_GT(ss.dc_bytes_saved, 0u);
    }
  }
}

}  // namespace
}  // namespace drim
