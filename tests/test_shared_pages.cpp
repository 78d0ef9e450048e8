// Shared broadcast pages in the functional simulator. A broadcast writes the
// bytes every DPU receives identically once, into one refcounted page that
// each DPU's page table holds; a DPU that writes such a page copies it first
// (copy-on-write). These tests pin the sharing rule, the copy-on-write, the
// fallback to per-DPU copies, reset, in-place views and the platform's
// unique resident bytes — and, at the paper's 2530-DPU array, that the
// functional sim still equals the analytic platform bit for bit while its
// MRAM costs less than one page per DPU.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

constexpr std::size_t kPage = Mram::kPageBytes;

PimConfig small_config(std::size_t dpus) {
  PimConfig cfg;
  cfg.num_dpus = dpus;
  cfg.mram_bytes = 1 << 20;
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 13);
  return v;
}

std::vector<std::uint8_t> read_back(const SimPimPlatform& p, std::size_t dpu,
                                    std::size_t offset, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  p.dpu(dpu).mram().read(offset, out);
  return out;
}

TEST(SharedPages, ConsecutiveBroadcastsShareOnePageAcrossDpus) {
  SimPimPlatform p(small_config(4));
  // The engine's layout: a small table, then two larger blocks, none of
  // which covers page 0 alone.
  const auto a = pattern(3428, 1);
  const auto b = pattern(40000, 2);
  const auto c = pattern(30000, 3);
  const std::size_t oa = p.alloc_symmetric(a.size());
  const std::size_t ob = p.alloc_symmetric(b.size());
  const std::size_t oc = p.alloc_symmetric(c.size());
  p.broadcast(oa, a);
  p.broadcast(ob, b);
  p.broadcast(oc, c);
  ASSERT_LT(oc, kPage);
  ASSERT_GT(oc + c.size(), kPage);  // the last block spills into page 1

  for (std::size_t page : {std::size_t{0}, std::size_t{1}}) {
    bool shared = false;
    const Mram::PagePtr& first = p.dpu(0).mram().page(page, &shared);
    ASSERT_TRUE(first) << page;
    EXPECT_TRUE(shared) << page;
    for (std::size_t d = 1; d < p.num_dpus(); ++d) {
      bool s = false;
      EXPECT_EQ(p.dpu(d).mram().page(page, &s), first) << "dpu " << d;
      EXPECT_TRUE(s);
    }
  }
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    EXPECT_EQ(read_back(p, d, oa, a.size()), a);
    EXPECT_EQ(read_back(p, d, ob, b.size()), b);
    EXPECT_EQ(read_back(p, d, oc, c.size()), c);
    EXPECT_EQ(p.dpu(d).mram().resident_bytes(), 2 * kPage);
  }
  EXPECT_EQ(p.resident_bytes(), 2 * kPage);
  // Billing stays by size: transmitted once per broadcast.
  EXPECT_DOUBLE_EQ(p.drain_pending_transfer(),
                   static_cast<double>(a.size() + b.size() + c.size()) /
                       p.config().host_link_bytes_per_sec);
}

TEST(SharedPages, PushCopiesASharedPageOnThatDpuOnly) {
  SimPimPlatform p(small_config(4));
  const auto table = pattern(5000, 7);
  const std::size_t off = p.alloc_symmetric(table.size());
  p.broadcast(off, table);
  const Mram::PagePtr shared_page = p.dpu(0).mram().page(0);

  // The first per-DPU write after the broadcast, e.g. the codes that begin
  // where the broadcast region ends.
  const auto codes = pattern(300, 99);
  const std::size_t codes_off = p.alloc_on(2, codes.size());
  p.push(2, codes_off, codes);

  bool shared = true;
  EXPECT_NE(p.dpu(2).mram().page(0, &shared), shared_page);
  EXPECT_FALSE(shared);
  EXPECT_EQ(read_back(p, 2, off, table.size()), table);
  EXPECT_EQ(read_back(p, 2, codes_off, codes.size()), codes);
  for (std::size_t d : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(p.dpu(d).mram().page(0, &shared), shared_page) << "dpu " << d;
    EXPECT_TRUE(shared);
    EXPECT_EQ(read_back(p, d, off, table.size()), table);
    EXPECT_EQ(read_back(p, d, codes_off, codes.size()),
              std::vector<std::uint8_t>(codes.size(), 0));
  }
  EXPECT_EQ(p.resident_bytes(), 2 * kPage);
}

TEST(SharedPages, KernelWritesCopyOnWriteConcurrently) {
  SimPimPlatform p(small_config(8));
  const auto queries = pattern(2000, 5);
  const std::size_t off = p.alloc_symmetric(queries.size() + 8);
  p.broadcast(off, queries);
  // Every kernel reads the shared bytes in place and writes its own output
  // right after them, in the same page, the way the CL kernel does.
  const std::size_t out_off = off + queries.size();
  p.run_batch([&](std::size_t d, DpuContext& ctx) {
    std::vector<std::uint8_t> fallback(queries.size());
    const std::uint8_t* q = ctx.mram_read_view(off, queries.size(), fallback.data());
    std::uint8_t out[8];
    for (std::size_t i = 0; i < 8; ++i) {
      out[i] = static_cast<std::uint8_t>(q[i * 100] + d);
    }
    ctx.mram_write(out_off, out);
  });
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    EXPECT_EQ(read_back(p, d, off, queries.size()), queries);
    const auto out = read_back(p, d, out_off, 8);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], static_cast<std::uint8_t>(queries[i * 100] + d));
    }
  }
  EXPECT_EQ(p.resident_bytes(), p.num_dpus() * kPage);
}

TEST(SharedPages, BroadcastOverAPrivatelyHeldPageReachesEveryDpu) {
  SimPimPlatform p(small_config(4));
  const auto first = pattern(1000, 11);
  const std::size_t o1 = p.alloc_symmetric(first.size());
  p.broadcast(o1, first);
  // DPU 1 takes page 0 private.
  const auto own = pattern(16, 200);
  const std::size_t own_off = p.alloc_symmetric(own.size());
  p.push(1, own_off, own);
  // DPU 3 alone holds page 2 (nobody holds page 1).
  p.push(3, 2 * kPage + 8, own);

  // A broadcast over pages 0..2: page 0 is held privately by one DPU and
  // page 2 by another, so both fall back to per-DPU copies; page 1 is
  // shared.
  const auto second = pattern(2 * kPage, 21);
  const std::size_t o2 = p.alloc_symmetric(second.size());
  p.broadcast(o2, second);
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    EXPECT_EQ(read_back(p, d, o1, first.size()), first) << "dpu " << d;
    EXPECT_EQ(read_back(p, d, o2, second.size()), second) << "dpu " << d;
    EXPECT_EQ(read_back(p, d, own_off, own.size()),
              d == 1 ? own : std::vector<std::uint8_t>(own.size(), 0));
  }
  bool shared = false;
  const Mram::PagePtr& page1 = p.dpu(0).mram().page(1, &shared);
  EXPECT_TRUE(shared);
  for (std::size_t d = 1; d < p.num_dpus(); ++d) {
    EXPECT_EQ(p.dpu(d).mram().page(1), page1);
  }
  // Pages 0 and 2: one private copy per DPU (the fallback copied the
  // shared page 0 on the DPUs that still held it). Page 1: one shared copy.
  EXPECT_EQ(p.resident_bytes(), (4 + 1 + 4) * kPage);
}

TEST(SharedPages, ResetDropsEveryReference) {
  SimPimPlatform p(small_config(4));
  const auto bytes = pattern(3 * kPage / 2, 3);
  p.broadcast(p.alloc_symmetric(bytes.size()), bytes);
  const std::weak_ptr<std::uint8_t[]> page0 = p.dpu(0).mram().page(0);
  const std::weak_ptr<std::uint8_t[]> page1 = p.dpu(3).mram().page(1);
  ASSERT_FALSE(page0.expired());
  ASSERT_FALSE(page1.expired());
  p.reset_memory();
  EXPECT_TRUE(page0.expired());
  EXPECT_TRUE(page1.expired());
  EXPECT_EQ(p.resident_bytes(), 0u);
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    EXPECT_EQ(p.dpu(d).mram().resident_bytes(), 0u);
    EXPECT_EQ(p.dpu(d).mram().used(), 0u);
    EXPECT_EQ(read_back(p, d, 0, bytes.size()),
              std::vector<std::uint8_t>(bytes.size(), 0));
  }
}

TEST(SharedPages, ViewReadsASharedPageInPlace) {
  SimPimPlatform p(small_config(3));
  const auto bytes = pattern(4096, 9);
  p.alloc_symmetric(64);
  const std::size_t off = p.alloc_symmetric(bytes.size());
  p.broadcast(off, bytes);
  const std::uint8_t* base = p.dpu(0).mram().page(0).get();
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    const std::uint8_t* v = p.dpu(d).mram().view(off, bytes.size());
    ASSERT_EQ(v, base + off) << "dpu " << d;
    EXPECT_EQ(std::memcmp(v, bytes.data(), bytes.size()), 0);
  }
}

TEST(SharedPages, PlatformResidentBytesCountsASharedPageOnce) {
  SimPimPlatform p(small_config(8));
  const auto bytes = pattern(5 * kPage / 2, 4);  // pages 0, 1, 2
  p.broadcast(p.alloc_symmetric(bytes.size()), bytes);
  std::size_t per_dpu_sum = 0;
  for (std::size_t d = 0; d < p.num_dpus(); ++d) {
    per_dpu_sum += p.dpu(d).mram().resident_bytes();
  }
  EXPECT_EQ(per_dpu_sum, 8 * 3 * kPage);
  EXPECT_EQ(p.resident_bytes(), 3 * kPage);
  // Two DPUs write page 2 (one private copy each); a third writes a page
  // of its own beyond the broadcast.
  const std::uint8_t one[1] = {1};
  p.push(4, 2 * kPage + 5, one);
  p.push(6, 2 * kPage + 7, one);
  p.push(7, 4 * kPage, one);
  EXPECT_EQ(p.resident_bytes(), (3 + 2 + 1) * kPage);
}

// ---- paper scale ----
// The paper's array is 2530 DPUs. Every DPU receives the square LUT,
// codebooks, centroids and staged queries; with private copies the sim
// needed at least one page per DPU for them (964 MB peak RSS at nlist 1024
// on a 200K index). Shared pages make the functional sim affordable there,
// so sim == analytic is pinned at that size, not only at 16-64 DPUs.

class PlatformPaperScale : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 24000;
    spec.num_queries = 48;
    spec.num_learn = 6000;
    spec.num_components = 64;
    data_ = new SyntheticData(make_sift_like(spec));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static DrimEngineOptions options(PimPlatformKind platform) {
    DrimEngineOptions o;
    o.pim.num_dpus = 2530;
    o.layout.split_threshold = 64;
    o.heat_nprobe = 16;
    o.batch_size = 16;  // several batches, so per-batch times exist
    o.platform = platform;
    return o;
  }

  static inline SyntheticData* data_ = nullptr;
};

TEST_P(PlatformPaperScale, SimEqualsAnalyticAt2530Dpus) {
  IvfPqParams params;
  params.nlist = GetParam();
  params.pq.m = 16;
  params.pq.cb_entries = 64;
  IvfPqIndex index;
  index.train(data_->learn, params);
  index.add(data_->base);

  DrimAnnEngine sim(index, data_->learn, options(PimPlatformKind::kSim));
  DrimAnnEngine analytic(index, data_->learn, options(PimPlatformKind::kAnalytic));
  DrimSearchStats ss, as;
  const auto sim_res = sim.search(data_->queries, 10, 16, &ss);
  const auto analytic_res = analytic.search(data_->queries, 10, 16, &as);

  ASSERT_EQ(sim_res.size(), analytic_res.size());
  for (std::size_t q = 0; q < sim_res.size(); ++q) {
    ASSERT_EQ(sim_res[q].size(), analytic_res[q].size()) << "query " << q;
    for (std::size_t i = 0; i < sim_res[q].size(); ++i) {
      EXPECT_EQ(sim_res[q][i].id, analytic_res[q][i].id) << "query " << q;
      EXPECT_EQ(sim_res[q][i].dist, analytic_res[q][i].dist) << "query " << q;
    }
  }
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
    EXPECT_EQ(ss.counters.phases[p].instr_cycles, as.counters.phases[p].instr_cycles);
    EXPECT_DOUBLE_EQ(ss.counters.phases[p].dma_cycles, as.counters.phases[p].dma_cycles);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_read,
              as.counters.phases[p].mram_bytes_read);
    EXPECT_EQ(ss.counters.phases[p].mram_bytes_written,
              as.counters.phases[p].mram_bytes_written);
    EXPECT_DOUBLE_EQ(ss.phase_dpu_seconds[p], as.phase_dpu_seconds[p]);
  }
  ASSERT_EQ(ss.batch_seconds.size(), as.batch_seconds.size());
  ASSERT_GT(ss.batch_seconds.size(), 1u);
  for (std::size_t b = 0; b < ss.batch_seconds.size(); ++b) {
    EXPECT_DOUBLE_EQ(ss.batch_seconds[b], as.batch_seconds[b]) << "batch " << b;
  }
  EXPECT_DOUBLE_EQ(ss.total_seconds, as.total_seconds);
  EXPECT_EQ(ss.tasks, as.tasks);

  // Private broadcast copies alone would hold at least one page on every
  // DPU; the shared layout stays below that on the whole array.
  const auto& platform = dynamic_cast<const DpuArrayPlatform&>(sim.platform());
  ASSERT_EQ(platform.num_dpus(), 2530u);
  EXPECT_GT(platform.resident_bytes(), 0u);
  EXPECT_LT(platform.resident_bytes(), platform.num_dpus() * kPage);
}

INSTANTIATE_TEST_SUITE_P(Nlist, PlatformPaperScale, ::testing::Values(256, 1024));

}  // namespace
}  // namespace drim
