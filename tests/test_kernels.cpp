// Direct tests of the DPU search kernel against a hand-computed reference:
// exact integer ADC distances, sentinel padding, phase counter placement,
// and WRAM budget enforcement; and of the functional kernel through the
// SIMD seam against an in-test scalar oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "core/distances.hpp"
#include "drim/kernels.hpp"
#include "drim/square_lut.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

/// A tiny hand-rolled index: dim=4, m=2, cb=4, one cluster with 3 points.
struct TinyWorld {
  PimConfig cfg;
  std::unique_ptr<Dpu> dpu;
  SearchKernelArgs args;
  std::vector<ShardRegion> shards;

  // Host-side copies for reference math.
  std::vector<std::int16_t> centroid = {10, 10, 20, 20};
  // codebooks[sub][entry][d]: 2 subs x 4 entries x 2 dims.
  std::vector<std::int16_t> codebooks = {
      // sub 0
      0, 0,  5, 5,  -5, -5,  10, 0,
      // sub 1
      0, 0,  3, -3,  8, 8,  -2, 6,
  };
  std::vector<std::uint8_t> codes = {0, 1, 3, 2, 1, 0};  // 3 points x 2 codes
  std::vector<std::uint32_t> ids = {100, 200, 300};
  std::vector<std::int16_t> query = {12, 9, 25, 18};

  TinyWorld() {
    cfg.num_dpus = 1;
    cfg.mram_bytes = 1 << 20;
    dpu = std::make_unique<Dpu>(cfg);

    const SquareLut lut(64);
    Mram& mram = dpu->mram();

    args.dim = 4;
    args.m = 2;
    args.cb = 4;
    args.code_size = 2;
    args.wide_codes = false;
    args.k = 10;
    args.sq_lut_max_abs = 64;
    args.use_square_lut = true;

    args.sq_lut_offset = mram.alloc(lut.size_bytes());
    mram.write(args.sq_lut_offset,
               {reinterpret_cast<const std::uint8_t*>(lut.raw().data()), lut.size_bytes()});
    args.codebooks_offset = mram.alloc(codebooks.size() * 2);
    mram.write(args.codebooks_offset,
               {reinterpret_cast<const std::uint8_t*>(codebooks.data()), codebooks.size() * 2});
    args.centroids_offset = mram.alloc(centroid.size() * 2);
    mram.write(args.centroids_offset,
               {reinterpret_cast<const std::uint8_t*>(centroid.data()), centroid.size() * 2});

    ShardRegion region;
    region.size = 3;
    region.cluster = 0;
    region.codes_offset = mram.alloc(codes.size());
    mram.write(region.codes_offset, codes);
    region.ids_offset = mram.alloc(ids.size() * 4);
    mram.write(region.ids_offset,
               {reinterpret_cast<const std::uint8_t*>(ids.data()), ids.size() * 4});
    shards.push_back(region);

    args.queries_offset = mram.alloc(query.size() * 2);
    mram.write(args.queries_offset,
               {reinterpret_cast<const std::uint8_t*>(query.data()), query.size() * 2});
    args.output_offset = mram.alloc(args.k * sizeof(KernelHit));
  }

  /// Reference integer ADC distance of point i.
  std::uint32_t reference_distance(std::size_t i) const {
    std::uint32_t total = 0;
    for (std::size_t sub = 0; sub < 2; ++sub) {
      const std::uint8_t e = codes[i * 2 + sub];
      for (std::size_t d = 0; d < 2; ++d) {
        const std::int32_t res = query[sub * 2 + d] - centroid[sub * 2 + d];
        const std::int32_t cw = codebooks[(sub * 4 + e) * 2 + d];
        const std::int32_t diff = res - cw;
        total += static_cast<std::uint32_t>(diff * diff);
      }
    }
    return total;
  }

  std::vector<KernelHit> run() {
    dpu->reset_counters();
    DpuContext ctx = dpu->context();
    const KernelTask task{0, 0};
    run_fused_search_kernel(ctx, args, shards, {&task, 1}, {});
    std::vector<KernelHit> hits(args.k);
    dpu->mram().read(args.output_offset,
                     {reinterpret_cast<std::uint8_t*>(hits.data()),
                      args.k * sizeof(KernelHit)});
    return hits;
  }
};

TEST(Kernel, DistancesMatchReferenceExactly) {
  TinyWorld world;
  const auto hits = world.run();

  // All three points returned (k=10 > 3), sorted ascending, exact distances.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expect;  // (dist, id)
  for (std::size_t i = 0; i < 3; ++i) {
    expect.push_back({world.reference_distance(i), world.ids[i]});
  }
  std::sort(expect.begin(), expect.end());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].dist, expect[i].first) << "rank " << i;
    EXPECT_EQ(hits[i].id, expect[i].second) << "rank " << i;
  }
}

TEST(Kernel, PadsShortShardWithSentinels) {
  TinyWorld world;
  const auto hits = world.run();
  for (std::size_t i = 3; i < world.args.k; ++i) {
    EXPECT_EQ(hits[i].dist, 0xFFFFFFFFu);
    EXPECT_EQ(hits[i].id, 0xFFFFFFFFu);
  }
}

TEST(Kernel, ChargesPhasesSeparately) {
  TinyWorld world;
  world.run();
  const DpuCounters& c = world.dpu->counters();
  EXPECT_GT(c.at(Phase::RC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::LC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::DC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::TS).instr_cycles, 0u);
  EXPECT_EQ(c.at(Phase::CL).instr_cycles, 0u);  // CL runs on the host
  EXPECT_GT(c.at(Phase::LC).mram_bytes_read, 0u);  // codebook DMA
  EXPECT_GT(c.at(Phase::DC).mram_bytes_read, 0u);  // code stream
}

TEST(Kernel, SquareLutEliminatesLcMultiplies) {
  TinyWorld world;
  world.run();
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).mul_count, 0u);

  world.args.use_square_lut = false;
  world.run();
  // 2 subs x 4 entries x 2 dims squares, all multiplies now.
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).mul_count, 16u);
}

TEST(Kernel, ChargingIsDataIndependent) {
  // The squaring charge policy is determined by the args, not the operand
  // values: shrinking the table does not change any counter (the broadcast
  // table is sized to cover the full operand range in real runs, and keeping
  // the charge stream deterministic is what makes sim == analytic exact).
  TinyWorld world;
  world.run();
  const DpuCounters full = world.dpu->counters();

  world.args.sq_lut_max_abs = 2;  // tiny table; arithmetic still exact
  const auto hits = world.run();
  const DpuCounters& tiny = world.dpu->counters();
  EXPECT_EQ(tiny.at(Phase::LC).mul_count, 0u);
  EXPECT_EQ(tiny.at(Phase::LC).instr_cycles, full.at(Phase::LC).instr_cycles);
  EXPECT_EQ(tiny.at(Phase::TS).instr_cycles, full.at(Phase::TS).instr_cycles);

  // Distances stay exact regardless of the charging policy.
  std::vector<std::uint32_t> dists;
  for (std::size_t i = 0; i < 3; ++i) dists.push_back(world.reference_distance(i));
  std::sort(dists.begin(), dists.end());
  EXPECT_EQ(hits[0].dist, dists[0]);
}

TEST(Kernel, AnalyticTwinChargesExactlyEqualCounters) {
  // charge_fused_search_kernel must reproduce run_fused_search_kernel's per-phase
  // counters bit-for-bit: instruction cycles, DMA cycles, MRAM bytes, muls.
  for (const bool use_lut : {true, false}) {
    TinyWorld world;
    world.args.use_square_lut = use_lut;
    world.run();  // functional counters in world.dpu

    Dpu twin(world.cfg);
    DpuContext ctx = twin.context();
    const KernelTask task{0, 0};
    charge_fused_search_kernel(ctx, world.args, world.shards, {&task, 1}, {});

    const DpuCounters& a = world.dpu->counters();
    const DpuCounters& b = twin.counters();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const auto ph = static_cast<Phase>(p);
      EXPECT_EQ(a.at(ph).instr_cycles, b.at(ph).instr_cycles) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mul_count, b.at(ph).mul_count) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mram_bytes_read, b.at(ph).mram_bytes_read) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mram_bytes_written, b.at(ph).mram_bytes_written) << phase_name(ph);
      EXPECT_DOUBLE_EQ(a.at(ph).dma_cycles, b.at(ph).dma_cycles) << phase_name(ph);
    }
  }
}

TEST(Kernel, MultiplyPathCostsMoreCycles) {
  TinyWorld world;
  world.run();
  const std::uint64_t lut_cycles = world.dpu->counters().at(Phase::LC).instr_cycles;
  world.args.use_square_lut = false;
  world.run();
  const std::uint64_t mul_cycles = world.dpu->counters().at(Phase::LC).instr_cycles;
  EXPECT_GT(mul_cycles, lut_cycles);
}

TEST(Kernel, WramBudgetEnforced) {
  TinyWorld world;
  world.cfg.wram_bytes = 64;  // absurdly small
  Dpu tiny_dpu(world.cfg);
  DpuContext ctx = tiny_dpu.context();
  const KernelTask task{0, 0};
  EXPECT_THROW(run_fused_search_kernel(ctx, world.args, world.shards, {&task, 1}, {}),
               std::runtime_error);
}

TEST(Kernel, EmptyTaskListIsNoop) {
  TinyWorld world;
  DpuContext ctx = world.dpu->context();
  run_fused_search_kernel(ctx, world.args, world.shards, {}, {});
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).instr_cycles, 0u);
}

// ---- the functional kernel through the SIMD seam ----
// The functional kernel computes LC and DC with the DistanceKernels integer
// primitives, the same code the host-exact replay runs, so sim == analytic
// no longer checks that arithmetic independently. These tests run a random
// world at the benchmark's shape under both dispatch levels and against an
// in-test scalar oracle: the per-element loops the kernel used to carry.

/// A random MRAM world: dim 128, m 16, `cb` entries (cb > 256 stores wide
/// uint16 codes), the 4-bit rung with per-shard shifts, a shard with
/// tombstones and a nonzero cluster offset, several queries, and a
/// width-4 fusion plan over a mixed-rung task list. With `straddle`, every
/// region starts just before a 64 KiB MRAM page boundary, so the first
/// query, centroid, code block and codebook slice of each region cross a
/// page and the kernel must copy them instead of reading them in place.
struct SeamWorld {
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kM = 16;
  static constexpr std::size_t kDsub = kDim / kM;
  static constexpr std::size_t kCb4 = 16;
  static constexpr std::size_t kQueries = 6;
  static constexpr std::size_t kClusters = 3;

  struct ShardData {
    std::vector<std::uint8_t> codes;   // size x code_size
    std::vector<std::uint8_t> codes4;  // size x code_size_q4
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> dead;    // begin + size flags, or empty
  };

  PimConfig cfg;
  std::unique_ptr<Dpu> dpu;
  SearchKernelArgs args;
  std::size_t cb = 0;
  std::vector<std::int16_t> queries, centroids, books, books4;
  std::vector<ShardData> data;
  std::vector<ShardRegion> shards;
  std::vector<KernelTask> tasks;
  std::vector<FusedTaskGroup> plan;
  std::vector<CodewordList> lists;  // per shard, once attach_lists() ran

  /// Operands are drawn from [-max_abs, max_abs].
  /// Bytes of a straddling region ahead of its page boundary: a codebook's
  /// first slice reads its first DMA chunk in place and copies the second.
  static constexpr std::size_t kBookLead = kMaxDmaBytes + 24;
  static constexpr std::size_t kLead = 24;

  SeamWorld(std::size_t cb_entries, int max_abs, std::uint32_t seed, bool straddle = false)
      : cb(cb_entries) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> val(-max_abs, max_abs);
    const auto fill = [&](std::vector<std::int16_t>& v, std::size_t n) {
      v.resize(n);
      for (auto& x : v) x = static_cast<std::int16_t>(val(rng));
    };
    fill(queries, kQueries * kDim);
    fill(centroids, kClusters * kDim);
    fill(books, kM * cb * kDsub);
    fill(books4, kM * kCb4 * kDsub);

    cfg.num_dpus = 1;
    cfg.mram_bytes = 16u << 20;
    cfg.wram_bytes = 1u << 20;  // a width-4 slab at cb 512 exceeds 64 KB
    dpu = std::make_unique<Dpu>(cfg);
    Mram& mram = dpu->mram();
    const auto put = [&](const void* src, std::size_t bytes, std::size_t lead = kLead) {
      if (straddle) {
        const std::size_t page = Mram::kPageBytes;
        std::size_t start = (mram.used() / page + 1) * page - lead;
        if (start < mram.used()) start += page;
        mram.alloc(start - mram.used());
      }
      const std::size_t off = mram.alloc(bytes);
      mram.write(off, {static_cast<const std::uint8_t*>(src), bytes});
      return off;
    };

    const SquareLut sq(64);
    args.dim = kDim;
    args.m = kM;
    args.cb = static_cast<std::uint32_t>(cb);
    args.wide_codes = cb > 256;
    args.code_size = static_cast<std::uint32_t>(kM * (args.wide_codes ? 2 : 1));
    args.k = 10;
    args.sq_lut_max_abs = 64;
    args.sq_lut_offset = put(sq.raw().data(), sq.size_bytes());
    args.codebooks_offset = put(books.data(), books.size() * 2, kBookLead);
    args.centroids_offset = put(centroids.data(), centroids.size() * 2);
    args.queries_offset = put(queries.data(), queries.size() * 2);
    args.has_q4 = true;
    args.cb4 = kCb4;
    args.code_size_q4 = (kM + 1) / 2;
    args.codebooks_q4_offset = put(books4.data(), books4.size() * 2, kBookLead);

    // (size, cluster, begin, tombstoned): one shard spans several code
    // blocks with a partial last block, one is shorter than k.
    const struct { std::uint32_t size, cluster, begin; bool dead; } spec[] = {
        {300, 0, 0, false}, {517, 1, 40, true}, {7, 2, 0, false}, {1000, 0, 300, false}};
    std::uniform_int_distribution<std::uint32_t> code(0, static_cast<std::uint32_t>(cb - 1));
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> coin(0, 3);
    data.reserve(std::size(spec));  // shards point into data's flag vectors
    for (const auto& sp : spec) {
      ShardData d;
      d.codes.resize(sp.size * args.code_size);
      for (std::size_t i = 0; i < sp.size * kM; ++i) {
        if (args.wide_codes) {
          const auto v = static_cast<std::uint16_t>(code(rng));
          std::memcpy(d.codes.data() + i * 2, &v, 2);
        } else {
          d.codes[i] = static_cast<std::uint8_t>(code(rng));
        }
      }
      d.codes4.resize(sp.size * args.code_size_q4);
      for (auto& b : d.codes4) b = static_cast<std::uint8_t>(byte(rng));
      for (std::uint32_t i = 0; i < sp.size; ++i) d.ids.push_back(7000 + 13 * i + sp.cluster);
      if (sp.dead) {
        d.dead.assign(sp.begin + sp.size, 0);
        for (std::uint32_t i = 0; i < sp.size; ++i) d.dead[sp.begin + i] = coin(rng) == 0;
      }
      ShardRegion r;
      r.size = sp.size;
      r.cluster = sp.cluster;
      r.begin = sp.begin;
      r.codes_offset = put(d.codes.data(), d.codes.size());
      r.ids_offset = put(d.ids.data(), d.ids.size() * 4);
      r.q4_codes_offset = put(d.codes4.data(), d.codes4.size());
      r.q4_shift = static_cast<std::uint32_t>(shards.size());  // 0..3
      data.push_back(std::move(d));
      shards.push_back(r);
      if (!data.back().dead.empty()) {
        shards.back().dead = data.back().dead.data();
        shards.back().live = 0;
        for (std::uint32_t i = 0; i < sp.size; ++i) {
          shards.back().live += data.back().dead[sp.begin + i] == 0;
        }
      }
    }

    // Every query probes every shard; every third task on the q4 rung.
    for (std::uint32_t t = 0; t < kQueries * shards.size(); ++t) {
      const auto q = static_cast<std::uint32_t>(t % kQueries);
      tasks.push_back({q | (t % 3 == 0 ? kTaskQ4Bit : 0u),
                       static_cast<std::uint32_t>(t / kQueries)});
    }
    plan = plan_task_fusion(tasks, 4);
    args.output_offset = mram.alloc(tasks.size() * args.k * sizeof(KernelHit));
  }

  /// Give every shard the codeword list the engine would build from its
  /// codes, so the full rung builds only the referenced LUT entries.
  void attach_lists() {
    lists.clear();
    for (const ShardData& d : data) {
      lists.push_back(build_codeword_list(d.codes, kM, cb, args.wide_codes));
    }
    for (std::size_t s = 0; s < shards.size(); ++s) shards[s].codewords = &lists[s];
  }

  struct Run {
    std::vector<KernelHit> rows;
    DpuCounters counters;
  };

  Run run(SimdLevel level) {
    const SimdLevel saved = simd_level();
    set_simd_level(level);
    dpu->reset_counters();
    DpuContext ctx = dpu->context();
    run_fused_search_kernel(ctx, args, shards, tasks, plan);
    set_simd_level(saved);
    Run r{std::vector<KernelHit>(tasks.size() * args.k), dpu->counters()};
    dpu->mram().read(args.output_offset, {reinterpret_cast<std::uint8_t*>(r.rows.data()),
                                          r.rows.size() * sizeof(KernelHit)});
    return r;
  }

  /// The oracle: per-element table and scan loops, then a full sort of the
  /// live points under the kernel's (distance, local index) order.
  std::vector<KernelHit> oracle() const {
    std::vector<KernelHit> rows;
    for (const KernelTask& t : tasks) {
      const ShardRegion& sh = shards[t.shard_slot];
      const ShardData& d = data[t.shard_slot];
      const bool q4 = task_is_q4(t);
      const std::uint32_t shift = q4 ? sh.q4_shift : 0;
      const std::size_t entries = q4 ? kCb4 : cb;
      const std::int16_t* q = queries.data() + task_query_slot(t) * kDim;
      const std::int16_t* c = centroids.data() + sh.cluster * kDim;
      const std::int16_t* book = q4 ? books4.data() : books.data();
      std::vector<std::uint32_t> lut(kM * entries);
      for (std::size_t sub = 0; sub < kM; ++sub) {
        for (std::size_t e = 0; e < entries; ++e) {
          std::uint32_t acc = 0;
          for (std::size_t dd = 0; dd < kDsub; ++dd) {
            const std::size_t j = sub * kDsub + dd;
            const std::int32_t res = (static_cast<std::int32_t>(q[j]) - c[j]) >> shift;
            const std::int32_t diff = res - (book[(sub * entries + e) * kDsub + dd] >> shift);
            const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
            acc += a * a;
          }
          lut[sub * entries + e] = acc;
        }
      }
      std::vector<KernelHit> all;
      for (std::uint32_t i = 0; i < sh.size; ++i) {
        if (!d.dead.empty() && d.dead[sh.begin + i]) continue;
        std::uint32_t dist = 0;
        for (std::size_t sub = 0; sub < kM; ++sub) {
          std::uint32_t e = 0;
          if (q4) {
            e = (d.codes4[i * args.code_size_q4 + sub / 2] >> (sub % 2 * 4)) & 0xF;
          } else if (args.wide_codes) {
            std::uint16_t v = 0;
            std::memcpy(&v, d.codes.data() + i * args.code_size + sub * 2, 2);
            e = v;
          } else {
            e = d.codes[i * args.code_size + sub];
          }
          dist += lut[sub * entries + e];
        }
        all.push_back({dist, i});
      }
      std::sort(all.begin(), all.end(), [](const KernelHit& a, const KernelHit& b) {
        return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
      });
      all.resize(args.k, KernelHit{});
      // Full-rung rows carry base-point ids; q4 rows keep local indices.
      for (KernelHit& h : all) {
        if (!q4 && h.id != 0xFFFFFFFFu) h.id = d.ids[h.id];
      }
      rows.insert(rows.end(), all.begin(), all.end());
    }
    return rows;
  }
};

void expect_same_rows(const std::vector<KernelHit>& a, const std::vector<KernelHit>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dist, b[i].dist) << what << " row " << i / 10 << " rank " << i % 10;
    ASSERT_EQ(a[i].id, b[i].id) << what << " row " << i / 10 << " rank " << i % 10;
  }
}

void expect_same_counters(const DpuCounters& a, const DpuCounters& b) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const auto ph = static_cast<Phase>(p);
    EXPECT_EQ(a.at(ph).instr_cycles, b.at(ph).instr_cycles) << phase_name(ph);
    EXPECT_EQ(a.at(ph).mul_count, b.at(ph).mul_count) << phase_name(ph);
    EXPECT_EQ(a.at(ph).mram_bytes_read, b.at(ph).mram_bytes_read) << phase_name(ph);
    EXPECT_EQ(a.at(ph).mram_bytes_written, b.at(ph).mram_bytes_written) << phase_name(ph);
    EXPECT_DOUBLE_EQ(a.at(ph).dma_cycles, b.at(ph).dma_cycles) << phase_name(ph);
  }
}

void check_seam_world(SeamWorld& world) {
  const auto oracle = world.oracle();
  const auto scalar = world.run(SimdLevel::kScalar);
  expect_same_rows(scalar.rows, oracle, "scalar vs oracle");
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernels unavailable on this build/CPU";
  const auto avx2 = world.run(SimdLevel::kAvx2);
  expect_same_rows(avx2.rows, oracle, "avx2 vs oracle");
  expect_same_counters(scalar.counters, avx2.counters);
}

TEST(KernelSeam, BenchmarkShapeMatchesOracleAtBothSimdLevels) {
  // Moderate operands: the int16 multiply-add table path's range.
  SeamWorld world(256, 3000, 41);
  check_seam_world(world);
}

TEST(KernelSeam, WideCodesFullRangeOperandsMatchOracleAtBothSimdLevels) {
  // Full int16 operands: squares wrap uint32 and tables take the int32 path.
  SeamWorld world(512, 32767, 43);
  check_seam_world(world);
}

TEST(KernelSeam, PageStraddlingReadsMatchOracleAndChargeTwin) {
  // In-place MRAM reads fall back to a copy when a range crosses a page.
  // Rows must still match the oracle row for row, and every per-phase
  // counter must equal the charge-only twin's and an unstraddled world's:
  // where the bytes lie never changes what a read bills.
  for (const std::size_t cb : {std::size_t{256}, std::size_t{512}}) {
    SCOPED_TRACE(cb);
    SeamWorld world(cb, 3000, 47, /*straddle=*/true);
    const Mram& mram = world.dpu->mram();
    const ShardRegion& sh = world.shards[0];
    const std::size_t block = kMaxDmaBytes / world.args.code_size * world.args.code_size;
    ASSERT_EQ(mram.view(sh.codes_offset, block), nullptr);  // first block straddles
    ASSERT_NE(mram.view(sh.codes_offset + block, block), nullptr);
    ASSERT_EQ(mram.view(world.args.codebooks_offset, cb * SeamWorld::kDsub * 2), nullptr);
    ASSERT_NE(mram.view(world.args.codebooks_offset, kMaxDmaBytes), nullptr);

    const auto straddled = world.run(SimdLevel::kScalar);
    expect_same_rows(straddled.rows, world.oracle(), "straddled vs oracle");

    world.dpu->reset_counters();
    DpuContext ctx = world.dpu->context();
    charge_fused_search_kernel(ctx, world.args, world.shards, world.tasks, world.plan);
    expect_same_counters(straddled.counters, world.dpu->counters());

    SeamWorld flat(cb, 3000, 47);
    expect_same_counters(straddled.counters, flat.run(SimdLevel::kScalar).counters);
  }
}

TEST(KernelSeam, ListedTablesMatchOracleAndChargeTwinAtBothSimdLevels) {
  // With engine-built codeword lists the full rung builds only the entries
  // its shard's codes reference. Rows must still match the oracle at both
  // SIMD levels, the charge-only twin must bill the same counters, and LC
  // must bill less than the dense build.
  for (const std::size_t cb : {std::size_t{256}, std::size_t{512}}) {
    SCOPED_TRACE(cb);
    SeamWorld world(cb, cb > 256 ? 32767 : 3000, 53);
    const auto dense = world.run(SimdLevel::kScalar).counters;
    world.attach_lists();
    // The short shard (7 points) lists at most 7 of each book's entries.
    EXPECT_LE(world.lists[2].size(), 7 * SeamWorld::kM);

    const auto scalar = world.run(SimdLevel::kScalar);
    expect_same_rows(scalar.rows, world.oracle(), "listed scalar vs oracle");
    world.dpu->reset_counters();
    DpuContext ctx = world.dpu->context();
    charge_fused_search_kernel(ctx, world.args, world.shards, world.tasks, world.plan);
    expect_same_counters(scalar.counters, world.dpu->counters());
    EXPECT_LT(scalar.counters.at(Phase::LC).instr_cycles,
              dense.at(Phase::LC).instr_cycles);
    check_seam_world(world);
  }
}

TEST(KernelSeam, ListMissingAUsedCodewordChangesAnswers) {
  // The listed build writes only the listed entries, so a list that drops a
  // codeword the codes use leaves that entry unbuilt (zero, or another
  // cluster's value from an earlier group), and the identity tests see it.
  // Shard 2 (7 points, fewer than k) returns every point, so any changed
  // distance shows in its rows.
  SeamWorld world(256, 3000, 41);
  world.attach_lists();
  CodewordList& list = world.lists[2];
  std::size_t dropped = 0;  // sub 0's smallest listed codeword
  while (!list.listed(0, dropped)) ++dropped;
  list.marks[dropped / 8] &= static_cast<std::uint8_t>(~(1u << (dropped % 8)));
  for (std::size_t s = 1; s < list.offsets.size(); ++s) --list.offsets[s];

  const auto run = world.run(SimdLevel::kScalar);
  const auto oracle = world.oracle();
  bool differs = false;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    differs |= run.rows[i].dist != oracle[i].dist || run.rows[i].id != oracle[i].id;
  }
  EXPECT_TRUE(differs) << "a list missing a used codeword went unnoticed";
}

TEST(KernelSeam, OracleSeesLiveQ4AndTombstonedRows) {
  // Guard the world itself: it must exercise both rungs, a tombstone skip
  // and a short (sentinel-padded) shard, or the tests above prove little.
  SeamWorld world(256, 3000, 41);
  const auto rows = world.oracle();
  bool q4_row = false;
  bool padded = false;
  for (std::size_t t = 0; t < world.tasks.size(); ++t) {
    q4_row |= task_is_q4(world.tasks[t]);
    padded |= rows[t * world.args.k + world.args.k - 1].id == 0xFFFFFFFFu;
  }
  EXPECT_TRUE(q4_row);
  EXPECT_TRUE(padded);
  EXPECT_LT(world.shards[1].live, world.shards[1].size);
  EXPECT_GT(world.shards[1].live, 0u);
  EXPECT_LT(world.plan.size(), world.tasks.size());  // some group is fused
}

}  // namespace
}  // namespace drim
