// Tests for the UPMEM simulator substrate: MRAM allocation/access, DMA cost
// accounting, the pipeline/DMA overlap timing model, host-link transfer
// billing, and barrier-batch semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "pim/dpu.hpp"
#include "pim/energy_model.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

PimConfig small_config(std::size_t dpus = 4) {
  PimConfig cfg;
  cfg.num_dpus = dpus;
  cfg.mram_bytes = 1 << 20;  // 1 MB keeps tests light
  return cfg;
}

TEST(Mram, AllocAlignsTo8) {
  Mram m(1024);
  EXPECT_EQ(m.alloc(3), 0u);
  EXPECT_EQ(m.alloc(5), 8u);
  EXPECT_EQ(m.used(), 16u);
}

TEST(Mram, AllocThrowsWhenExhausted) {
  Mram m(64);
  m.alloc(60);
  EXPECT_THROW(m.alloc(16), std::runtime_error);
  // Sizes whose 8-byte rounding wraps to 0 must not "succeed".
  Mram fresh(64);
  EXPECT_THROW(fresh.alloc(SIZE_MAX), std::runtime_error);
  EXPECT_THROW(fresh.alloc(SIZE_MAX - 6), std::runtime_error);
  // The padding counts against capacity: 57 bytes round to 64, over 63.
  Mram odd(63);
  EXPECT_THROW(odd.alloc(57), std::runtime_error);
  EXPECT_EQ(odd.alloc(56), 0u);
  EXPECT_EQ(fresh.used(), 0u);
}

TEST(Mram, WriteReadRoundTrip) {
  Mram m(1024);
  const std::uint8_t src[4] = {1, 2, 3, 4};
  m.write(100, src);
  std::uint8_t dst[4] = {};
  m.read(100, dst);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[3], 4);
}

TEST(Mram, UntouchedReadsAsZero) {
  Mram m(1 << 20);
  std::uint8_t dst[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  m.read((1 << 20) - 8, dst);  // never written, no page allocated
  for (std::uint8_t b : dst) EXPECT_EQ(b, 0);
  EXPECT_EQ(m.resident_bytes(), 0u);
}

TEST(Mram, OutOfRangeThrows) {
  Mram m(64);
  std::uint8_t buf[16] = {};
  EXPECT_THROW(m.write(60, buf), std::runtime_error);
  EXPECT_THROW(m.read(60, {buf, 16}), std::runtime_error);
  // offset + size wraps past SIZE_MAX for these; the check must not.
  EXPECT_THROW(m.write(SIZE_MAX - 3, buf), std::runtime_error);
  EXPECT_THROW(m.read(SIZE_MAX - 3, {buf, 16}), std::runtime_error);
  EXPECT_THROW(m.write(65, {buf, 0}), std::runtime_error);
  EXPECT_NO_THROW(m.write(64, {buf, 0}));
  EXPECT_NO_THROW(m.write(48, buf));
}

TEST(Mram, WriteStraddlingTwoPageBoundariesRoundTrips) {
  constexpr std::size_t kPage = Mram::kPageBytes;
  Mram m(8 * kPage);
  // Starts 5 bytes before page 1's end and runs 5 bytes into page 3.
  std::vector<std::uint8_t> src(kPage + 10);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const std::size_t offset = 2 * kPage - 5;
  m.write(offset, src);
  EXPECT_EQ(m.resident_bytes(), 3 * kPage);
  std::vector<std::uint8_t> dst(src.size());
  m.read(offset, dst);
  EXPECT_EQ(dst, src);
}

TEST(Mram, UntouchedBytesInsideTouchedPageReadZero) {
  Mram m(4 * Mram::kPageBytes);
  const std::uint8_t src[4] = {1, 2, 3, 4};
  m.write(Mram::kPageBytes + 100, src);
  std::uint8_t dst[12];
  std::memset(dst, 0xEE, sizeof(dst));
  m.read(Mram::kPageBytes + 96, dst);
  const std::uint8_t want[12] = {0, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(dst[i], want[i]) << i;
  EXPECT_EQ(m.resident_bytes(), Mram::kPageBytes);
}

TEST(Mram, UntouchedPageBetweenTouchedPagesReadsZero) {
  constexpr std::size_t kPage = Mram::kPageBytes;
  Mram m(4 * kPage);
  const std::vector<std::uint8_t> ones(kPage, 1);
  m.write(0, ones);
  m.write(2 * kPage, ones);
  EXPECT_EQ(m.resident_bytes(), 2 * kPage);
  // A read spanning pages 0..2 sees ones, then the gap's zeros, then ones.
  std::vector<std::uint8_t> dst(3 * kPage, 0xEE);
  m.read(0, dst);
  for (std::size_t i = 0; i < dst.size(); i += 4096) {
    EXPECT_EQ(dst[i], i / kPage == 1 ? 0 : 1) << i;
  }
  EXPECT_EQ(dst[2 * kPage - 1], 0);
  EXPECT_EQ(dst[2 * kPage], 1);
  EXPECT_EQ(m.resident_bytes(), 2 * kPage);  // reads never allocate
}

TEST(Mram, ResetDropsEveryPage) {
  Mram m(4 * Mram::kPageBytes);
  m.alloc(64);
  const std::vector<std::uint8_t> ones(3 * Mram::kPageBytes, 1);
  m.write(10, ones);
  ASSERT_GT(m.resident_bytes(), 0u);
  m.reset();
  EXPECT_EQ(m.used(), 0u);
  EXPECT_EQ(m.resident_bytes(), 0u);
  std::vector<std::uint8_t> dst(ones.size(), 0xEE);
  m.read(10, dst);
  for (std::uint8_t b : dst) ASSERT_EQ(b, 0);
}

TEST(PimConfig, EffectiveIpcSaturatesAtPipelineDepth) {
  PimConfig cfg;
  cfg.pipeline_depth = 11;
  cfg.tasklets = 11;
  EXPECT_DOUBLE_EQ(cfg.effective_ipc(), 1.0);
  cfg.tasklets = 22;
  EXPECT_DOUBLE_EQ(cfg.effective_ipc(), 1.0);
  cfg.tasklets = 1;
  EXPECT_NEAR(cfg.effective_ipc(), 1.0 / 11.0, 1e-12);
}

TEST(PimConfig, MramStreamBandwidthNearMeasured) {
  // The DMA model should land near the published ~630 MB/s achievable rate.
  const PimConfig cfg;
  EXPECT_NEAR(cfg.mram_stream_bandwidth(), 633e6, 30e6);
}

TEST(DpuContext, ChargesInstructionCosts) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  DpuContext ctx = dpu.context();
  ctx.set_phase(Phase::LC);
  ctx.charge_adds(10);
  ctx.charge_muls(2);
  ctx.charge_lut_lookups(5);
  const PhaseCounters& c = dpu.counters().at(Phase::LC);
  EXPECT_EQ(c.instr_cycles, 10u * 1 + 2u * 32 + 5u * 2);
  EXPECT_EQ(c.mul_count, 2u);
}

TEST(DpuContext, DmaCostAffineInSize) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  DpuContext ctx = dpu.context();
  ctx.set_phase(Phase::DC);
  std::vector<std::uint8_t> buf(1000);
  ctx.mram_read(0, buf);
  const PhaseCounters& c = dpu.counters().at(Phase::DC);
  EXPECT_DOUBLE_EQ(c.dma_cycles, cfg.dma_fixed_cycles + 1000 * cfg.dma_cycles_per_byte);
  EXPECT_EQ(c.mram_bytes_read, 1000u);
}

TEST(Dpu, ExecutionTimeIsMaxOfComputeAndDma) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  {
    DpuContext ctx = dpu.context();
    ctx.set_phase(Phase::DC);
    ctx.charge_adds(450);  // 450 compute cycles
  }
  const double compute_only = dpu.execution_seconds();
  EXPECT_NEAR(compute_only, 450.0 / cfg.effective_ipc() / 450e6, 1e-12);

  {
    DpuContext ctx = dpu.context();
    ctx.set_phase(Phase::DC);
    std::vector<std::uint8_t> big(2048);
    for (int i = 0; i < 1000; ++i) ctx.mram_read(0, big);  // DMA-dominated
  }
  const double with_dma = dpu.execution_seconds();
  EXPECT_GT(with_dma, compute_only * 100);
}

TEST(Dpu, ComputeScaleAcceleratesInstructionStreamOnly) {
  PimConfig fast = small_config();
  fast.compute_scale = 2.0;
  PimConfig base = small_config();

  Dpu d1(base), d2(fast);
  for (Dpu* d : {&d1, &d2}) {
    DpuContext ctx = d->context();
    ctx.set_phase(Phase::LC);
    ctx.charge_muls(1000);  // compute-bound
  }
  EXPECT_NEAR(d1.execution_seconds() / d2.execution_seconds(), 2.0, 1e-9);

  Dpu d3(base), d4(fast);
  for (Dpu* d : {&d3, &d4}) {
    DpuContext ctx = d->context();
    ctx.set_phase(Phase::DC);
    std::vector<std::uint8_t> buf(2048);
    for (int i = 0; i < 100; ++i) ctx.mram_read(0, buf);  // DMA-bound
  }
  EXPECT_NEAR(d3.execution_seconds() / d4.execution_seconds(), 1.0, 1e-9);
}

TEST(WramBudget, ThrowsWhenExceeded) {
  const PimConfig cfg;
  EXPECT_NO_THROW(check_wram_budget(cfg, 64 << 10));
  EXPECT_THROW(check_wram_budget(cfg, (64 << 10) + 1), std::runtime_error);
}

TEST(PimSystem, SymmetricAllocStaysAligned) {
  SimPimPlatform sys(small_config(4));
  const std::size_t a = sys.alloc_symmetric(100);
  const std::size_t b = sys.alloc_symmetric(100);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 104u);
}

TEST(PimSystem, BroadcastReachesAllDpus) {
  SimPimPlatform sys(small_config(4));
  const std::size_t off = sys.alloc_symmetric(4);
  const std::uint8_t payload[4] = {7, 8, 9, 10};
  sys.broadcast(off, payload);
  for (std::size_t d = 0; d < 4; ++d) {
    std::uint8_t got[4] = {};
    sys.pull(d, off, got);
    EXPECT_EQ(got[2], 9);
  }
}

TEST(PimSystem, BatchTimeIsSlowestDpu) {
  SimPimPlatform sys(small_config(3));
  const BatchResult r = sys.run_batch([](std::size_t d, DpuContext& ctx) {
    ctx.set_phase(Phase::DC);
    ctx.charge_adds((d + 1) * 1000);  // DPU 2 is slowest
  });
  EXPECT_DOUBLE_EQ(r.dpu_seconds, r.per_dpu_seconds[2]);
  EXPECT_GT(r.per_dpu_seconds[2], r.per_dpu_seconds[0]);
}

TEST(PimSystem, TransferBytesBilledAtHostLink) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;  // 1 KB/s for easy math
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(512);
  std::vector<std::uint8_t> data(500);
  sys.push(0, off, data);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_NEAR(r.transfer_in_seconds, 0.5, 1e-9);

  // Second batch has nothing pending.
  const BatchResult r2 = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_DOUBLE_EQ(r2.transfer_in_seconds, 0.0);
}

TEST(PimSystem, CollectBillsTransferOut) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  sys.alloc_symmetric(256);
  std::vector<std::uint8_t> out(250);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {},
                                      [&]() { sys.pull(0, 0, out); });
  EXPECT_NEAR(r.transfer_out_seconds, 0.25, 1e-9);
}

TEST(PimSystem, CountersResetBetweenBatches) {
  SimPimPlatform sys(small_config(1));
  sys.run_batch([](std::size_t, DpuContext& ctx) {
    ctx.set_phase(Phase::LC);
    ctx.charge_adds(100);
  });
  sys.run_batch([](std::size_t, DpuContext& ctx) {
    ctx.set_phase(Phase::LC);
    ctx.charge_adds(1);
  });
  EXPECT_EQ(sys.dpu(0).counters().at(Phase::LC).instr_cycles, 1u);
}

// ---- transfers made inside a launch ----
// The engine stages each DPU's queries and pulls its results inside the
// kernel body of run_batch, so those bytes must bill to that batch exactly
// as bytes pushed before the launch and pulled in `collect` do.

TEST(PimSystem, PushesInsideKernelBodyBillTransferIn) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(512);
  const std::vector<std::uint8_t> data(100, 3);
  sys.push(0, off, data);  // before the launch: 100 bytes
  const BatchResult r = sys.run_batch(
      [&](std::size_t d, DpuContext&) { sys.push(d, off, data); });  // 2 x 100 bytes
  EXPECT_NEAR(r.transfer_in_seconds, 0.3, 1e-12);
  std::uint8_t got = 0;
  sys.dpu(1).mram().read(off, {&got, 1});
  EXPECT_EQ(got, 3);
  // Nothing leaks into the next batch, except a push made during `collect`,
  // which bills the next batch as it always has.
  sys.run_batch([](std::size_t, DpuContext&) {}, [&]() { sys.push(0, off, data); });
  EXPECT_NEAR(sys.run_batch([](std::size_t, DpuContext&) {}).transfer_in_seconds, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(sys.run_batch([](std::size_t, DpuContext&) {}).transfer_in_seconds, 0.0);
}

TEST(PimSystem, PullsInsideKernelBodyBillTransferOut) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(256);
  std::vector<std::vector<std::uint8_t>> rows(2, std::vector<std::uint8_t>(125));
  std::vector<std::uint8_t> tail(50);
  const BatchResult r = sys.run_batch(
      [&](std::size_t d, DpuContext&) { sys.pull(d, off, rows[d]); },  // 2 x 125 bytes
      [&]() { sys.pull(0, off, tail); });                             // + 50 bytes
  EXPECT_NEAR(r.transfer_out_seconds, 0.3, 1e-12);
}

TEST(PimSystem, PullsOutsideRunBatchAreNotBilled) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(256);
  std::vector<std::uint8_t> out(200);
  sys.pull(0, off, out);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_DOUBLE_EQ(r.transfer_out_seconds, 0.0);
  sys.pull(1, off, out);
  EXPECT_DOUBLE_EQ(sys.run_batch([](std::size_t, DpuContext&) {}).transfer_out_seconds, 0.0);
}

/// A DpuArrayPlatform that moves no bytes and exposes the batch billing
/// state, so a test can see what a failed launch leaves behind.
class BillingProbe final : public DpuArrayPlatform {
 public:
  using DpuArrayPlatform::DpuArrayPlatform;
  std::string name() const override { return "probe"; }
  bool functional() const override { return false; }
  void push(std::size_t, std::size_t, std::span<const std::uint8_t> data) override {
    pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }
  void broadcast(std::size_t, std::span<const std::uint8_t> data) override {
    pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }
  void pull(std::size_t, std::size_t, std::span<std::uint8_t> out) override {
    if (collecting_) pending_out_bytes_.fetch_add(out.size(), std::memory_order_relaxed);
  }
  bool collecting() const { return collecting_; }
  std::uint64_t pending_out() const { return pending_out_bytes_.load(); }
};

TEST(PimSystem, ThrowingKernelLeavesNothingPending) {
  BillingProbe probe(small_config(4));
  std::vector<std::uint8_t> bytes(64);
  probe.push(0, 0, bytes);
  EXPECT_THROW(probe.run_batch([&](std::size_t d, DpuContext&) {
                 probe.push(d, 0, bytes);
                 probe.pull(d, 0, bytes);
                 if (d == 2) throw std::runtime_error("kernel failure");
               }),
               std::runtime_error);
  EXPECT_FALSE(probe.collecting());
  EXPECT_EQ(probe.pending_out(), 0u);
  EXPECT_DOUBLE_EQ(probe.drain_pending_transfer(), 0.0);
  // A pull after the failed launch is outside any batch: unbilled.
  probe.pull(0, 0, bytes);
  EXPECT_EQ(probe.pending_out(), 0u);
  // A collect that throws leaves nothing pending either.
  EXPECT_THROW(probe.run_batch([](std::size_t, DpuContext&) {},
                               [&]() {
                                 probe.push(1, 0, bytes);
                                 probe.pull(1, 0, bytes);
                                 throw std::runtime_error("collect failure");
                               }),
               std::runtime_error);
  EXPECT_FALSE(probe.collecting());
  EXPECT_EQ(probe.pending_out(), 0u);
  EXPECT_DOUBLE_EQ(probe.drain_pending_transfer(), 0.0);

  // The same on the functional platform, through its public surface.
  SimPimPlatform sys(small_config(4));
  const std::size_t off = sys.alloc_symmetric(64);
  sys.push(1, off, bytes);
  EXPECT_THROW(sys.run_batch([&](std::size_t d, DpuContext&) {
                 sys.push(d, off, bytes);
                 if (d == 3) throw std::runtime_error("kernel failure");
               }),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(sys.drain_pending_transfer(), 0.0);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_DOUBLE_EQ(r.transfer_in_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.transfer_out_seconds, 0.0);
}

// ---- in-place MRAM reads ----

TEST(Mram, ViewIsNullForUnwrittenPagesAndPageStraddles) {
  constexpr std::size_t kPage = Mram::kPageBytes;
  Mram m(4 * kPage);
  EXPECT_EQ(m.view(0, 16), nullptr);  // nothing written yet
  std::vector<std::uint8_t> bytes(64);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{1});
  const std::size_t off = kPage - 32;
  m.write(off, bytes);  // the last 32 bytes of page 0, the first 32 of page 1
  EXPECT_EQ(m.view(off, 64), nullptr);      // crosses the page boundary
  EXPECT_EQ(m.view(off + 8, 32), nullptr);  // still crosses it
  EXPECT_EQ(m.view(2 * kPage, 8), nullptr);  // page 2 never written
  EXPECT_EQ(m.view(4 * kPage - 8, 16), nullptr);  // beyond capacity

  // Inside one written page the view holds exactly what read() returns,
  // written bytes and the page's zero fill alike.
  const struct { std::size_t offset, size; } inside[] = {
      {off, 32}, {kPage, 32}, {kPage + 8, 40}, {0, 64}, {kPage - 8, 8}};
  for (const auto& r : inside) {
    const std::uint8_t* v = m.view(r.offset, r.size);
    ASSERT_NE(v, nullptr) << r.offset;
    std::vector<std::uint8_t> copy(r.size);
    m.read(r.offset, copy);
    EXPECT_TRUE(std::equal(copy.begin(), copy.end(), v)) << r.offset;
  }
}

TEST(DpuContext, MramReadViewBillsLikeMramRead) {
  PimConfig cfg = small_config(1);
  Dpu viewed(cfg), copied(cfg);
  std::vector<std::uint8_t> bytes(256);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  const std::size_t off = Mram::kPageBytes - 100;  // straddles pages 0 and 1
  viewed.mram().write(off, bytes);
  copied.mram().write(off, bytes);

  DpuContext vc = viewed.context();
  DpuContext cc = copied.context();
  vc.set_phase(Phase::DC);
  cc.set_phase(Phase::DC);
  std::vector<std::uint8_t> fallback(256, 0xEE), dst(256);
  // In place (inside page 1), then across the boundary (copied).
  const std::uint8_t* in_place = vc.mram_read_view(off + 100, 128, fallback.data());
  EXPECT_NE(in_place, fallback.data());
  EXPECT_TRUE(std::equal(bytes.begin() + 100, bytes.begin() + 228, in_place));
  const std::uint8_t* straddle = vc.mram_read_view(off, 256, fallback.data());
  EXPECT_EQ(straddle, fallback.data());
  EXPECT_EQ(fallback, bytes);
  cc.mram_read(off + 100, {dst.data(), 128});
  cc.mram_read(off, dst);

  const PhaseCounters& a = viewed.counters().at(Phase::DC);
  const PhaseCounters& b = copied.counters().at(Phase::DC);
  EXPECT_EQ(a.mram_bytes_read, b.mram_bytes_read);
  EXPECT_EQ(a.mram_bytes_read, 384u);
  EXPECT_DOUBLE_EQ(a.dma_cycles, b.dma_cycles);
  EXPECT_EQ(a.instr_cycles, b.instr_cycles);
}

TEST(EnergyModel, DimmCountRoundsUp) {
  EnergyModel e;
  PimConfig cfg;
  cfg.num_dpus = 129;
  cfg.dpus_per_dimm = 128;
  EXPECT_EQ(e.dimms(cfg), 2u);
}

TEST(EnergyModel, EnergyScalesWithTime) {
  EnergyModel e;
  const PimConfig cfg;  // 64 DPUs -> 1 DIMM
  EXPECT_NEAR(e.pim_energy_joules(cfg, 2.0), 2.0 * (13.92 + 100.0), 1e-9);
  EXPECT_NEAR(e.cpu_energy_joules(2.0), 250.0, 1e-9);
}

}  // namespace
}  // namespace drim
