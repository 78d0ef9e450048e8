#pragma once
// The functional PIM platform: an array of simulated DPUs plus the host
// link. Models the UPMEM execution contract the paper's load-balancing work
// targets:
//   - the host launches a kernel on ALL DPUs and must wait for every one of
//     them (batch latency = slowest DPU),
//   - host<->DPU transfers share one ~19.2 GB/s channel (0.75% of aggregate
//     internal bandwidth), so per-batch data movement is accounted and
//     reported separately,
//   - DPUs cannot communicate with each other.
// Kernel runs are data-independent (each Dpu owns its MRAM page table and
// counters; pages a broadcast shares are copied before any DPU writes them),
// so run_batch executes them across host threads with drim::parallel_for
// while timing them as if hardware-parallel. Simulated cycle counts, batch
// timings, and MRAM contents are bit-identical to a single-threaded run:
// transfer billing sums exact integer byte counts (atomics), and every other
// mutation is DPU-private. See DESIGN.md "Host threading model".
//
// DpuArrayPlatform is the shared chassis (DPU array, byte tallies, batch
// loop); SimPimPlatform materializes transfers into simulated MRAM, while
// AnalyticPimPlatform (pim/analytic_platform.hpp) only bills them.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pim/dpu.hpp"
#include "pim/pim_platform.hpp"

namespace drim {

/// Common PimPlatform machinery for platforms backed by an array of
/// simulated Dpu objects: allocation, counter aggregation, pending-transfer
/// tallies, and the parallel barrier-synchronized batch loop. Subclasses
/// decide whether push/broadcast/pull move real bytes.
class DpuArrayPlatform : public PimPlatform {
 public:
  explicit DpuArrayPlatform(const PimConfig& config);
  DpuArrayPlatform(const DpuArrayPlatform&) = delete;
  DpuArrayPlatform& operator=(const DpuArrayPlatform&) = delete;

  const PimConfig& config() const override { return config_; }
  std::size_t num_dpus() const override { return dpus_.size(); }

  /// Direct DPU access for tests and platform-aware tools (not part of the
  /// abstract interface — the engine never uses it).
  Dpu& dpu(std::size_t i) { return *dpus_[i]; }
  const Dpu& dpu(std::size_t i) const { return *dpus_[i]; }

  std::size_t alloc_symmetric(std::size_t bytes) override;
  std::size_t alloc_on(std::size_t dpu_id, std::size_t bytes) override;
  std::size_t mram_used(std::size_t dpu_id) const override;

  double drain_pending_transfer() override;
  /// Rewind every DPU's MRAM allocator and drop its pages (MRAM reads zero
  /// again) so a new index snapshot's static layout can be rebuilt from
  /// offset 0.
  void reset_memory() override {
    for (auto& d : dpus_) d->mram().reset();
  }
  BatchResult run_batch(const std::function<void(std::size_t, DpuContext&)>& kernel,
                        const std::function<void()>& collect = nullptr) override;
  DpuCounters aggregate_counters() const override;
  double dpu_phase_seconds(std::size_t dpu_id, Phase p) const override;

  /// Host memory behind every DPU's simulated MRAM, counting a page that
  /// several DPUs share once (Mram::resident_bytes counts it per DPU).
  std::size_t resident_bytes() const;

 protected:
  PimConfig config_;
  std::vector<std::unique_ptr<Dpu>> dpus_;
  // Exact integer byte tallies; atomic so parallel staging / collection
  // loops can push/pull concurrently. Summation order cannot change the
  // total, so billed seconds stay bit-identical to a serial run.
  std::atomic<std::uint64_t> pending_in_bytes_{0};   // host->DPU since last batch
  std::atomic<std::uint64_t> pending_out_bytes_{0};  // DPU->host inside run_batch
  // True while run_batch runs its kernel bodies and collect: only pulls made
  // then are billed. Written by the launching thread outside the fan-out.
  bool collecting_ = false;
};

/// The functional simulator platform: push/broadcast/pull move real bytes
/// through each DPU's simulated MRAM, so kernels compute bit-exact results.
class SimPimPlatform final : public DpuArrayPlatform {
 public:
  explicit SimPimPlatform(const PimConfig& config) : DpuArrayPlatform(config) {}

  std::string name() const override { return "sim"; }
  bool functional() const override { return true; }

  /// Thread-safe for distinct DPUs (each Mram's page table is its own, a
  /// shared page is copied before the write, and the byte tally is atomic),
  /// so per-DPU staging loops may call it from parallel_for.
  void push(std::size_t dpu_id, std::size_t offset,
            std::span<const std::uint8_t> data) override;
  /// Transmitted once (rank-level broadcast) on the link. In host memory,
  /// each page of the range that every DPU holds as the same shared page,
  /// or that no DPU holds yet, is written once and shared by all DPUs;
  /// other pages get per-DPU copies, fanned out across host threads. Not
  /// thread-safe: call it between batches, never from a kernel body.
  void broadcast(std::size_t offset, std::span<const std::uint8_t> data) override;
  void pull(std::size_t dpu_id, std::size_t offset, std::span<std::uint8_t> out) override;
};

}  // namespace drim
