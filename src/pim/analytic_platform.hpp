#pragma once
// Timing-only PIM platform. Reuses the DpuArrayPlatform chassis (per-DPU
// counters, allocators, byte tallies, barrier batch loop) but never
// materializes MRAM bytes: push/broadcast/pull only range-check and tally
// host-link traffic, and the Mram bump allocators track offsets without a
// single page ever being allocated. Kernel launches are expected to charge
// cycles analytically (drim/kernels.hpp charge_* twins of the functional kernels),
// so a batch on 2530 DPUs costs microseconds of host time instead of a full
// byte-level simulation. Because pull() leaves the destination untouched,
// the engine computes results itself (host-side exact ADC scan) before
// billing the pulls — recall numbers stay real, only the cycle charges are
// schedule-aware estimates. See DESIGN.md "Platform and backend seams".

#include "pim/pim_system.hpp"

namespace drim {

class AnalyticPimPlatform final : public DpuArrayPlatform {
 public:
  explicit AnalyticPimPlatform(const PimConfig& config) : DpuArrayPlatform(config) {}

  std::string name() const override { return "analytic"; }
  bool functional() const override { return false; }

  void push(std::size_t dpu_id, std::size_t offset,
            std::span<const std::uint8_t> data) override;
  void broadcast(std::size_t offset, std::span<const std::uint8_t> data) override;
  /// Billing only: `out` is NOT written (there are no bytes to read back).
  void pull(std::size_t dpu_id, std::size_t offset, std::span<std::uint8_t> out) override;
};

}  // namespace drim
