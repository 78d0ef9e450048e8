#pragma once
// Per-DPU performance counters mirroring the UPMEM SDK's hardware counters
// the paper uses ("the cycle-accurate executing time and memory transfers
// are measured with the hardware performance counter within UPMEM SDK").
// Counters are kept per ANNS phase so Fig. 8's kernel-latency breakdown can
// be regenerated exactly.

#include <array>
#include <cstdint>
#include <string_view>

namespace drim {

/// The five cluster-based ANNS phases plus the auxiliary bucket the paper
/// calls out (address calculation / masking for MRAM).
enum class Phase : std::uint8_t { CL = 0, RC, LC, DC, TS, AUX, kCount };

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Printable phase name.
std::string_view phase_name(Phase p);

/// Counters for one phase on one DPU.
struct PhaseCounters {
  std::uint64_t instr_cycles = 0;  ///< compute cycles (pre IPC scaling)
  double dma_cycles = 0;           ///< MRAM DMA engine cycles
  std::uint64_t mram_bytes_read = 0;
  std::uint64_t mram_bytes_written = 0;
  std::uint64_t mul_count = 0;     ///< multiplies issued (0 after LUT conversion)

  void add(const PhaseCounters& o) {
    instr_cycles += o.instr_cycles;
    dma_cycles += o.dma_cycles;
    mram_bytes_read += o.mram_bytes_read;
    mram_bytes_written += o.mram_bytes_written;
    mul_count += o.mul_count;
  }
};

/// All phases for one DPU.
struct DpuCounters {
  std::array<PhaseCounters, kNumPhases> phases{};

  PhaseCounters& at(Phase p) { return phases[static_cast<std::size_t>(p)]; }
  const PhaseCounters& at(Phase p) const { return phases[static_cast<std::size_t>(p)]; }

  std::uint64_t total_instr_cycles() const;
  double total_dma_cycles() const;

  void add(const DpuCounters& o) {
    for (std::size_t i = 0; i < kNumPhases; ++i) phases[i].add(o.phases[i]);
  }
  void reset() { phases.fill({}); }
};

}  // namespace drim
