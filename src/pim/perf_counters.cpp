#include "pim/perf_counters.hpp"

namespace drim {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::CL: return "CL";
    case Phase::RC: return "RC";
    case Phase::LC: return "LC";
    case Phase::DC: return "DC";
    case Phase::TS: return "TS";
    case Phase::AUX: return "AUX";
    case Phase::kCount: break;
  }
  return "?";
}

std::uint64_t DpuCounters::total_instr_cycles() const {
  std::uint64_t s = 0;
  for (const auto& p : phases) s += p.instr_cycles;
  return s;
}

double DpuCounters::total_dma_cycles() const {
  double s = 0;
  for (const auto& p : phases) s += p.dma_cycles;
  return s;
}

}  // namespace drim
