#include "pim/analytic_platform.hpp"

#include <stdexcept>

namespace drim {

void AnalyticPimPlatform::push(std::size_t dpu_id, std::size_t offset,
                               std::span<const std::uint8_t> data) {
  if (!dpus_.at(dpu_id)->mram().in_range(offset, data.size())) {
    throw std::runtime_error("analytic push beyond MRAM capacity");
  }
  pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
}

void AnalyticPimPlatform::broadcast(std::size_t offset,
                                    std::span<const std::uint8_t> data) {
  if (!dpus_.front()->mram().in_range(offset, data.size())) {
    throw std::runtime_error("analytic broadcast beyond MRAM capacity");
  }
  // Transmitted once (rank-level broadcast), like the functional platform.
  pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
}

void AnalyticPimPlatform::pull(std::size_t dpu_id, std::size_t offset,
                               std::span<std::uint8_t> out) {
  // Same rejection as the functional platform's read, so a bad pull fails
  // on both platforms rather than only where bytes exist.
  if (!dpus_.at(dpu_id)->mram().in_range(offset, out.size())) {
    throw std::runtime_error("analytic pull beyond MRAM capacity");
  }
  if (collecting_) pending_out_bytes_.fetch_add(out.size(), std::memory_order_relaxed);
}

std::unique_ptr<PimPlatform> make_pim_platform(PimPlatformKind kind,
                                               const PimConfig& config) {
  switch (kind) {
    case PimPlatformKind::kSim:
      return std::make_unique<SimPimPlatform>(config);
    case PimPlatformKind::kAnalytic:
      return std::make_unique<AnalyticPimPlatform>(config);
  }
  throw std::invalid_argument("unknown PimPlatformKind");
}

std::string pim_platform_name(PimPlatformKind kind) {
  return kind == PimPlatformKind::kSim ? "sim" : "analytic";
}

PimPlatformKind parse_pim_platform(const std::string& name) {
  if (name == "sim") return PimPlatformKind::kSim;
  if (name == "analytic") return PimPlatformKind::kAnalytic;
  throw std::invalid_argument("unknown platform '" + name + "' (want sim|analytic)");
}

}  // namespace drim
