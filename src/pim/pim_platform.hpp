#pragma once
// The backend seam of the engine: an abstract PIM platform the DRIM-ANN
// engine drives through push/pull/broadcast, a symmetric-heap allocator, and
// barrier-synchronized batch launches. Two implementations ship in-tree:
//   - SimPimPlatform (pim/pim_system.hpp): the functional + cost-model
//     simulator. Kernels are real C++ reading simulated MRAM; results are
//     bit-exact and every cycle/DMA charge is data-derived.
//   - AnalyticPimPlatform (pim/analytic_platform.hpp): timing-only. No MRAM
//     bytes move; kernels charge the same cost tables analytically and the
//     engine computes results with a host-side exact ADC scan. Orders of
//     magnitude faster, so paper-scale (2530-DPU) sweeps are feasible.
// A real UPMEM SDK backend would be a third implementation of this interface;
// DESIGN.md "Platform and backend seams" specifies what it must provide.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pim/perf_counters.hpp"
#include "pim/pim_config.hpp"

namespace drim {

class DpuContext;

/// Timing of one barrier-synchronized batch launch.
struct BatchResult {
  std::vector<double> per_dpu_seconds;  ///< modeled execution time per DPU
  double dpu_seconds = 0.0;          ///< max over DPUs (the barrier)
  double transfer_in_seconds = 0.0;  ///< host -> DPUs before launch
  double transfer_out_seconds = 0.0; ///< DPUs -> host after completion
  double launch_overhead_seconds = 0.0;

  double total_seconds() const {
    return transfer_in_seconds + dpu_seconds + transfer_out_seconds +
           launch_overhead_seconds;
  }
};

/// Which PimPlatform implementation an engine should instantiate.
enum class PimPlatformKind : std::uint8_t { kSim, kAnalytic };

/// Abstract PIM platform. The contract mirrors the UPMEM host API shape:
/// data moves only through push/broadcast/pull over a shared host link whose
/// bytes are tallied and billed per batch, MRAM is managed by bump
/// allocators (symmetric for broadcast regions, per-DPU for shard data), and
/// run_batch launches a kernel on every DPU behind one barrier.
class PimPlatform {
 public:
  virtual ~PimPlatform() = default;

  virtual const PimConfig& config() const = 0;
  virtual std::size_t num_dpus() const = 0;
  /// Stable identifier ("sim", "analytic") for logs and bench reports.
  virtual std::string name() const = 0;
  /// True when pushed bytes are materialized and kernels compute real
  /// results the host can pull back. Analytic platforms return false: the
  /// engine must then produce results itself (host-side exact scan) and use
  /// push/pull for transfer billing only.
  virtual bool functional() const = 0;

  // ---- host -> DPU data movement (accumulates into the next batch's
  //      transfer_in time, or the current one's inside its kernel body) ----
  /// Copy (or, analytically, bill) bytes into one DPU's MRAM at `offset`.
  /// Thread-safe for distinct DPUs, so staging may run in parallel_for or
  /// inside run_batch's kernel body for that DPU.
  virtual void push(std::size_t dpu_id, std::size_t offset,
                    std::span<const std::uint8_t> data) = 0;
  /// Same bytes to every DPU at one offset; transmitted once over the link.
  virtual void broadcast(std::size_t offset, std::span<const std::uint8_t> data) = 0;
  /// Allocate `bytes` at the same offset on every DPU; returns the offset.
  virtual std::size_t alloc_symmetric(std::size_t bytes) = 0;
  /// Allocate `bytes` on one DPU (per-DPU shard data); returns the offset.
  virtual std::size_t alloc_on(std::size_t dpu_id, std::size_t bytes) = 0;
  /// High-water mark of one DPU's MRAM allocator.
  virtual std::size_t mram_used(std::size_t dpu_id) const = 0;

  // ---- DPU -> host ----
  /// Copy bytes back from one DPU's MRAM. On a non-functional platform the
  /// destination buffer is left untouched (billing only) — callers must fill
  /// it themselves before relying on its contents. Thread-safe like push().
  /// Billed as transfer_out only inside run_batch (kernel body or collect).
  virtual void pull(std::size_t dpu_id, std::size_t offset,
                    std::span<std::uint8_t> out) = 0;

  /// Bill all bytes pushed/broadcast since the last batch (or drain) NOW,
  /// outside any batch: returns the seconds they take on the host link and
  /// clears the pending tally (one-time index loading).
  virtual double drain_pending_transfer() = 0;

  /// Release every MRAM allocation on every DPU (allocator rewound, every
  /// byte reads zero again) so the engine can rebuild the static layout for
  /// a new index snapshot. The physical reload this enables is a simulation-fidelity
  /// device; callers bill the *modeled* publish delta and discard the
  /// reload's drain_pending_transfer() figure (see DESIGN.md §14).
  virtual void reset_memory() = 0;

  /// Run `kernel(dpu_id, ctx)` on every DPU behind one barrier, then
  /// `collect` on the calling thread. Each DPU's counters are reset before
  /// its kernel. Bytes pushed before the launch or inside a kernel body are
  /// billed as this batch's transfer_in; bytes pulled inside a kernel body
  /// or during `collect` as its transfer_out. A kernel body may push to and
  /// pull from its own DPU, so one fan-out can stage, run and collect a DPU.
  /// If a kernel or `collect` throws, nothing stays pending for the next
  /// batch. Kernels execute concurrently across host threads and must not
  /// share mutable state between DPUs.
  virtual BatchResult run_batch(
      const std::function<void(std::size_t, DpuContext&)>& kernel,
      const std::function<void()>& collect = nullptr) = 0;

  /// Aggregate counters over all DPUs (energy / bandwidth reports).
  virtual DpuCounters aggregate_counters() const = 0;
  /// Seconds of one DPU's last batch attributable to one phase.
  virtual double dpu_phase_seconds(std::size_t dpu_id, Phase p) const = 0;
};

/// Instantiate the platform implementation for `kind`.
std::unique_ptr<PimPlatform> make_pim_platform(PimPlatformKind kind,
                                               const PimConfig& config);

/// "sim" / "analytic" (matches the CLI/bench --platform values).
std::string pim_platform_name(PimPlatformKind kind);

/// Parse a --platform value; throws std::invalid_argument on anything else.
PimPlatformKind parse_pim_platform(const std::string& name);

}  // namespace drim
