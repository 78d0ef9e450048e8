#pragma once
// Faiss-CPU-style baseline: multithreaded IVF-PQ ADC search over the host's
// cores. This is the comparator the paper measures DRIM-ANN against (32-thread
// Faiss-CPU with AVX2; here the SIMD kernel seam vectorizes the scans and
// the host executor provides the threading). Per-phase wall-clock accounting feeds the
// Fig. 2 roofline and the speedup comparisons.

#include <cstdint>
#include <vector>

#include "core/ivf.hpp"
#include "data/dataset.hpp"

namespace drim {

/// Aggregate timing/volume statistics for one batch search. DC and TS are
/// interleaved per code on the CPU (push directly follows the ADC sum), so
/// they are measured together as `scan_seconds`; the DPU-side breakdown in
/// Fig. 8 comes from the simulator's exact cycle counters instead.
struct CpuSearchStats {
  double cl_seconds = 0.0;   ///< cluster locating
  double rc_seconds = 0.0;   ///< residual calculation
  double lc_seconds = 0.0;   ///< LUT construction
  double scan_seconds = 0.0; ///< distance calculation + top-k (DC + TS)
  double wall_seconds = 0.0; ///< end-to-end batch wall time
  std::size_t codes_scanned = 0;  ///< total (query, point) ADC evaluations
  std::size_t queries = 0;

  double qps() const { return wall_seconds > 0 ? queries / wall_seconds : 0.0; }
  /// Sum of per-phase thread-time (>= wall when multithreaded).
  double phase_total() const {
    return cl_seconds + rc_seconds + lc_seconds + scan_seconds;
  }
};

/// Batch searcher over a trained index.
class CpuIvfPq {
 public:
  explicit CpuIvfPq(const IvfPqIndex& index) : index_(index) {}

  /// Search all queries in parallel over queries (Faiss's batch
  /// strategy). When `collect_phases` is set, per-phase times are accumulated
  /// (adds timer overhead, so benchmarks measuring pure throughput leave it
  /// off).
  std::vector<std::vector<Neighbor>> search_batch(const FloatMatrix& queries,
                                                  std::size_t k, std::size_t nprobe,
                                                  CpuSearchStats* stats = nullptr,
                                                  bool collect_phases = false) const;

 private:
  const IvfPqIndex& index_;
};

}  // namespace drim
