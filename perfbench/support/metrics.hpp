#pragma once
// Pure helpers the benchmark computes its reported numbers with. Each rule
// here is a definition the reported metrics depend on, so each has a test in
// tests/test_perfbench.cpp.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Highest percentile of an `n`-sample set that still has at least
/// `min_beyond` samples beyond it: 100 * (n - min_beyond) / n, or 0 when
/// n <= min_beyond (no tail can be stated).
double supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// A latency sample reduced to its median and its tail. The tail is taken at
/// `wanted` percent, lowered to the highest supported percentile when the
/// sample is too small to state `wanted`.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percent = 0.0;  ///< the percentile `tail` was taken at
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values, double wanted = 99.0);

/// Requests that did not count as served: shed at admission plus answers that
/// failed the correctness check, over requests offered. Throws
/// std::invalid_argument when offered is 0 or the counts exceed it.
double failed_fraction(std::size_t offered, std::size_t shed, std::size_t wrong);

/// One rung of a fixed offered-rate ladder.
struct Rung {
  double rate_qps = 0.0;
  /// Share of OFFERED requests served within the SLO; a shed request counts
  /// as a miss, so attainment >= 0.99 is "p99 of offered <= SLO".
  double attainment = 0.0;
  bool backlog_growing = false;
};

/// Highest ladder rate whose p99 meets the SLO without a growing backlog.
/// Rungs must be sorted by ascending rate. The answer is the highest passing
/// rung, moved toward the rung above it by linear interpolation of
/// attainment to `target` when that rung's attainment is below it (a rung
/// that failed on backlog alone leaves the answer at the passing rung). A
/// failing rung below a passing one does not cap the answer: near capacity,
/// bursts make attainment noisy from rung to rung. 0 when no rung passes.
double max_rate_at_slo(const std::vector<Rung>& rungs, double target = 0.99);

/// True when a queue-depth series grows over the run: the least-squares
/// slope of depth over time, times the series' time span, exceeds
/// `threshold` (callers pass one batch's worth of requests). Flat or
/// draining series, and series with fewer than 3 samples, are not growing.
bool backlog_growing(const std::vector<double>& t_s, const std::vector<double>& depth,
                     double threshold);

}  // namespace perfbench
