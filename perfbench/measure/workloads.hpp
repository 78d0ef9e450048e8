#pragma once
// The benchmark's three workloads (named in BENCHMARK.json). Each run of the
// benchmark builds one workload from the seed, then repeats *episodes*: an
// episode sets the system up (index train + add + backend construction,
// timed as set-up) and replays the workload's fixed request streams through
// the program's public layers (timed as the measured phase). Every episode
// of a run sees identical inputs, so its modeled numbers must repeat exactly;
// host numbers are reported as medians over episodes.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "support/host.hpp"
#include "support/spans.hpp"

namespace perfbench {

using Values = std::vector<std::pair<std::string, double>>;

/// What one episode produced.
struct Episode {
  double setup_s = 0.0;    ///< host wall of train + add + backend construction
  double measure_s = 0.0;  ///< host wall of the measured phase
  std::size_t requests = 0;  ///< search requests simulated in the measured phase
  HostUsage setup_usage;     ///< getrusage delta over set-up
  HostUsage measure_usage;   ///< getrusage delta over the measured phase
  double rss_after_setup_mb = 0.0;
  /// Numbers on the modeled clock (or counts): identical in every episode.
  Values modeled;
  /// Host wall-clock numbers measured without spans (medians are reported).
  Values host;
  /// Host wall-clock numbers derived from spans (traced episodes only).
  Values traced;
  /// Checks made during the episode that failed (empty when all held).
  std::vector<std::string> errors;
  /// Human-readable lines about the operating points (printed for one
  /// episode), e.g. each ladder rung's latency and attainment.
  std::vector<std::string> notes;
};

/// Outcome of the correctness replay made after the episodes, untimed.
struct Check {
  std::size_t offered = 0;  ///< requests offered in one episode
  std::size_t shed = 0;     ///< of those, shed at admission
  std::size_t checked = 0;  ///< answers compared against the reference
  std::size_t wrong = 0;    ///< answers that differ from the reference
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up + measured phase. `spans` / `vtrace` are non-null in traced
  /// episodes only.
  virtual Episode run_episode(SpanRecorder* spans, drim::obs::TraceRecorder* vtrace) = 0;
  /// Replay the first episode's answers against an independent reference.
  virtual Check check() = 0;
};

/// Build the named workload's inputs from `seed` (data generation and exact
/// ground truth happen here, outside any timed phase). Throws
/// std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
