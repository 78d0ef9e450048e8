#pragma once
// Wall-clock timing helpers used by the CPU baseline and the benchmark
// harnesses. Simulated-PIM latencies come from the cycle model in src/pim, not
// from these timers.

#include <chrono>

namespace drim {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace drim
