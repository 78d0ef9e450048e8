#pragma once
// Host resource accounting for the benchmark process: CPU time, page faults
// and peak resident set size from getrusage(RUSAGE_SELF), sampled around the
// set-up and measured phases.

namespace perfbench {

struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;    ///< minor page faults
  double majflt = 0.0;    ///< major page faults
  double max_rss_mb = 0.0;  ///< peak resident set so far (not a difference)

  /// Usage accrued between `since` and this sample; max_rss_mb stays this
  /// sample's peak.
  HostUsage minus(const HostUsage& since) const;
};

HostUsage host_usage_now();

}  // namespace perfbench
