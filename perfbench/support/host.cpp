#include "support/host.hpp"

#include <sys/resource.h>

namespace perfbench {

namespace {
double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

HostUsage host_usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.majflt = static_cast<double>(ru.ru_majflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  return u;
}

HostUsage HostUsage::minus(const HostUsage& since) const {
  HostUsage d = *this;
  d.user_s -= since.user_s;
  d.sys_s -= since.sys_s;
  d.minflt -= since.minflt;
  d.majflt -= since.majflt;
  return d;
}

}  // namespace perfbench
