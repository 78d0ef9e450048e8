#include "support/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"

namespace perfbench {

double supported_percentile(std::size_t n, std::size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  return 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
}

Tail tail_of(const std::vector<double>& values, double wanted) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  t.tail_percent = std::min(wanted, supported_percentile(values.size()));
  t.p50 = drim::percentile(values, 50.0);
  t.tail = drim::percentile(values, t.tail_percent);
  return t;
}

double failed_fraction(std::size_t offered, std::size_t shed, std::size_t wrong) {
  if (offered == 0) throw std::invalid_argument("failed_fraction: nothing offered");
  if (shed + wrong > offered) {
    throw std::invalid_argument("failed_fraction: shed + wrong exceeds offered");
  }
  return static_cast<double>(shed + wrong) / static_cast<double>(offered);
}

double max_rate_at_slo(const std::vector<Rung>& rungs, double target) {
  std::size_t best = rungs.size();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].backlog_growing && rungs[i].attainment >= target) best = i;
  }
  if (best == rungs.size()) return 0.0;
  const Rung& ok = rungs[best];
  if (best + 1 == rungs.size()) return ok.rate_qps;
  const Rung& bad = rungs[best + 1];
  if (bad.attainment >= target || ok.attainment <= bad.attainment) return ok.rate_qps;
  const double frac = (ok.attainment - target) / (ok.attainment - bad.attainment);
  return ok.rate_qps + frac * (bad.rate_qps - ok.rate_qps);
}

bool backlog_growing(const std::vector<double>& t_s, const std::vector<double>& depth,
                     double threshold) {
  const std::size_t n = std::min(t_s.size(), depth.size());
  if (n < 3) return false;
  double mt = 0.0, md = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mt += t_s[i];
    md += depth[i];
  }
  mt /= static_cast<double>(n);
  md /= static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (t_s[i] - mt) * (depth[i] - md);
    var += (t_s[i] - mt) * (t_s[i] - mt);
  }
  if (var <= 0.0) return false;
  return cov / var * (t_s[n - 1] - t_s[0]) > threshold;
}

}  // namespace perfbench
