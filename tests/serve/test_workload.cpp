// Workload generator tests: arrival-process statistics, determinism, and
// per-request parameter draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "serve/workload.hpp"

namespace drim::serve {
namespace {

WorkloadParams base_params() {
  WorkloadParams p;
  p.offered_qps = 1000.0;
  p.num_requests = 4096;
  return p;
}

TEST(Workload, PoissonMeanRateMatchesOffered) {
  const auto trace = generate_workload(64, base_params());
  ASSERT_EQ(trace.size(), 4096u);
  const double span = trace.back().arrival_s - trace.front().arrival_s;
  const double rate = static_cast<double>(trace.size() - 1) / span;
  // 4096 exponential gaps: the empirical rate is within a few percent w.h.p.
  EXPECT_NEAR(rate, 1000.0, 100.0);
}

TEST(Workload, ArrivalsSortedAndIdsDense) {
  const auto trace = generate_workload(64, base_params());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i);
    if (i > 0) {
      EXPECT_GE(trace[i].arrival_s, trace[i - 1].arrival_s);
    }
    EXPECT_LT(trace[i].query, 64u);
  }
}

TEST(Workload, DeterministicPerSeed) {
  const auto a = generate_workload(64, base_params());
  const auto b = generate_workload(64, base_params());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].query, b[i].query);
  }
  WorkloadParams other = base_params();
  other.seed = 7;
  const auto c = generate_workload(64, other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].arrival_s != c[i].arrival_s;
  }
  EXPECT_TRUE(any_diff) << "different seeds must give different traces";
}

TEST(Workload, OnOffIsBurstierThanPoisson) {
  WorkloadParams p = base_params();
  const auto poisson = generate_workload(64, p);
  p.arrivals = ArrivalProcess::kOnOff;
  p.burst_period_s = 0.05;
  p.burst_on_fraction = 0.2;
  const auto onoff = generate_workload(64, p);

  // Burstiness metric: fraction of inter-arrival gaps under half the mean
  // gap. The ON-OFF process packs arrivals into ON windows, so far more of
  // its gaps are short.
  auto short_gap_fraction = [](const std::vector<Request>& t) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.size(); ++i) {
      gaps.push_back(t[i].arrival_s - t[i - 1].arrival_s);
    }
    double mean_gap = 0.0;
    for (double g : gaps) mean_gap += g;
    mean_gap /= static_cast<double>(gaps.size());
    std::size_t short_gaps = 0;
    for (double g : gaps) {
      if (g < 0.5 * mean_gap) ++short_gaps;
    }
    return static_cast<double>(short_gaps) / static_cast<double>(gaps.size());
  };
  EXPECT_GT(short_gap_fraction(onoff), short_gap_fraction(poisson) + 0.1);

  // Both processes still offer the same long-run rate.
  const double span = onoff.back().arrival_s - onoff.front().arrival_s;
  EXPECT_NEAR(static_cast<double>(onoff.size() - 1) / span, 1000.0, 150.0);
}

TEST(Workload, ZipfSkewConcentratesQueryDraws) {
  WorkloadParams p = base_params();
  const auto uniform = generate_workload(64, p);
  p.query_skew = 1.2;
  const auto skewed = generate_workload(64, p);

  auto top_share = [](const std::vector<Request>& t) {
    std::vector<std::size_t> counts(64, 0);
    for (const Request& r : t) ++counts[r.query];
    std::sort(counts.rbegin(), counts.rend());
    std::size_t top = 0;
    for (std::size_t i = 0; i < 4; ++i) top += counts[i];
    return static_cast<double>(top) / static_cast<double>(t.size());
  };
  EXPECT_GT(top_share(skewed), top_share(uniform) + 0.15);
}

TEST(Workload, PerRequestParameterChoices) {
  WorkloadParams p = base_params();
  p.num_requests = 512;
  p.k_choices = {5, 20};
  p.nprobe_choices = {4, 8, 16};
  const auto trace = generate_workload(64, p);
  std::set<std::uint32_t> ks, nprobes;
  for (const Request& r : trace) {
    ks.insert(r.k);
    nprobes.insert(r.nprobe);
  }
  EXPECT_EQ(ks, (std::set<std::uint32_t>{5, 20}));
  EXPECT_EQ(nprobes, (std::set<std::uint32_t>{4, 8, 16}));
}

TEST(Workload, RejectsInvalidParams) {
  WorkloadParams p = base_params();
  p.offered_qps = 0.0;
  EXPECT_THROW(generate_workload(64, p), std::invalid_argument);
  p = base_params();
  p.k_choices.clear();
  EXPECT_THROW(generate_workload(64, p), std::invalid_argument);
  p = base_params();
  EXPECT_THROW(generate_workload(0, p), std::invalid_argument);
}

}  // namespace
}  // namespace drim::serve
