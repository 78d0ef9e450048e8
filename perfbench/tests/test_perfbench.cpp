// Tests of the benchmark's own helpers (percentile rule, failure accounting,
// max rate at SLO, backlog rule, span self time) and of the forwarding
// decorator: results and every modeled stat through TimedBackend must be
// bit-identical to the bare backend.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "backend/drim_backend.hpp"
#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "support/metrics.hpp"
#include "support/spans.hpp"
#include "support/timed_backend.hpp"

namespace perfbench {
namespace {

TEST(SupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(supported_percentile(2000), 99.5);
  EXPECT_DOUBLE_EQ(supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(supported_percentile(10), 0.0);
  EXPECT_DOUBLE_EQ(supported_percentile(0), 0.0);
}

TEST(TailOf, LowersTheTailToWhatTheSampleSupports) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail t = tail_of(v, 99.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.tail_percent, 90.0);
  EXPECT_DOUBLE_EQ(t.p50, 50.5);
  EXPECT_NEAR(t.tail, 90.1, 1e-9);
  for (int i = 101; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_of(v, 99.0).tail_percent, 99.0);
  EXPECT_EQ(tail_of({}, 99.0).samples, 0u);
}

TEST(FailedFraction, CountsShedAndWrongOverOffered) {
  EXPECT_DOUBLE_EQ(failed_fraction(100, 3, 2), 0.05);
  EXPECT_DOUBLE_EQ(failed_fraction(100, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_fraction(4, 4, 0), 1.0);
  EXPECT_THROW(failed_fraction(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(failed_fraction(10, 6, 5), std::invalid_argument);
}

TEST(MaxRateAtSlo, TopRungWhenEveryRungPasses) {
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, false}, {200, 0.995, false}}), 200.0);
}

TEST(MaxRateAtSlo, ZeroWhenNoRungPasses) {
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 0.5, false}, {200, 0.9, false}}), 0.0);
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, true}}), 0.0);
  EXPECT_DOUBLE_EQ(max_rate_at_slo({}), 0.0);
}

TEST(MaxRateAtSlo, InterpolatesAttainmentTowardTheFirstFailingRung) {
  // 1.0 at 100 qps, 0.98 at 200 qps: 0.99 is crossed half way.
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, false}, {200, 0.98, false}}), 150.0);
  // The highest passing rung counts, even above a failing one.
  EXPECT_DOUBLE_EQ(
      max_rate_at_slo({{100, 1.0, false}, {200, 0.98, false}, {300, 1.0, false}}), 300.0);
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 0.5, false}, {200, 1.0, false}}), 200.0);
}

TEST(MaxRateAtSlo, GrowingBacklogFailsARung) {
  // Meeting the SLO with a growing backlog is not sustainable: the rung
  // fails, and with attainment at target there is nothing to interpolate.
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, false}, {200, 1.0, true}}), 100.0);
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, true}, {200, 1.0, true}}), 0.0);
  // Below target as well: the attainment crossing still locates the answer.
  EXPECT_DOUBLE_EQ(max_rate_at_slo({{100, 1.0, false}, {200, 0.98, true}}), 150.0);
}

TEST(BacklogGrowing, SlopeOverTheRunAgainstOneBatch) {
  const std::vector<double> t{0, 1, 2, 3, 4};
  EXPECT_FALSE(backlog_growing(t, {5, 5, 5, 5, 5}, 32));
  EXPECT_FALSE(backlog_growing(t, {40, 30, 20, 10, 0}, 32));
  EXPECT_FALSE(backlog_growing(t, {0, 5, 10, 15, 20}, 32));  // grows 20 < 32
  EXPECT_TRUE(backlog_growing(t, {0, 10, 20, 30, 40}, 32));  // grows 40 > 32
  EXPECT_FALSE(backlog_growing({0, 1}, {0, 100}, 32));       // too few samples
}

Span span(std::int32_t parent, double start, double end) {
  Span s;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      span(-1, 0, 10),  // root
      span(0, 1, 3),    // children overlap: [1,5] covered once
      span(0, 2, 5),
      span(0, 8, 12),   // clipped to the parent's end: [8,10]
      span(1, 1.5, 2),  // grandchild: not subtracted from the root
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(SpanRecorder, NestsAndRejectsOutOfOrderClose) {
  SpanRecorder rec;
  const std::uint32_t a = rec.intern("a");
  const std::uint32_t b = rec.intern("b");
  EXPECT_EQ(rec.intern("a"), a);
  {
    SpanRecorder::Scope outer(&rec, a, 7);
    SpanRecorder::Scope inner(&rec, b);
    inner.set_id(9);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[0].id, 7u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].id, 9u);
  EXPECT_LE(rec.spans()[1].end_s, rec.spans()[0].end_s);
  EXPECT_GT(child_coverage(rec, "a"), 0.0);
  EXPECT_LE(child_coverage(rec, "a"), 1.0);
  EXPECT_EQ(child_coverage(rec, "missing"), 0.0);
  const std::size_t x = rec.open(a);
  rec.open(b);
  EXPECT_THROW(rec.close(x), std::logic_error);
}

// ---- the decorator ----

struct Fixture {
  drim::SyntheticData data;
  drim::IvfPqIndex index;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    drim::SyntheticSpec spec;
    spec.num_base = 4000;
    spec.num_queries = 64;
    spec.num_learn = 1500;
    spec.num_components = 16;
    Fixture out;
    out.data = drim::make_sift_like(spec);
    drim::IvfPqParams p;
    p.nlist = 16;
    p.pq.m = 16;
    p.pq.cb_entries = 64;
    p.pq.train_iters = 4;
    p.coarse_iters = 4;
    out.index.train(out.data.learn, p);
    out.index.add(out.data.base);
    return out;
  }();
  return f;
}

drim::DrimEngineOptions options(drim::PimPlatformKind platform, std::size_t depth) {
  drim::DrimEngineOptions o;
  o.pim.num_dpus = 4;
  o.layout.split_threshold = 256;
  o.heat_nprobe = 8;
  o.batch_size = 16;
  o.pipeline_depth = depth;
  o.enable_q4 = true;
  o.platform = platform;
  return o;
}

void expect_same_engine_stats(const drim::DrimSearchStats& a, const drim::DrimSearchStats& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.host_cl_seconds, b.host_cl_seconds);
  EXPECT_EQ(a.host_rerank_seconds, b.host_rerank_seconds);
  EXPECT_EQ(a.transfer_in_seconds, b.transfer_in_seconds);
  EXPECT_EQ(a.transfer_out_seconds, b.transfer_out_seconds);
  EXPECT_EQ(a.dpu_busy_seconds, b.dpu_busy_seconds);
  EXPECT_EQ(a.phase_dpu_seconds, b.phase_dpu_seconds);
  EXPECT_EQ(a.per_dpu_seconds, b.per_dpu_seconds);
  EXPECT_EQ(a.batch_seconds, b.batch_seconds);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.dc_bytes_saved, b.dc_bytes_saved);
  for (std::size_t p = 0; p < drim::kNumPhases; ++p) {
    const drim::PhaseCounters& x = a.counters.phases[p];
    const drim::PhaseCounters& y = b.counters.phases[p];
    EXPECT_EQ(x.instr_cycles, y.instr_cycles);
    EXPECT_EQ(x.dma_cycles, y.dma_cycles);
    EXPECT_EQ(x.mram_bytes_read, y.mram_bytes_read);
    EXPECT_EQ(x.mram_bytes_written, y.mram_bytes_written);
  }
}

/// Serve a bursty trace with updates and degrade-before-shed admission on a
/// bare backend and on the same backend behind the decorator.
void check_serving_identity(drim::PimPlatformKind platform, std::size_t depth) {
  const Fixture& f = fixture();
  drim::DrimBackend bare(f.index, f.data.learn, options(platform, depth));
  drim::DrimBackend inner(f.index, f.data.learn, options(platform, depth));
  TimedBackend timed(inner);
  SpanRecorder spans;
  timed.set_spans(&spans);
  timed.set_capture(true);

  drim::serve::WorkloadParams wp;
  wp.offered_qps = 3.0 * 16 / bare.estimate_batch_seconds(16, 8, 10);
  wp.num_requests = 300;
  wp.arrivals = drim::serve::ArrivalProcess::kOnOff;
  wp.query_skew = 1.0;
  wp.nprobe_choices = {4, 8};
  const auto trace = drim::serve::generate_workload(f.data.queries.count(), wp);
  drim::serve::UpdateWorkloadParams up;
  up.update_rate = 0.05;
  const auto updates =
      drim::serve::generate_update_trace(trace, f.data.learn, f.index.ntotal(), up);

  drim::serve::ServeParams sp;
  sp.batcher.max_batch = 16;
  sp.admission.slo_s = 4.0 * bare.estimate_batch_seconds(16, 8, 10);
  sp.admission.degrade_to_q4 = true;
  sp.snapshot_period_s = sp.admission.slo_s;
  auto serve = [&](drim::AnnBackend& b, drim::obs::TraceRecorder& vtrace) {
    drim::IndexWriter writer(f.index);
    drim::serve::UpdateStream us;
    us.trace = &updates;
    us.writer = &writer;
    us.publish_every_batches = 3;
    us.relayout_every_batches = 5;
    drim::serve::ServingRuntime rt(b, f.data.queries, sp);
    rt.set_update_stream(&us);
    rt.set_trace(&vtrace);
    auto res = rt.run(trace);
    EXPECT_GT(us.publishes, 0u);
    return std::make_pair(std::move(res), us.publish_seconds + us.relayout_seconds);
  };
  drim::obs::TraceRecorder va, vb;
  const auto [a, a_install] = serve(bare, va);
  const auto [b, b_install] = serve(timed, vb);

  ASSERT_EQ(a.records.size(), b.records.size());
  std::size_t served = 0;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.degraded, y.degraded);
    EXPECT_EQ(x.results, y.results);
    EXPECT_EQ(x.done_s, y.done_s);
    EXPECT_EQ(x.latency_s, y.latency_s);
    EXPECT_EQ(x.queue_wait_s, y.queue_wait_s);
    EXPECT_EQ(x.pim_s, y.pim_s);
    EXPECT_EQ(x.merge_s, y.merge_s);
    served += !x.shed;
  }
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.ewma_batch_s, b.ewma_batch_s);
  EXPECT_EQ(a.engine_stats.total_seconds, b.engine_stats.total_seconds);
  EXPECT_EQ(a.engine_stats.batch_seconds, b.engine_stats.batch_seconds);
  EXPECT_EQ(a.report.p99_ms, b.report.p99_ms);
  EXPECT_EQ(a.report.goodput_qps, b.report.goodput_qps);
  EXPECT_EQ(a_install, b_install);
  EXPECT_EQ(va.num_events(), vb.num_events());
  expect_same_engine_stats(bare.engine_stats(), inner.engine_stats());
  EXPECT_EQ(bare.snapshot_version(), timed.snapshot_version());

  // The decorator saw every served answer and every step, and spanned them.
  EXPECT_EQ(timed.answers().size(), served);
  EXPECT_EQ(timed.steps().size(), b.batches);
  EXPECT_FALSE(timed.snapshot_costs().empty());
  EXPECT_EQ(spans.durations(spans.intern("backend.step")).size(), b.batches);
  EXPECT_EQ(spans.durations(spans.intern("backend.take_results")).size(), served);

  // Closed loop with answers compared directly, at both rungs.
  for (const drim::Precision precision : {drim::Precision::kFull, drim::Precision::kQ4}) {
    bare.reset_stream();
    timed.reset_stream();
    std::vector<std::uint32_t> ha, hb;
    for (std::size_t q = 0; q < f.data.queries.count(); ++q) {
      ha.push_back(bare.enqueue(f.data.queries.row(q), 10, 8, precision));
      hb.push_back(timed.enqueue(f.data.queries.row(q), 10, 8, precision));
    }
    // Flush every 4th step, as the serving runtime does, so the inter-batch
    // filter cannot re-defer a hot cluster's tasks forever.
    for (std::size_t s = 0; bare.has_deferred() || !bare.finished(ha.back()); ++s) {
      const auto sa = bare.step(16, s % 4 == 3);
      const auto sb = timed.step(16, s % 4 == 3);
      EXPECT_EQ(sa.step_seconds, sb.step_seconds);
      EXPECT_EQ(sa.complete_seconds, sb.complete_seconds);
      EXPECT_EQ(sa.tasks, sb.tasks);
    }
    EXPECT_EQ(bare.has_deferred(), timed.has_deferred());
    for (std::size_t q = 0; q < ha.size(); ++q) {
      ASSERT_TRUE(timed.finished(hb[q]));
      const auto x = bare.take_results(ha[q]);
      const auto y = timed.take_results(hb[q]);
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].id, y[i].id);
        EXPECT_EQ(x[i].dist, y[i].dist);
      }
    }
    EXPECT_EQ(bare.stats().total_seconds, timed.stats().total_seconds);
  }
}

TEST(TimedBackend, ServingIsBitIdenticalOnTheAnalyticPlatform) {
  check_serving_identity(drim::PimPlatformKind::kAnalytic, 2);
}

TEST(TimedBackend, ServingIsBitIdenticalOnTheSimPlatformAtDepthOne) {
  check_serving_identity(drim::PimPlatformKind::kSim, 1);
}

TEST(TimedBackend, ForwardsRoutedEnqueueAndQueries) {
  const Fixture& f = fixture();
  const auto opts = options(drim::PimPlatformKind::kAnalytic, 2);
  drim::DrimBackend bare(f.index, f.data.learn, opts);
  drim::DrimBackend inner(f.index, f.data.learn, opts);
  TimedBackend timed(inner);
  EXPECT_EQ(bare.name(), timed.name());
  EXPECT_EQ(bare.supports_routed_enqueue(), timed.supports_routed_enqueue());
  EXPECT_EQ(bare.supports_updates(), timed.supports_updates());
  EXPECT_EQ(bare.pipeline_depth(), timed.pipeline_depth());
  EXPECT_EQ(bare.locate_cost_seconds(7), timed.locate_cost_seconds(7));
  EXPECT_EQ(bare.estimate_batch_seconds(16, 8, 10), timed.estimate_batch_seconds(16, 8, 10));
  EXPECT_EQ(bare.shard_health().size(), timed.shard_health().size());
  const std::vector<std::uint32_t> probes = {0, 3, 5};
  for (const drim::Precision precision : {drim::Precision::kFull, drim::Precision::kQ4}) {
    bare.set_step_start(0.5);
    timed.set_step_start(0.5);
    const auto ha = bare.enqueue_routed(f.data.queries.row(1), 10, probes, precision);
    const auto hb = timed.enqueue_routed(f.data.queries.row(1), 10, probes, precision);
    EXPECT_EQ(bare.stream_depth(), timed.stream_depth());
    EXPECT_EQ(bare.deferred_count(), timed.deferred_count());
    const auto sa = bare.step(0, true);
    const auto sb = timed.step(0, true);
    EXPECT_EQ(sa.complete_seconds, sb.complete_seconds);
    const auto x = bare.take_results(ha);
    const auto y = timed.take_results(hb);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].id, y[i].id);
  }
  const auto a = bare.search(f.data.queries, 10, 4);
  const auto b = timed.search(f.data.queries, 10, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size());
    for (std::size_t i = 0; i < a[q].size(); ++i) EXPECT_EQ(a[q][i].dist, b[q][i].dist);
  }
  EXPECT_EQ(bare.stage_relayout(), timed.stage_relayout());
}

}  // namespace
}  // namespace perfbench
