#include "support/timed_backend.hpp"

namespace perfbench {

namespace {
constexpr const char* kMethodNames[] = {
    "backend.name", "backend.search", "backend.reset_stream", "backend.enqueue",
    "backend.supports_routed_enqueue", "backend.enqueue_routed",
    "backend.locate_cost_seconds", "backend.shard_health", "backend.step",
    "backend.pipeline_depth", "backend.set_step_start", "backend.has_deferred",
    "backend.deferred_count", "backend.set_trace", "backend.finished",
    "backend.take_results", "backend.stream_depth", "backend.estimate_batch_seconds",
    "backend.stats", "backend.supports_updates", "backend.stage_snapshot",
    "backend.stage_relayout", "backend.snapshot_version"};
}  // namespace

TimedBackend::TimedBackend(drim::AnnBackend& inner) : inner_(inner) {}

void TimedBackend::set_spans(SpanRecorder* spans) {
  spans_ = spans;
  if (spans_ == nullptr) return;
  for (std::uint32_t m = 0; m < kNumMethods; ++m) names_[m] = spans_->intern(kMethodNames[m]);
}

std::uint32_t TimedBackend::remember(std::uint32_t handle, std::span<const float> query,
                                     std::size_t k, std::size_t nprobe,
                                     drim::Precision precision) {
  if (capture_) {
    Answer a;
    a.query = query.data();
    a.k = static_cast<std::uint32_t>(k);
    a.nprobe = static_cast<std::uint32_t>(nprobe);
    a.precision = precision;
    pending_[handle] = std::move(a);
  }
  return handle;
}

std::string TimedBackend::name() const {
  auto s = scope(kName);
  return inner_.name();
}

std::vector<std::vector<drim::Neighbor>> TimedBackend::search(
    const drim::FloatMatrix& queries, std::size_t k, std::size_t nprobe) {
  auto s = scope(kSearch);
  return inner_.search(queries, k, nprobe);
}

void TimedBackend::reset_stream() {
  auto s = scope(kReset);
  pending_.clear();
  inner_.reset_stream();
}

std::uint32_t TimedBackend::enqueue(std::span<const float> query, std::size_t k,
                                    std::size_t nprobe) {
  auto s = scope(kEnqueue);
  const std::uint32_t h = inner_.enqueue(query, k, nprobe);
  s.set_id(h);
  return remember(h, query, k, nprobe, drim::Precision::kFull);
}

std::uint32_t TimedBackend::enqueue(std::span<const float> query, std::size_t k,
                                    std::size_t nprobe, drim::Precision precision) {
  auto s = scope(kEnqueue);
  const std::uint32_t h = inner_.enqueue(query, k, nprobe, precision);
  s.set_id(h);
  return remember(h, query, k, nprobe, precision);
}

bool TimedBackend::supports_routed_enqueue() const {
  auto s = scope(kRoutedSupport);
  return inner_.supports_routed_enqueue();
}

std::uint32_t TimedBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                           std::span<const std::uint32_t> probes) {
  auto s = scope(kEnqueueRouted);
  const std::uint32_t h = inner_.enqueue_routed(query, k, probes);
  s.set_id(h);
  return remember(h, query, k, 0, drim::Precision::kFull);
}

std::uint32_t TimedBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                           std::span<const std::uint32_t> probes,
                                           drim::Precision precision) {
  auto s = scope(kEnqueueRouted);
  const std::uint32_t h = inner_.enqueue_routed(query, k, probes, precision);
  s.set_id(h);
  return remember(h, query, k, 0, precision);
}

double TimedBackend::locate_cost_seconds(std::size_t num_queries) const {
  auto s = scope(kLocateCost);
  return inner_.locate_cost_seconds(num_queries);
}

std::vector<drim::ShardHealth> TimedBackend::shard_health() const {
  auto s = scope(kShardHealth);
  return inner_.shard_health();
}

drim::BackendStepStats TimedBackend::step(std::size_t max_queries, bool flush) {
  auto s = scope(kStep, steps_.size());
  steps_.push_back(inner_.step(max_queries, flush));
  return steps_.back();
}

std::size_t TimedBackend::pipeline_depth() const {
  auto s = scope(kDepth);
  return inner_.pipeline_depth();
}

void TimedBackend::set_step_start(double submit_seconds) {
  auto s = scope(kStepStart, steps_.size());
  inner_.set_step_start(submit_seconds);
}

bool TimedBackend::has_deferred() const {
  auto s = scope(kHasDeferred);
  return inner_.has_deferred();
}

std::size_t TimedBackend::deferred_count() const {
  auto s = scope(kDeferredCount);
  return inner_.deferred_count();
}

void TimedBackend::set_trace(drim::obs::TraceRecorder* trace) {
  auto s = scope(kSetTrace);
  inner_.set_trace(trace);
}

bool TimedBackend::finished(std::uint32_t handle) const {
  auto s = scope(kFinished, handle);
  return inner_.finished(handle);
}

std::vector<drim::Neighbor> TimedBackend::take_results(std::uint32_t handle) {
  auto s = scope(kTake, handle);
  std::vector<drim::Neighbor> out = inner_.take_results(handle);
  if (capture_) {
    auto it = pending_.find(handle);
    if (it != pending_.end()) {
      it->second.results = out;
      answers_.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  return out;
}

std::size_t TimedBackend::stream_depth() const {
  auto s = scope(kStreamDepth);
  return inner_.stream_depth();
}

double TimedBackend::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                            std::size_t k) const {
  auto s = scope(kEstimate);
  return inner_.estimate_batch_seconds(num_queries, nprobe, k);
}

drim::BackendStats TimedBackend::stats() const {
  auto s = scope(kStats);
  return inner_.stats();
}

bool TimedBackend::supports_updates() const {
  auto s = scope(kSupportsUpdates);
  return inner_.supports_updates();
}

double TimedBackend::stage_snapshot(const drim::IndexSnapshot& snapshot,
                                    const drim::PublishDelta& delta) {
  auto s = scope(kSnapshot, snapshot_costs_.size());
  snapshot_costs_.push_back(inner_.stage_snapshot(snapshot, delta));
  return snapshot_costs_.back();
}

double TimedBackend::stage_relayout() {
  auto s = scope(kRelayout, relayout_costs_.size());
  relayout_costs_.push_back(inner_.stage_relayout());
  return relayout_costs_.back();
}

std::uint64_t TimedBackend::snapshot_version() const {
  auto s = scope(kVersion);
  return inner_.snapshot_version();
}

}  // namespace perfbench
