#include "backend/cpu_backend.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

namespace drim {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CpuBackend::CpuBackend(const IvfPqIndex& index, const CpuBackendOptions& options)
    : CpuBackend(make_root_snapshot(index), options) {}

CpuBackend::CpuBackend(IndexSnapshot snapshot, const CpuBackendOptions& options)
    : snapshot_(std::move(snapshot)), opts_(options) {
  adopt_snapshot();
}

void CpuBackend::adopt_snapshot() {
  if (snapshot_.tombstones && snapshot_.tombstones->any()) {
    live_ = std::make_shared<IvfPqIndex>(compact_snapshot(snapshot_));
  } else {
    live_ = snapshot_.index;
  }
}

double CpuBackend::stage_snapshot(const IndexSnapshot& snapshot,
                                  const PublishDelta& delta) {
  // Queries admitted before the publish point are answered by the old
  // version (bit-identity with a cold rebuild requires it).
  while (next_query_ < pending_.size()) step(0, true);
  snapshot_ = snapshot;
  adopt_snapshot();
  return static_cast<double>(delta.total_bytes()) / opts_.platform.bandwidth_Bps;
}

double CpuBackend::model_group_seconds(std::size_t num_queries, std::size_t nprobe,
                                       std::size_t k) const {
  AnnWorkload w;
  w.N = static_cast<double>(index().ntotal());
  w.Q = static_cast<double>(num_queries);
  w.D = static_cast<double>(index().dim());
  w.K = static_cast<double>(k);
  w.P = static_cast<double>(std::min(nprobe, index().nlist()));
  w.C = static_cast<double>(index().ntotal()) / static_cast<double>(index().nlist());
  w.M = static_cast<double>(index().pq().m());
  w.CB = static_cast<double>(index().pq().cb_entries());
  return estimate_single(w, opts_.platform, opts_.multiplier_less);
}

double CpuBackend::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                          std::size_t k) const {
  if (num_queries == 0) return 0.0;
  return model_group_seconds(num_queries, nprobe, k);
}

std::vector<std::vector<Neighbor>> CpuBackend::search(const FloatMatrix& queries,
                                                      std::size_t k,
                                                      std::size_t nprobe) {
  const double t0 = now_seconds();
  auto results = CpuIvfPq(index()).search_batch(queries, k, nprobe);
  stats_ = BackendStats{};
  stats_.host_wall_seconds = now_seconds() - t0;
  stats_.queries = queries.count();
  stats_.batches = 1;
  stats_.tasks = queries.count() * std::min(nprobe, index().nlist());
  stats_.total_seconds = model_group_seconds(queries.count(), nprobe, k);
  stats_.batch_seconds = {stats_.total_seconds};
  return results;
}

void CpuBackend::reset_stream() {
  pending_.clear();
  next_query_ = 0;
  handle_base_ = 0;
  live_handles_ = 0;
  submit_hint_seconds_ = 0.0;
  last_complete_seconds_ = 0.0;
  stats_ = BackendStats{};
}

void CpuBackend::maybe_compact() {
  if (live_handles_ == 0 && next_query_ == pending_.size() && !pending_.empty()) {
    handle_base_ += static_cast<std::uint32_t>(pending_.size());
    pending_.clear();
    next_query_ = 0;
  }
}

std::uint32_t CpuBackend::enqueue(std::span<const float> query, std::size_t k,
                                  std::size_t nprobe) {
  maybe_compact();
  PendingQuery pq;
  pq.values.assign(query.begin(), query.end());
  pq.k = static_cast<std::uint32_t>(k);
  pq.nprobe = static_cast<std::uint32_t>(nprobe);
  pending_.push_back(std::move(pq));
  ++live_handles_;
  return handle_base_ + static_cast<std::uint32_t>(pending_.size() - 1);
}

BackendStepStats CpuBackend::step(std::size_t max_queries, bool flush) {
  (void)flush;  // nothing is ever deferred: every step runs to completion
  const double t0 = now_seconds();
  const std::size_t begin = next_query_;
  const std::size_t end = max_queries == 0
                              ? pending_.size()
                              : std::min(pending_.size(), begin + max_queries);
  next_query_ = end;

  BackendStepStats out;
  out.fresh_queries = end - begin;
  if (end == begin) return out;

  // Execute per (k, nprobe) group; the model prices each group's batch.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>> groups;
  for (std::size_t q = begin; q < end; ++q) {
    groups[{pending_[q].k, pending_[q].nprobe}].push_back(q);
  }
  for (const auto& [kp, members] : groups) {
    FloatMatrix batch(members.size(), index().dim());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto row = batch.row(i);
      const auto& src = pending_[members[i]].values;
      std::copy(src.begin(), src.end(), row.begin());
    }
    auto results = CpuIvfPq(index()).search_batch(batch, kp.first, kp.second);
    for (std::size_t i = 0; i < members.size(); ++i) {
      pending_[members[i]].results = std::move(results[i]);
      pending_[members[i]].done = true;
    }
    const double group_s = model_group_seconds(members.size(), kp.second, kp.first);
    if (trace_ != nullptr) {
      trace_->span(trace_->lane("cpu/exec"), "scan", "cpu",
                   trace_->now() + out.exec_seconds, group_s,
                   {{"queries", static_cast<double>(members.size())},
                    {"k", static_cast<double>(kp.first)},
                    {"nprobe", static_cast<double>(kp.second)}});
    }
    out.exec_seconds += group_s;
    out.tasks += members.size() * std::min<std::size_t>(kp.second, index().nlist());
  }
  out.step_seconds = out.exec_seconds;
  if (trace_ != nullptr) trace_->advance(out.step_seconds);

  out.submit_seconds = std::max(last_complete_seconds_, submit_hint_seconds_);
  out.complete_seconds = out.submit_seconds + out.step_seconds;
  last_complete_seconds_ = out.complete_seconds;
  stats_.total_seconds += out.step_seconds;
  stats_.host_wall_seconds += now_seconds() - t0;
  stats_.queries += out.fresh_queries;
  stats_.tasks += out.tasks;
  ++stats_.batches;
  stats_.batch_seconds.push_back(out.step_seconds);
  return out;
}

bool CpuBackend::finished(std::uint32_t handle) const {
  if (handle < handle_base_) return true;  // compacted away: taken long ago
  return pending_.at(handle - handle_base_).done;
}

std::vector<Neighbor> CpuBackend::take_results(std::uint32_t handle) {
  if (handle < handle_base_) {
    throw std::logic_error("CpuBackend: results for this handle already taken");
  }
  PendingQuery& pq = pending_.at(handle - handle_base_);
  if (!pq.done || pq.taken) {
    throw std::logic_error("CpuBackend: results not available for this handle");
  }
  pq.taken = true;
  if (live_handles_ > 0) --live_handles_;
  return std::move(pq.results);
}

std::string backend_kind_name(BackendKind kind) {
  return kind == BackendKind::kDrim ? "drim" : "cpu";
}

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "drim" || name == "pim") return BackendKind::kDrim;
  if (name == "cpu") return BackendKind::kCpu;
  throw std::invalid_argument("unknown backend '" + name + "' (want drim|cpu)");
}

}  // namespace drim
