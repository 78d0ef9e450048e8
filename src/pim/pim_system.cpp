#include "pim/pim_system.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/parallel.hpp"

namespace drim {

DpuArrayPlatform::DpuArrayPlatform(const PimConfig& config) : config_(config) {
  if (config_.num_dpus == 0) throw std::runtime_error("PimPlatform needs >= 1 DPU");
  dpus_.reserve(config_.num_dpus);
  for (std::size_t i = 0; i < config_.num_dpus; ++i) {
    dpus_.push_back(std::make_unique<Dpu>(config_));
  }
}

std::size_t DpuArrayPlatform::alloc_symmetric(std::size_t bytes) {
  std::size_t offset = dpus_[0]->mram().alloc(bytes);
  for (std::size_t i = 1; i < dpus_.size(); ++i) {
    const std::size_t o = dpus_[i]->mram().alloc(bytes);
    if (o != offset) throw std::runtime_error("symmetric heap desynchronized");
  }
  return offset;
}

std::size_t DpuArrayPlatform::alloc_on(std::size_t dpu_id, std::size_t bytes) {
  return dpus_.at(dpu_id)->mram().alloc(bytes);
}

std::size_t DpuArrayPlatform::mram_used(std::size_t dpu_id) const {
  return dpus_.at(dpu_id)->mram().used();
}

double DpuArrayPlatform::drain_pending_transfer() {
  const std::uint64_t bytes = pending_in_bytes_.exchange(0, std::memory_order_relaxed);
  return static_cast<double>(bytes) / config_.host_link_bytes_per_sec;
}

BatchResult DpuArrayPlatform::run_batch(
    const std::function<void(std::size_t, DpuContext&)>& kernel,
    const std::function<void()>& collect) {
  // Pulls during the kernel bodies and `collect` are billed to this batch.
  // The guard clears the flag and the pull tally on every exit and, when a
  // kernel or `collect` throws, the push tally too, so a failed launch
  // leaves no bytes pending for the next batch. (Pushes made in `collect`
  // of a launch that succeeds still bill the next batch.)
  struct BillingScope {
    DpuArrayPlatform& p;
    const int unwinding = std::uncaught_exceptions();
    explicit BillingScope(DpuArrayPlatform& platform) : p(platform) {
      p.pending_out_bytes_.store(0, std::memory_order_relaxed);
      p.collecting_ = true;
    }
    ~BillingScope() {
      p.collecting_ = false;
      p.pending_out_bytes_.store(0, std::memory_order_relaxed);
      if (std::uncaught_exceptions() > unwinding) {
        p.pending_in_bytes_.store(0, std::memory_order_relaxed);
      }
    }
  } scope(*this);

  BatchResult result;
  result.launch_overhead_seconds = config_.launch_overhead_sec;

  // Per-DPU kernel runs are data-independent: each Dpu owns its MRAM page
  // table (a shared page is only read, or copied before a write) and its
  // counters, and per_dpu_seconds slots are distinct. Cycle counts are
  // integer tallies private to each DPU, so the modeled timings below are
  // bit-identical no matter how the runs interleave.
  result.per_dpu_seconds.resize(dpus_.size());
  parallel_for(0, dpus_.size(), [&](std::size_t i) {
    dpus_[i]->reset_counters();
    DpuContext ctx = dpus_[i]->context();
    kernel(i, ctx);
    result.per_dpu_seconds[i] = dpus_[i]->execution_seconds();
  });
  result.dpu_seconds = result.per_dpu_seconds.empty()
                           ? 0.0
                           : *std::max_element(result.per_dpu_seconds.begin(),
                                               result.per_dpu_seconds.end());
  // Drained after the fan-out: bytes pushed before the launch and inside the
  // kernel bodies both count as this batch's transfer_in.
  result.transfer_in_seconds = drain_pending_transfer();

  if (collect) collect();
  result.transfer_out_seconds =
      static_cast<double>(pending_out_bytes_.load(std::memory_order_relaxed)) /
      config_.host_link_bytes_per_sec;
  return result;
}

DpuCounters DpuArrayPlatform::aggregate_counters() const {
  DpuCounters total;
  for (const auto& dpu : dpus_) total.add(dpu->counters());
  return total;
}

double DpuArrayPlatform::dpu_phase_seconds(std::size_t dpu_id, Phase p) const {
  return dpus_.at(dpu_id)->phase_seconds(p);
}

std::size_t DpuArrayPlatform::resident_bytes() const {
  std::unordered_set<const std::uint8_t*> pages;
  for (const auto& d : dpus_) {
    const Mram& m = d->mram();
    for (std::size_t p = 0; p < m.page_count(); ++p) {
      if (const auto& bytes = m.page(p)) pages.insert(bytes.get());
    }
  }
  return pages.size() * Mram::kPageBytes;
}

void SimPimPlatform::push(std::size_t dpu_id, std::size_t offset,
                          std::span<const std::uint8_t> data) {
  dpus_.at(dpu_id)->mram().write(offset, data);
  pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
}

void SimPimPlatform::broadcast(std::size_t offset, std::span<const std::uint8_t> data) {
  if (!dpus_[0]->mram().in_range(offset, data.size())) {
    throw std::runtime_error("MRAM broadcast out of range");
  }
  // Page by page: a page that no DPU holds, or that every DPU holds as the
  // same shared page, takes the bytes once and stays shared by every DPU.
  // A page some DPU holds privately (written since it was shared) needs a
  // copy per DPU; those spans are written after the walk.
  constexpr std::size_t kPage = Mram::kPageBytes;
  std::vector<std::pair<std::size_t, std::size_t>> per_dpu;  // (offset, bytes)
  for (std::size_t done = 0; done < data.size();) {
    const std::size_t page = (offset + done) / kPage;
    const std::size_t in_page = (offset + done) % kPage;
    const std::size_t n = std::min(kPage - in_page, data.size() - done);
    bool shared = false;
    Mram::PagePtr first = dpus_[0]->mram().page(page, &shared);
    const bool common = (!first || shared) &&
                        std::all_of(dpus_.begin() + 1, dpus_.end(), [&](const auto& d) {
                          bool s = false;
                          return d->mram().page(page, &s) == first && s == shared;
                        });
    if (!common) {
      per_dpu.emplace_back(offset + done, n);
    } else {
      if (!first) {
        first = std::make_shared<std::uint8_t[]>(kPage);
        for (auto& d : dpus_) d->mram().install_shared(page, first);
      }
      // Every holder should see these bytes, so writing in place is the
      // broadcast itself.
      std::memcpy(first.get() + in_page, data.data() + done, n);
    }
    done += n;
  }
  if (!per_dpu.empty()) {
    parallel_for(0, dpus_.size(), [&](std::size_t d) {
      for (const auto& [at, n] : per_dpu) {
        dpus_[d]->mram().write(at, data.subspan(at - offset, n));
      }
    });
  }
  // Transmitted once (rank-level broadcast).
  pending_in_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
}

void SimPimPlatform::pull(std::size_t dpu_id, std::size_t offset,
                          std::span<std::uint8_t> out) {
  dpus_.at(dpu_id)->mram().read(offset, out);
  if (collecting_) pending_out_bytes_.fetch_add(out.size(), std::memory_order_relaxed);
}

}  // namespace drim
