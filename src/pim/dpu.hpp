#pragma once
// Functional-plus-cost model of a single UPMEM DPU. Kernels are real C++
// code that reads and writes simulated MRAM/WRAM byte arrays — results are
// bit-exact — while every arithmetic operation and DMA transfer charges
// cycles into per-phase counters (see DESIGN.md "Functional + cost-model
// simulation"). A kernel interacts with the DPU exclusively through
// DpuContext, mirroring the UPMEM SDK programming model (mram_read /
// mram_write DMA intrinsics + WRAM scratch).
//
// Threading contract: a Dpu is NOT internally synchronized. The platform's
// parallel run_batch assigns at most one host thread to each Dpu at a time
// (kernel run, staging push, or collection pull). That is sufficient because
// the WRAM budget and counters are per-DPU state, and so is each MRAM page
// table: a page that several DPUs share (Mram::install_shared) is only read
// while kernels run, and a DPU that writes it first copies it into a private
// page of its own. Cross-DPU billing state lives in the platform and is
// atomic there.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "pim/perf_counters.hpp"
#include "pim/pim_config.hpp"

namespace drim {

/// One DPU's 64 MB MRAM. A bump allocator hands out regions; reads and
/// writes are plain memcpy (costs are charged by DpuContext, which is the
/// only path kernels may use).
///
/// Capacity is logical. Bytes live in kPageBytes pages allocated (zeroed) on
/// first write, so a DPU costs host memory only for the pages its layout
/// actually stores — the depth-2 ping/pong staging slot at half capacity
/// touches a few pages, not 32 MB — and thousands of analytic DPUs that
/// never store a byte cost nothing. Untouched bytes read as zero.
///
/// A page may be *shared*: one refcounted page that a platform broadcast
/// installed in many DPUs' tables because every DPU holds the same bytes
/// there. write() never changes a shared page in place; it first copies the
/// page into a private one (copy-on-write). The choice reads this table's
/// flag, not the refcount, so DPUs that write their own tables concurrently
/// never race on the page.
class Mram {
 public:
  static constexpr std::size_t kPageBytes = std::size_t{64} << 10;
  using PagePtr = std::shared_ptr<std::uint8_t[]>;

  explicit Mram(std::size_t capacity) : capacity_(capacity) {}
  // A copy would share every page without marking it shared.
  Mram(const Mram&) = delete;
  Mram& operator=(const Mram&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

  /// True when [offset, offset + size) lies inside the capacity; never
  /// forms offset + size, so offsets near SIZE_MAX cannot wrap past it.
  bool in_range(std::size_t offset, std::size_t size) const {
    return offset <= capacity_ && size <= capacity_ - offset;
  }

  /// Reserve `bytes` (8-byte aligned, as UPMEM DMA requires). Throws
  /// std::bad_alloc-like runtime_error when MRAM is exhausted.
  std::size_t alloc(std::size_t bytes);

  /// Release every allocation and drop every page reference, so all of MRAM
  /// reads as zero again. The engine uses this when it installs a new index
  /// snapshot: the whole static layout (codes, ids, codebooks, centroids,
  /// staging) is rebuilt from scratch, which keeps the functional
  /// simulation bit-exact while the *billed* publish cost stays the modeled
  /// delta, not the physical reload.
  void reset() {
    used_ = 0;
    pages_.clear();
  }

  /// Host-side (transfer) access — used by the platform, not by kernels.
  void write(std::size_t offset, std::span<const std::uint8_t> src);
  void read(std::size_t offset, std::span<std::uint8_t> dst) const;

  /// The bytes [offset, offset + size) in place, or null unless the range
  /// lies in capacity and inside one written page (an unwritten page reads
  /// as zeros, which only read() materializes). Shared pages are read in
  /// place too. Valid until the next write() or reset() of this Mram, or
  /// the next broadcast over the page.
  const std::uint8_t* view(std::size_t offset, std::size_t size) const {
    const std::size_t page = offset / kPageBytes;
    const std::size_t in_page = offset % kPageBytes;
    if (!in_range(offset, size) || size > kPageBytes - in_page ||
        page >= pages_.size() || !pages_[page].bytes) {
      return nullptr;
    }
    return pages_[page].bytes.get() + in_page;
  }

  /// Entry `page` of the page table: null if never written. `shared` says
  /// whether it came from install_shared and was not written since.
  const PagePtr& page(std::size_t page, bool* shared = nullptr) const {
    static const PagePtr kNone;
    const bool held = page < pages_.size() && pages_[page].bytes;
    if (shared != nullptr) *shared = held && pages_[page].shared;
    return held ? pages_[page].bytes : kNone;
  }
  /// Length of the page table (one past the highest page held).
  std::size_t page_count() const { return pages_.size(); }
  /// Point page `page` at `bytes`, marked shared (the caller keeps writing
  /// it only while every holder should see the same bytes).
  void install_shared(std::size_t page, PagePtr bytes);

  /// Host memory this table references: materialized pages, shared or
  /// private, times kPageBytes. A shared page counts in every table that
  /// holds it; DpuArrayPlatform::resident_bytes counts it once.
  std::size_t resident_bytes() const;

 private:
  struct Page {
    PagePtr bytes;  ///< null = never written
    bool shared = false;
  };

  std::size_t capacity_;
  /// Page table, grown to the highest page written.
  std::vector<Page> pages_;
  std::size_t used_ = 0;
};

/// Cycle-charging handle passed to kernels. All methods are cheap and
/// inlineable; kernels should batch charges (e.g. charge_adds(dsub) per
/// codeword) rather than per scalar to keep simulation fast — the counts are
/// identical either way.
class DpuContext {
 public:
  DpuContext(const PimConfig& config, Mram& mram, DpuCounters& counters)
      : cfg_(config), mram_(mram), counters_(counters) {}

  // ---- phase scoping ----
  void set_phase(Phase p) { phase_ = p; }
  Phase phase() const { return phase_; }

  // ---- compute charging ----
  void charge_adds(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.add; }
  void charge_muls(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.mul32;
    cur().mul_count += n;
  }
  void charge_cmps(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.cmp; }
  void charge_wram(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.wram_access; }
  void charge_lut_lookups(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.lut_lookup;
  }
  void charge_sq_lut_lookups(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.sq_lut_lookup;
  }
  /// Raw cycles (e.g. loop/branch overhead estimated per iteration).
  void charge_cycles(std::uint64_t n) { cur().instr_cycles += n; }

  // ---- MRAM DMA (the only way kernels may touch MRAM, as on real UPMEM) ----
  /// DMA MRAM -> WRAM buffer.
  void mram_read(std::size_t mram_offset, std::span<std::uint8_t> dst);
  /// mram_read without the copy where it can: bills exactly what
  /// mram_read of `bytes` bills, and returns the bytes in place (Mram::view)
  /// when they lie inside one written page, else copies them into
  /// `fallback` (>= bytes long) and returns it. The kernel must not write
  /// MRAM while it holds the pointer.
  const std::uint8_t* mram_read_view(std::size_t mram_offset, std::size_t bytes,
                                     std::uint8_t* fallback) {
    const std::uint8_t* p = mram_.view(mram_offset, bytes);
    if (p == nullptr) {
      mram_read(mram_offset, {fallback, bytes});
      return fallback;
    }
    charge_mram_read(bytes);
    return p;
  }
  /// DMA WRAM buffer -> MRAM.
  void mram_write(std::size_t mram_offset, std::span<const std::uint8_t> src);

  /// Bill one MRAM->WRAM DMA transfer without moving bytes — the analytic
  /// kernels' path. Charges the same affine cost (fixed cycles + per-byte
  /// cycles) and byte counters as mram_read of the same size.
  void charge_mram_read(std::size_t bytes) {
    PhaseCounters& c = cur();
    c.dma_cycles += dma_cost(bytes);
    c.mram_bytes_read += bytes;
  }
  /// WRAM->MRAM billing twin of charge_mram_read.
  void charge_mram_write(std::size_t bytes) {
    PhaseCounters& c = cur();
    c.dma_cycles += dma_cost(bytes);
    c.mram_bytes_written += bytes;
  }

  const PimConfig& config() const { return cfg_; }
  DpuCounters& counters() { return counters_; }

 private:
  PhaseCounters& cur() { return counters_.at(phase_); }
  double dma_cost(std::size_t bytes) const {
    return cfg_.dma_fixed_cycles + static_cast<double>(bytes) * cfg_.dma_cycles_per_byte;
  }

  const PimConfig& cfg_;
  Mram& mram_;
  DpuCounters& counters_;
  Phase phase_ = Phase::AUX;
};

/// One DPU: MRAM plus the counters of the most recent kernel run. WRAM is
/// modeled as a capacity budget checked by kernels (their working buffers
/// live on the simulation host's stack/heap for speed, but may not exceed
/// wram_bytes; kernels assert this via check_wram_budget).
class Dpu {
 public:
  explicit Dpu(const PimConfig& config)
      : cfg_(config), mram_(config.mram_bytes) {}

  Mram& mram() { return mram_; }
  const Mram& mram() const { return mram_; }

  DpuCounters& counters() { return counters_; }
  const DpuCounters& counters() const { return counters_; }
  void reset_counters() { counters_.reset(); }

  /// Make a kernel context bound to this DPU.
  DpuContext context() { return DpuContext(cfg_, mram_, counters_); }

  /// Seconds this DPU's last-accumulated counters take to execute: compute
  /// stream (scaled by pipeline IPC and the Fig. 13 compute_scale knob)
  /// overlapped with the DMA engine; the slower stream dominates, matching
  /// the paper's t = max(C / (F * PE), IO / BW) model shape.
  double execution_seconds() const;

  /// Seconds attributable to one phase (same overlap model, phase-local).
  double phase_seconds(Phase p) const;

 private:
  const PimConfig& cfg_;
  Mram mram_;
  DpuCounters counters_;
};

/// Throws std::runtime_error if a kernel's WRAM working set exceeds the
/// configured 64 KB budget. Call with the sum of all live WRAM buffers.
void check_wram_budget(const PimConfig& config, std::size_t bytes);

}  // namespace drim
