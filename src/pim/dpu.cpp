#include "pim/dpu.hpp"

#include <algorithm>
#include <stdexcept>

namespace drim {

std::size_t Mram::alloc(std::size_t bytes) {
  const std::size_t free = capacity_ - used_;
  const std::size_t pad = (8 - bytes % 8) % 8;  // up to the 8-byte DMA alignment
  // Compared without forming bytes + pad, which wraps for bytes near SIZE_MAX.
  if (bytes > free || pad > free - bytes) {
    throw std::runtime_error("MRAM exhausted: need " + std::to_string(bytes) +
                             " bytes, free " + std::to_string(free));
  }
  const std::size_t offset = used_;
  used_ += bytes + pad;
  return offset;
}

void Mram::write(std::size_t offset, std::span<const std::uint8_t> src) {
  if (!in_range(offset, src.size())) {
    throw std::runtime_error("MRAM write out of range");
  }
  std::size_t done = 0;
  while (done < src.size()) {
    const std::size_t page = (offset + done) / kPageBytes;
    const std::size_t in_page = (offset + done) % kPageBytes;
    const std::size_t n = std::min(kPageBytes - in_page, src.size() - done);
    if (page >= pages_.size()) pages_.resize(page + 1);
    Page& p = pages_[page];
    if (!p.bytes) {
      p.bytes = std::make_shared<std::uint8_t[]>(kPageBytes);
    } else if (p.shared) {
      // Copy-on-write: other DPUs keep reading the shared page unchanged.
      PagePtr own = std::make_shared_for_overwrite<std::uint8_t[]>(kPageBytes);
      std::memcpy(own.get(), p.bytes.get(), kPageBytes);
      p = Page{std::move(own), false};
    }
    std::memcpy(p.bytes.get() + in_page, src.data() + done, n);
    done += n;
  }
}

void Mram::read(std::size_t offset, std::span<std::uint8_t> dst) const {
  if (!in_range(offset, dst.size())) {
    throw std::runtime_error("MRAM read out of range");
  }
  std::size_t done = 0;
  while (done < dst.size()) {
    const std::size_t page = (offset + done) / kPageBytes;
    const std::size_t in_page = (offset + done) % kPageBytes;
    const std::size_t n = std::min(kPageBytes - in_page, dst.size() - done);
    if (page < pages_.size() && pages_[page].bytes) {
      std::memcpy(dst.data() + done, pages_[page].bytes.get() + in_page, n);
    } else {
      std::memset(dst.data() + done, 0, n);
    }
    done += n;
  }
}

void Mram::install_shared(std::size_t page, PagePtr bytes) {
  if (page >= pages_.size()) pages_.resize(page + 1);
  pages_[page] = Page{std::move(bytes), true};
}

std::size_t Mram::resident_bytes() const {
  const auto resident = std::count_if(pages_.begin(), pages_.end(),
                                      [](const Page& p) { return p.bytes != nullptr; });
  return static_cast<std::size_t>(resident) * kPageBytes;
}

void DpuContext::mram_read(std::size_t mram_offset, std::span<std::uint8_t> dst) {
  mram_.read(mram_offset, dst);
  PhaseCounters& c = cur();
  c.dma_cycles += dma_cost(dst.size());
  c.mram_bytes_read += dst.size();
}

void DpuContext::mram_write(std::size_t mram_offset, std::span<const std::uint8_t> src) {
  mram_.write(mram_offset, src);
  PhaseCounters& c = cur();
  c.dma_cycles += dma_cost(src.size());
  c.mram_bytes_written += src.size();
}

double Dpu::execution_seconds() const {
  const double compute =
      static_cast<double>(counters_.total_instr_cycles()) / cfg_.effective_ipc();
  const double dma = counters_.total_dma_cycles();
  // compute_scale accelerates the instruction stream only (Fig. 13 scales
  // "computational ability"); the DMA engine speed is a memory property.
  const double compute_sec = compute * cfg_.seconds_per_cycle();
  const double dma_sec = dma / cfg_.frequency_hz;
  return std::max(compute_sec, dma_sec);
}

double Dpu::phase_seconds(Phase p) const {
  const PhaseCounters& c = counters_.at(p);
  const double compute_sec =
      static_cast<double>(c.instr_cycles) / cfg_.effective_ipc() * cfg_.seconds_per_cycle();
  const double dma_sec = c.dma_cycles / cfg_.frequency_hz;
  return std::max(compute_sec, dma_sec);
}

void check_wram_budget(const PimConfig& config, std::size_t bytes) {
  if (bytes > config.wram_bytes) {
    throw std::runtime_error("WRAM budget exceeded: kernel needs " +
                             std::to_string(bytes) + " bytes, WRAM is " +
                             std::to_string(config.wram_bytes));
  }
}

}  // namespace drim
