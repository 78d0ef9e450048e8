#include "drim/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <unordered_map>

#include "common/scratch.hpp"
#include "core/distances.hpp"

namespace drim {
namespace {

// ---- single-source kernels ----
// Each kernel below is ONE body templated on kFunctional. The functional
// instantiation (SimPimPlatform) moves bytes and computes; the charge-only
// instantiation (AnalyticPimPlatform) compiles the data movement and the
// arithmetic out behind `if constexpr`. Every charge sits outside those
// blocks, and the DMA helpers below are the only place the instantiations
// differ in how a transfer is billed (mram_read, mram_read_view and
// mram_write bill exactly what charge_mram_read/charge_mram_write bill for
// the same size), so both platforms charge identical per-phase counters by
// construction. The functional search arithmetic runs on the integer ADC
// primitives of the SIMD seam (core/distances.hpp), the q4 table helpers
// and the BoundedTopK declared in kernels.hpp: the same code the host-exact
// replay runs. Functional reads of queries, centroids, codebook slices and
// code blocks use the bytes in place inside simulated MRAM (one page holds
// them almost always) and copy only a page-straddling range.

/// One MRAM -> WRAM DMA transfer of `bytes` into `dst` (ignored, and may be
/// null, in the charge-only instantiation).
template <bool kFunctional>
void dma_read(DpuContext& ctx, std::size_t offset, void* dst, std::size_t bytes) {
  if constexpr (kFunctional) {
    ctx.mram_read(offset, {static_cast<std::uint8_t*>(dst), bytes});
  } else {
    ctx.charge_mram_read(bytes);
  }
}

/// One MRAM -> WRAM DMA transfer billed like dma_read, returning where the
/// bytes can be read: in place inside simulated MRAM when the range lies in
/// one written page, else copied into `fallback`. Null when charge-only.
template <bool kFunctional>
const std::uint8_t* dma_read_view(DpuContext& ctx, std::size_t offset,
                                  std::uint8_t* fallback, std::size_t bytes) {
  if constexpr (kFunctional) {
    return ctx.mram_read_view(offset, bytes, fallback);
  } else {
    ctx.charge_mram_read(bytes);
    return nullptr;
  }
}

/// One WRAM -> MRAM DMA transfer.
template <bool kFunctional>
void dma_write(DpuContext& ctx, std::size_t offset, const void* src, std::size_t bytes) {
  if constexpr (kFunctional) {
    ctx.mram_write(offset, {static_cast<const std::uint8_t*>(src), bytes});
  } else {
    ctx.charge_mram_write(bytes);
  }
}

/// DMA a region in <= kMaxDmaBytes chunks (UPMEM transfers are bounded),
/// each billed like dma_read_view, and return the region contiguously: in
/// place when every chunk lies in one page, else gathered into `fallback`
/// (>= bytes long). Null when charge-only.
template <bool kFunctional>
const std::uint8_t* mram_read_chunked(DpuContext& ctx, std::size_t offset,
                                      std::uint8_t* fallback, std::size_t bytes) {
  const std::uint8_t* base = nullptr;
  for (std::size_t done = 0; done < bytes;) {
    const std::size_t n = std::min(kMaxDmaBytes, bytes - done);
    const std::uint8_t* p = dma_read_view<kFunctional>(
        ctx, offset + done, kFunctional ? fallback + done : nullptr, n);
    if constexpr (kFunctional) {
      if (done == 0) {
        base = p;
      } else if (p != base + done) {
        // The region left a page: gather every chunk in the fallback.
        if (base != fallback) std::memcpy(fallback, base, done);
        if (p != fallback + done) std::memcpy(fallback + done, p, n);
        base = fallback;
      }
    }
    done += n;
  }
  return base;
}

/// A view's bytes as the int16 operands the kernels compute on. The bytes
/// live in unsigned-char storage filled by memcpy (an MRAM page or a WRAM
/// buffer), which implicitly creates the int16 objects (C++20
/// [intro.object]); std::launder yields a pointer to them. Every int16
/// operand sits at an even MRAM offset, so the pointer is aligned. Null
/// (the charge-only instantiation's view) stays null.
inline const std::int16_t* as_i16(const std::uint8_t* p) {
  return p == nullptr ? nullptr : std::launder(reinterpret_cast<const std::int16_t*>(p));
}

/// Host storage behind the kernels' WRAM buffers, one set per thread. A
/// kernel runs one DPU to completion on one thread and never nests, so a
/// lane reuses the same buffers for every DPU and step it runs instead of
/// allocating (and zero-filling) them per launch.
struct KernelScratch {
  std::vector<std::uint8_t> query, centroid, cb_slice, code;
  std::vector<std::uint32_t> lut, lut4, pair_lut, dists;
  std::vector<std::uint64_t> heap_keys;
  std::vector<BoundedTopK> heaps;
  std::vector<KernelHit> row;
};
thread_local KernelScratch tl_kernel_scratch;

/// A WRAM scratch buffer of `n` elements in `storage` when functional, empty
/// otherwise (the charge-only kernels bill the working set without
/// materializing it). Contents are unspecified: the kernels write every
/// entry they read.
template <bool kFunctional, typename T>
std::span<T> wram_buffer(std::vector<T>& storage, std::size_t n) {
  if constexpr (kFunctional) {
    return {scratch_buffer(storage, n), n};
  } else {
    (void)storage;
    (void)n;
    return {};
  }
}

// ---- shared instruction-charging policy ----
// Both instantiations bill instruction cycles through the SAME deterministic
// helpers below, so per-phase cycle counters are exactly equal between
// SimPimPlatform and AnalyticPimPlatform (pinned by tests/test_platforms.cpp).
// The policy is schedule/layout-determined:
//   - squaring bills one square-LUT lookup per dimension when the square
//     table is enabled (the broadcast table is sized to cover the full
//     operand range, so this is the real cost), or a 32-cycle multiply per
//     dimension with the table off (the Fig. 10a ablation);
//   - TS heap maintenance bills the Eq. 15 amortized l_sortu shape instead
//     of the data-dependent accept sequence.
// The arithmetic itself stays exact and data-dependent; only the charges
// follow the policy.

/// Squaring cost for `total` (residual - codeword) differences.
void charge_square_stream(DpuContext& ctx, bool use_lut, std::uint64_t total) {
  if (use_lut) {
    ctx.charge_sq_lut_lookups(total);
  } else {
    ctx.charge_muls(total);
  }
}

/// Amortized TS heap-maintenance cycles for `points` pushes into a k-deep
/// heap: the Eq. 15 l_sortu shape (threshold compare always; 0.25 * log2(k)
/// of the sift's compare + two WRAM accesses on the amortized accept path).
std::uint64_t amortized_topk_cycles(const DpuInstructionCosts& c, std::uint64_t points,
                                    std::uint32_t k) {
  double log2k = 1.0;
  for (std::uint32_t v = k; v > 1; v >>= 1) log2k += 1.0;
  const double sift = 0.25 * log2k * (static_cast<double>(c.cmp) + 2.0 * c.wram_access);
  return points * c.cmp +
         static_cast<std::uint64_t>(static_cast<double>(points) * sift + 0.5);
}

template <bool kFunctional>
void cl_kernel(DpuContext& ctx, const ClKernelArgs& args) {
  const std::size_t dim = args.dim;
  if (args.num_queries == 0 || args.centroid_count == 0) return;

  const std::size_t wram =
      dim * 2 + dim * 2 + args.nprobe * sizeof(KernelHit) +
      (args.use_square_lut ? (args.sq_lut_max_abs + 1) * sizeof(std::uint32_t) : 0);
  check_wram_budget(ctx.config(), wram);
  KernelScratch& scratch = tl_kernel_scratch;
  auto query_buf = wram_buffer<kFunctional>(scratch.query, dim * 2);
  auto centroid_buf = wram_buffer<kFunctional>(scratch.centroid, dim * 2);
  auto keys = wram_buffer<kFunctional>(scratch.heap_keys, args.nprobe);
  auto row = wram_buffer<kFunctional>(scratch.row, args.nprobe);

  ctx.set_phase(Phase::CL);
  const std::uint64_t cnt = args.centroid_count;
  for (std::uint32_t q = 0; q < args.num_queries; ++q) {
    const std::int16_t* query = as_i16(dma_read_view<kFunctional>(
        ctx, args.queries_offset + q * dim * 2, query_buf.data(), dim * 2));
    BoundedTopK topk(keys.data(), kFunctional ? args.nprobe : 0);
    for (std::uint32_t c = 0; c < args.centroid_count; ++c) {
      const std::uint32_t global = args.centroid_begin + c;
      const std::int16_t* centroid = as_i16(dma_read_view<kFunctional>(
          ctx, args.centroids_offset + global * dim * 2, centroid_buf.data(), dim * 2));
      if constexpr (kFunctional) {
        std::uint32_t dist = 0;
        for (std::size_t d = 0; d < dim; ++d) {
          const std::int32_t diff = static_cast<std::int32_t>(query[d]) - centroid[d];
          const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
          dist += a * a;
        }
        topk.push(dist, global);
      }
    }
    // Per dim of each centroid: subtract + square + accumulate (the Eq. 1
    // "3D - 1" shape), then the amortized top-nprobe maintenance.
    charge_square_stream(ctx, args.use_square_lut, cnt * dim);
    ctx.charge_adds(cnt * 2 * dim);
    ctx.charge_cycles(amortized_topk_cycles(ctx.config().costs, cnt, args.nprobe));
    if constexpr (kFunctional) topk.sorted_into(row);
    dma_write<kFunctional>(ctx, args.output_offset + q * args.nprobe * sizeof(KernelHit),
                           row.data(), args.nprobe * sizeof(KernelHit));
  }
}

/// The search kernel. `groups` is the fusion plan shipped with the launch;
/// an empty span runs every task as its own group and ships no descriptor
/// table, which is exactly the per-task kernel's charge stream.
template <bool kFunctional>
void search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                   std::span<const ShardRegion> shards, std::span<const KernelTask> tasks,
                   std::span<const FusedTaskGroup> groups) {
  const std::size_t dim = args.dim;
  const std::size_t m = args.m;
  const std::size_t cb = args.cb;
  const std::size_t dsub = dim / m;
  const std::size_t cb4 = args.cb4;
  const std::size_t pairs = args.has_q4 ? (m + 1) / 2 : 0;

  // Widest group per rung; q4 buffers join the working set only when this
  // launch actually carries a 4-bit task, so full-rung launches keep the
  // exact pre-ladder WRAM accounting.
  std::size_t full_width = 0;
  std::size_t q4_width = 0;
  const auto widen = [&](bool q4, std::size_t width) {
    std::size_t& w = q4 && args.has_q4 ? q4_width : full_width;
    w = std::max(w, width);
  };
  if (groups.empty()) {
    for (const KernelTask& t : tasks) widen(task_is_q4(t), 1);
  } else {
    for (const FusedTaskGroup& g : groups) widen(g.q4, g.tasks.size());
  }

  // ---- WRAM working set (checked against the 64 KB budget) ----
  check_wram_budget(ctx.config(), fused_search_wram_bytes(args, full_width, q4_width));
  // The MRAM operands are read in place where they lie in one page (see
  // dma_read_view); these buffers catch the page-straddling reads.
  KernelScratch& scratch = tl_kernel_scratch;
  auto query_buf = wram_buffer<kFunctional>(scratch.query, dim * 2);
  auto centroid_buf = wram_buffer<kFunctional>(scratch.centroid, dim * 2);
  auto lut = wram_buffer<kFunctional>(scratch.lut,  // ADC LUT slab
                                      std::max<std::size_t>(full_width, 1) * m * cb);
  auto cb_slice = wram_buffer<kFunctional>(scratch.cb_slice, cb * dsub * 2);  // one book
  auto code_buf = wram_buffer<kFunctional>(scratch.code, kMaxDmaBytes);
  auto lut4 = wram_buffer<kFunctional>(scratch.lut4, q4_width > 0 ? m * cb4 : 0);
  auto pair_lut = wram_buffer<kFunctional>(scratch.pair_lut, q4_width * pairs * 256);
  // One code block's distances for one member (the packed q4 codes are
  // never wider than the full ones, so they fit the most per block).
  // Host-side only: the DPU accumulates each point in registers before its
  // top-k push, so this row is not part of the WRAM working set.
  auto dists = wram_buffer<kFunctional>(
      scratch.dists, kMaxDmaBytes / std::max<std::uint32_t>(
                                        1, args.has_q4 ? args.code_size_q4 : args.code_size));
  // One k-entry top-k per member of the widest group, and one result row.
  const std::size_t heap_width = std::max<std::size_t>(std::max(full_width, q4_width), 1);
  auto heap_keys = wram_buffer<kFunctional>(scratch.heap_keys, heap_width * args.k);
  auto heaps = wram_buffer<kFunctional>(scratch.heaps, heap_width);
  auto row = wram_buffer<kFunctional>(scratch.row, args.k);
  // The byte width of one listed id in MRAM: the code width.
  const std::size_t id_bytes = args.wide_codes ? 2 : 1;

  // The task list (and, with a plan, the fused-group descriptor table)
  // arrives by DMA: the host ships the plan; the kernel never re-derives it.
  ctx.set_phase(Phase::AUX);
  ctx.charge_cycles(tasks.size() * 4);  // task decode / loop control
  ctx.charge_mram_read(tasks.size() * sizeof(KernelTask));
  if (!groups.empty()) {
    ctx.charge_cycles(groups.size() * 4);  // group decode / loop control
    ctx.charge_mram_read(groups.size() * sizeof(KernelTask));
  }

  const auto run_group = [&](std::uint32_t shard_slot, bool group_q4,
                             std::span<const std::uint32_t> members) {
    const ShardRegion& shard = shards[shard_slot];
    const bool q4 = args.has_q4 && group_q4;
    const std::uint32_t shift = q4 ? shard.q4_shift : 0;
    const std::size_t width = members.size();

    // ---- RC + LC per member: the centroid is group-shared (read once);
    // each member reads its own query, forms its residual, and builds its
    // own LUT slab row with exactly the per-task charges. ----
    ctx.set_phase(Phase::RC);
    const std::int16_t* centroid = as_i16(dma_read_view<kFunctional>(
        ctx, args.centroids_offset + shard.cluster * dim * 2, centroid_buf.data(), dim * 2));
    // The full rung builds only the entries the shard's codeword list names
    // (every entry without a list). The list's ids stream once per group,
    // like the codes; as host-side catalog state they are billed, never
    // moved. The codebook slices below stay dense DMAs: one 2 KB transfer
    // is cheaper than a DMA per listed row.
    const CodewordList* listed = q4 ? nullptr : shard.codewords;
    if (listed != nullptr) {
      ctx.set_phase(Phase::LC);
      mram_read_chunked<false>(ctx, 0, nullptr, listed->size() * id_bytes);
    }
    for (std::size_t g = 0; g < width; ++g) {
      const KernelTask& task = tasks[members[g]];
      ctx.set_phase(Phase::RC);
      const std::int16_t* query = as_i16(dma_read_view<kFunctional>(
          ctx, args.queries_offset + task_query_slot(task) * dim * 2, query_buf.data(),
          dim * 2));
      // The table builders below form the residual one subvector at a
      // time; its cost is billed here, in its own phase.
      ctx.charge_adds(dim);
      ctx.charge_wram(dim * 3);  // two loads + one store per component
      // Per-cluster residual scalar quantization on the q4 rung: arithmetic
      // shift, one cycle per component (billed even at shift 0 so the q4
      // charge stream is schedule-determined, not data-determined).
      if (q4) ctx.charge_cycles(dim);

      // ---- LC: lut[sub][e] = sum_d (residual - codeword)^2 ----
      // The full rung builds each row from the codebook slice just DMA'd
      // with the shared integer table builder (kernels().adc_lut_u32, the
      // host-exact replay's arithmetic). The q4 rung scores each
      // subquantizer against its cb4-entry coarse codebook (shifted into
      // the cluster's residual scale) into the shared lut4 scratch, then
      // folds pairs of sub-LUTs into this member's 256-entry pair-LUT rows
      // so DC scores two subquantizers per byte.
      ctx.set_phase(Phase::LC);
      const std::size_t entries = q4 ? cb4 : cb;
      const std::size_t books = q4 ? args.codebooks_q4_offset : args.codebooks_offset;
      for (std::size_t sub = 0; sub < m; ++sub) {
        const std::int16_t* book = as_i16(mram_read_chunked<kFunctional>(
            ctx, books + sub * entries * dsub * 2, cb_slice.data(), entries * dsub * 2));
        const std::size_t built = listed != nullptr ? listed->count(sub) : entries;
        if constexpr (kFunctional) {
          const std::int16_t* q = query + sub * dsub;
          const std::int16_t* c = centroid + sub * dsub;
          std::uint32_t* lut_row = lut.data() + (g * m + sub) * cb;
          if (q4) {
            q4_lut_row(q, c, book, dsub, cb4, shift, lut4.data() + sub * cb4);
          } else if (listed != nullptr) {
            // Only the listed entries, with the dense build's arithmetic, so
            // the table holds exactly what the DPU builds.
            kernels().adc_lut_u32_marked(q, c, book, dsub, cb, listed->sub_marks(sub),
                                         lut_row);
          } else {
            kernels().adc_lut_u32(q, c, book, 1, dsub, cb, lut_row);
          }
        }
        // Cost per dimension of each entry: one subtract, one square (square-
        // table lookup, or multiply in the ablation), one accumulate — the
        // paper's "M x 3 - 1 per subvector" accounting — plus one WRAM store
        // per finished entry and, for a listed entry, the load of its id.
        if (q4) ctx.charge_cycles(built * dsub);  // per-component codeword shift
        charge_square_stream(ctx, args.use_square_lut, built * dsub);
        ctx.charge_adds(built * 2 * dsub);
        ctx.charge_wram(listed != nullptr ? 2 * built : built);
      }
      if (q4) {
        if constexpr (kFunctional) {
          q4_fold_pairs(lut4.data(), m, cb4, pair_lut.data() + g * pairs * 256);
        }
        ctx.charge_adds(pairs * 256);
        ctx.charge_wram(pairs * 256);
      }
    }

    // ---- DC: stream the shard's codes ONCE, scoring every member's LUT
    // against each block before advancing (member-major inside the block:
    // the shared integer scan kernels().adc_scan_u32 scores the block into
    // a distance row, pushed in ascending point order). Per-point compute
    // (lookups + accumulate adds) is billed per member — only the DMA is
    // amortized. The block schedule is the shared
    // for_each_code_block iterator (whole codes per block; packed q4 codes
    // fit twice as many). ----
    const std::size_t code_size = q4 ? args.code_size_q4 : args.code_size;
    const std::size_t codes_base = q4 ? shard.q4_codes_offset : shard.codes_offset;
    const std::uint32_t kk =
        std::min<std::uint32_t>(args.k, std::max<std::uint32_t>(shard.size, 1));
    if constexpr (kFunctional) {
      for (std::size_t g = 0; g < width; ++g) {
        heaps[g] = BoundedTopK(heap_keys.data() + g * args.k, kk);
      }
    }
    const std::size_t codes_bytes = static_cast<std::size_t>(shard.size) * code_size;
    const std::size_t lookups = q4 ? pairs : m;
    ctx.set_phase(Phase::DC);
    for_each_code_block(codes_bytes, code_size, [&](std::size_t block_off,
                                                    std::size_t block_bytes) {
      const std::uint8_t* code_block = dma_read_view<kFunctional>(
          ctx, codes_base + block_off, code_buf.data(), block_bytes);
      const std::size_t points_in_block = block_bytes / code_size;
      if constexpr (kFunctional) {
        const auto first = static_cast<std::uint32_t>(block_off / code_size);
        const std::uint8_t* dead = shard.dead ? shard.dead + shard.begin + first : nullptr;
        for (std::size_t g = 0; g < width; ++g) {
          kernels().adc_scan_u32(q4 ? pair_lut.data() + g * pairs * 256 : lut.data() + g * m * cb,
                                 q4 ? 256 : cb, lookups, code_block, code_size,
                                 !q4 && args.wide_codes, points_in_block, dists.data());
          // Tombstoned entries are skipped before the top-k push: a dead
          // point can never evict a live candidate, so the surviving
          // (dist, id) stream equals a cold rebuild of the live set.
          for (std::size_t i = 0; i < points_in_block; ++i) {
            if (dead && dead[i]) continue;
            heaps[g].push(dists[i], first + static_cast<std::uint32_t>(i));
          }
        }
      }
      // Per point: one LUT load per (paired) lookup + the accumulate adds.
      ctx.charge_lut_lookups(points_in_block * lookups * width);
      ctx.charge_adds(points_in_block * (lookups - 1) * width);
    });
    if (shard.dead) {
      // Liveness flags stream alongside the codes (one byte per point) and
      // cost one compare each — once per GROUP, since the skip decision is
      // shared. Billed only when the cluster actually has tombstones, so
      // read-only runs charge nothing extra. The flags are host-side catalog
      // state, so the stream is billed but never moved.
      mram_read_chunked<false>(ctx, 0, nullptr, shard.size);
      ctx.charge_cmps(shard.size);
    }

    // ---- TS + AUX per member, each at its task's ORIGINAL output row ----
    for (std::size_t g = 0; g < width; ++g) {
      // TS: amortized heap maintenance at this task's effective depth.
      ctx.set_phase(Phase::TS);
      ctx.charge_cycles(amortized_topk_cycles(ctx.config().costs, shard.size, kk));

      // AUX: resolve winners' base-point ids from the shard's id table (one
      // 4-byte read each), then write the sentinel-padded result row. Only
      // live points can win, so the winner count follows the live total. Q4
      // tasks skip the id reads and emit LOCAL shard indices — the host
      // rerank resolves ids while it re-scores the candidates exactly.
      ctx.set_phase(Phase::AUX);
      std::size_t winners = std::min<std::size_t>(args.k, shard_live_points(shard));
      if constexpr (kFunctional) winners = heaps[g].sorted_into(row);  // sentinel-padded
      if (!q4) {
        for (std::size_t h = 0; h < winners; ++h) {
          std::uint32_t id = 0;
          if constexpr (kFunctional) id = row[h].id;
          dma_read<kFunctional>(ctx, shard.ids_offset + id * sizeof(std::uint32_t), &id,
                                sizeof(std::uint32_t));
          if constexpr (kFunctional) row[h].id = id;
        }
      }
      dma_write<kFunctional>(
          ctx, args.output_offset + std::size_t{members[g]} * args.k * sizeof(KernelHit),
          row.data(), args.k * sizeof(KernelHit));
    }
  };

  if (groups.empty()) {
    for (std::uint32_t t = 0; t < tasks.size(); ++t) {
      run_group(tasks[t].shard_slot, task_is_q4(tasks[t]), {&t, 1});
    }
  } else {
    for (const FusedTaskGroup& g : groups) run_group(g.shard_slot, g.q4, g.tasks);
  }
}

}  // namespace

void q4_lut_row(const std::int16_t* query, const std::int16_t* centroid,
                const std::int16_t* book, std::size_t dsub, std::size_t cb4,
                std::uint32_t shift, std::uint32_t* row) {
  for (std::size_t e = 0; e < cb4; ++e) {
    const std::int16_t* cw = book + e * dsub;
    std::uint32_t acc = 0;
    for (std::size_t d = 0; d < dsub; ++d) {
      const std::int32_t res = (static_cast<std::int32_t>(query[d]) - centroid[d]) >> shift;
      const std::int32_t diff = res - (cw[d] >> shift);
      const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
      acc += a * a;
    }
    row[e] = acc;
  }
}

void q4_fold_pairs(const std::uint32_t* lut4, std::size_t m, std::size_t cb4,
                   std::uint32_t* pair_lut) {
  for (std::size_t p = 0; p < (m + 1) / 2; ++p) {
    const std::uint32_t* lo_row = lut4 + (2 * p) * cb4;
    const std::uint32_t* hi_row = 2 * p + 1 < m ? lut4 + (2 * p + 1) * cb4 : nullptr;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::size_t lo = b & 0xF;
      const std::size_t hi = b >> 4;
      std::uint32_t v = lo < cb4 ? lo_row[lo] : 0;
      if (hi_row && hi < cb4) v += hi_row[hi];
      pair_lut[p * 256 + b] = v;
    }
  }
}

CodewordList build_codeword_list(std::span<const std::uint8_t> codes, std::size_t m,
                                 std::size_t cb, bool wide) {
  const std::size_t code_size = m * (wide ? 2 : 1);
  const std::size_t points = code_size > 0 ? codes.size() / code_size : 0;
  // Mark every (subquantizer, codeword) a point names, then count each
  // subquantizer's marks.
  CodewordList list;
  list.cb = cb;
  const std::size_t mark_bytes = (cb + 7) / 8;
  list.marks.assign(m * mark_bytes, 0);
  for (std::size_t i = 0; i < points; ++i) {
    const std::uint8_t* point = codes.data() + i * code_size;
    for (std::size_t sub = 0; sub < m; ++sub) {
      std::uint16_t e = point[sub];
      if (wide) std::memcpy(&e, point + sub * 2, 2);
      list.marks[sub * mark_bytes + e / 8] |= static_cast<std::uint8_t>(1u << (e % 8));
    }
  }
  list.offsets.assign(m + 1, 0);
  for (std::size_t sub = 0; sub < m; ++sub) {
    std::uint32_t n = 0;
    for (std::size_t b = 0; b < mark_bytes; ++b) {
      n += static_cast<std::uint32_t>(std::popcount(list.marks[sub * mark_bytes + b]));
    }
    list.offsets[sub + 1] = list.offsets[sub] + n;
  }
  return list;
}

std::vector<FusedTaskGroup> plan_task_fusion(std::span<const KernelTask> tasks,
                                             std::size_t fuse_width) {
  const std::size_t width = std::max<std::size_t>(fuse_width, 1);
  std::vector<FusedTaskGroup> groups;
  // Open group per (shard_slot, rung); the map is only ever point-queried, so
  // its iteration order never influences the (deterministic) group order.
  std::unordered_map<std::uint64_t, std::size_t> open;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const bool q4 = task_is_q4(tasks[t]);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(tasks[t].shard_slot) << 1) | (q4 ? 1u : 0u);
    const auto it = open.find(key);
    if (it != open.end() && groups[it->second].tasks.size() < width) {
      groups[it->second].tasks.push_back(static_cast<std::uint32_t>(t));
      continue;
    }
    if (it != open.end()) it->second = groups.size();
    else open.emplace(key, groups.size());
    FusedTaskGroup g;
    g.shard_slot = tasks[t].shard_slot;
    g.q4 = q4;
    g.tasks.push_back(static_cast<std::uint32_t>(t));
    groups.push_back(std::move(g));
  }
  return groups;
}

std::size_t fused_search_wram_bytes(const SearchKernelArgs& args,
                                    std::size_t full_width, std::size_t q4_width) {
  const std::size_t dim = args.dim;
  const std::size_t m = args.m;
  const std::size_t cb = args.cb;
  const std::size_t dsub = m > 0 ? dim / m : 0;
  const std::size_t pairs = (m + 1) / 2;
  const std::size_t sq_lut_bytes =
      args.use_square_lut ? (args.sq_lut_max_abs + 1) * sizeof(std::uint32_t) : 0;
  // One LUT slab row per full-rung member (the slab keeps the per-task
  // kernel's single row even in an all-q4 launch, mirroring its accounting),
  // one shared lut4 scratch plus a pair-LUT row per q4 member, and one
  // k-entry heap per member of the widest group. Everything else — query /
  // centroid / residual scratch, one codebook slice, ONE code block, the
  // square table — is group-shared. A listed LC build streams its codeword
  // ids through the code-block buffer, which is idle until DC.
  const std::size_t heap_width =
      std::max<std::size_t>(std::max(full_width, q4_width), 1);
  std::size_t bytes = dim * 2 + dim * 2 + dim * 4 +
                      std::max<std::size_t>(full_width, 1) * m * cb * 4 +
                      std::min(cb * dsub * 2, kMaxDmaBytes * 2) + kMaxDmaBytes +
                      sq_lut_bytes + heap_width * args.k * sizeof(KernelHit);
  if (q4_width > 0) bytes += m * args.cb4 * 4 + q4_width * pairs * 256 * 4;
  return bytes;
}

void run_fused_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                             std::span<const ShardRegion> shards,
                             std::span<const KernelTask> tasks,
                             std::span<const FusedTaskGroup> groups) {
  search_kernel<true>(ctx, args, shards, tasks, groups);
}

void charge_fused_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                                std::span<const ShardRegion> shards,
                                std::span<const KernelTask> tasks,
                                std::span<const FusedTaskGroup> groups) {
  search_kernel<false>(ctx, args, shards, tasks, groups);
}

void run_cl_kernel(DpuContext& ctx, const ClKernelArgs& args) { cl_kernel<true>(ctx, args); }

void charge_cl_kernel(DpuContext& ctx, const ClKernelArgs& args) {
  cl_kernel<false>(ctx, args);
}

}  // namespace drim
