#pragma once
// The DPU-side search kernel of DRIM-ANN. One launch processes a DPU's task
// list for the batch; each task runs the cluster-searching pipeline on one
// shard: RC (residual), LC (ADC LUT build, multiplier-less via the square
// LUT), DC (code scan), TS (top-k). The kernel only touches MRAM through the
// DpuContext DMA API (2 KB max per transfer, as on real UPMEM) and keeps its
// working set within the 64 KB WRAM budget; every operation charges cycles
// into the per-phase counters that drive batch timing and Fig. 8.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pim/dpu.hpp"

namespace drim {

/// Maximum bytes per single MRAM DMA transfer (UPMEM hardware limit).
inline constexpr std::size_t kMaxDmaBytes = 2048;

/// The DC phase's MRAM transfer schedule over a shard's packed codes: whole
/// codes per <= kMaxDmaBytes block. Calls fn(block_offset, block_bytes) for
/// every block, in stream order. This is the SINGLE source of truth for the
/// code-block loop: the search kernel iterates through it on both platforms
/// and at every fusion width (pinned by tests/test_fusion.cpp).
template <typename Fn>
inline void for_each_code_block(std::size_t codes_bytes, std::size_t code_size,
                                Fn&& fn) {
  const std::size_t codes_per_block = kMaxDmaBytes / code_size;
  std::size_t streamed = 0;
  while (streamed < codes_bytes) {
    const std::size_t block_bytes =
        std::min(codes_per_block * code_size, codes_bytes - streamed);
    fn(streamed, block_bytes);
    streamed += block_bytes;
  }
}

/// The codewords a shard's codes reference, per subquantizer. DC only ever
/// reads the LUT entries its codes name, so the full-rung LC builds just
/// these (DESIGN.md §17). Tombstoned points' codes stay listed, because DC
/// still scans them. The host holds each subquantizer's set as a bitmask;
/// the kernel bills it as a stream of ids at the code width.
struct CodewordList {
  std::size_t cb = 0;                  ///< codewords per subquantizer
  std::vector<std::uint32_t> offsets;  ///< m + 1 running counts of listed codewords
  /// (cb + 7) / 8 bytes per subquantizer: bit e % 8 of byte e / 8 is set
  /// when codeword e is listed.
  std::vector<std::uint8_t> marks;

  std::size_t count(std::size_t s) const { return offsets[s + 1] - offsets[s]; }
  std::size_t size() const { return offsets.empty() ? 0 : offsets.back(); }
  const std::uint8_t* sub_marks(std::size_t s) const {
    return marks.data() + s * ((cb + 7) / 8);
  }
  bool listed(std::size_t s, std::size_t e) const {
    return ((sub_marks(s)[e / 8] >> (e % 8)) & 1) != 0;
  }
};

/// The list of `codes`: packed m-code points, one byte per code, or two
/// (uint16, host order) when `wide`. Entries are < cb.
CodewordList build_codeword_list(std::span<const std::uint8_t> codes, std::size_t m,
                                 std::size_t cb, bool wide);

/// Where one shard's data lives in this DPU's MRAM, plus the shard's
/// tombstone view for the current index snapshot. `dead` (host-side flags
/// for the whole cluster, indexed by `begin + local point`) is null when the
/// cluster has no tombstones — the common case, in which the kernel bills
/// zero liveness cost, keeping read-only runs bit-identical in both results
/// and cycle counters. With tombstones, dead entries are skipped BEFORE the
/// bounded top-k so they can never evict live candidates, and both platforms
/// bill the same flag-stream DMA and per-point compare.
struct ShardRegion {
  std::size_t codes_offset = 0;
  std::size_t ids_offset = 0;
  std::uint32_t size = 0;      ///< points physically in the shard
  std::uint32_t cluster = 0;   ///< original cluster id (selects the centroid)
  std::uint32_t begin = 0;     ///< shard's first position in the cluster list
  std::uint32_t live = 0;      ///< live points (== size when dead is null)
  const std::uint8_t* dead = nullptr;  ///< cluster tombstone flags, or null
  /// The codewords this shard's codes reference, shared by every replica of
  /// its (cluster, slice); null builds every entry. Host-side catalog state
  /// like `dead`: its id stream is billed, never moved.
  const CodewordList* codewords = nullptr;

  // Quantization-ladder fields (valid only when SearchKernelArgs::has_q4):
  // where the shard's packed 4-bit codes live, and the cluster's residual
  // scalar-quantization shift. Host-side catalog state, never byte-billed.
  std::size_t q4_codes_offset = 0;
  std::uint32_t q4_shift = 0;
};

/// Points of a shard that can surface in results.
inline std::uint32_t shard_live_points(const ShardRegion& s) {
  return s.dead ? s.live : s.size;
}

/// One task in the per-DPU task list: scan shard `shard_slot` for the query
/// staged at `query_slot`. The top bit of query_slot carries the task's
/// precision rung (set = 4-bit path), keeping sizeof(KernelTask) == 8 so the
/// task-list DMA charge — and with it the full-rung batch timing — is
/// bit-identical whether or not the ladder is compiled into the launch.
struct KernelTask {
  std::uint32_t query_slot = 0;
  std::uint32_t shard_slot = 0;
};

/// Rung flag inside KernelTask::query_slot.
inline constexpr std::uint32_t kTaskQ4Bit = 0x80000000u;

/// Staged query slot with the rung bit stripped.
inline std::uint32_t task_query_slot(const KernelTask& t) {
  return t.query_slot & ~kTaskQ4Bit;
}
/// True when the task runs on the packed 4-bit rung.
inline bool task_is_q4(const KernelTask& t) {
  return (t.query_slot & kTaskQ4Bit) != 0;
}

/// Result entry written back to MRAM: (distance, base-point id).
struct KernelHit {
  std::uint32_t dist = 0xFFFFFFFFu;
  std::uint32_t id = 0xFFFFFFFFu;
};

/// Bounded top-k over (dist, idx) in the kernels' ascending total order,
/// shared by the DPU kernels and the host-exact replay. Entries are kept as
/// sorted 64-bit keys dist << 32 | idx (one compare orders them exactly like
/// (dist, idx)) in caller-provided storage for k keys. The kept set is the k
/// smallest entries under a total order, so it matches any other exact
/// selection bit for bit; a sorted array beats a heap here because the first
/// k pushes are most of the accepted ones and a full array rejects a point
/// with one compare. It bills nothing: the kernels charge TS maintenance in
/// bulk (the amortized Eq. 15 shape).
class BoundedTopK {
 public:
  BoundedTopK() = default;
  BoundedTopK(std::uint64_t* storage, std::uint32_t k) : keys_(storage), k_(k) {}

  void push(std::uint32_t dist, std::uint32_t idx) {
    const std::uint64_t key = std::uint64_t{dist} << 32 | idx;
    std::uint32_t i = n_;
    if (n_ == k_) {
      if (k_ == 0 || key >= keys_[k_ - 1]) return;
      i = k_ - 1;  // the current worst falls out
    } else {
      ++n_;
    }
    for (; i > 0 && key < keys_[i - 1]; --i) keys_[i] = keys_[i - 1];
    keys_[i] = key;
  }

  /// Ascending (dist, idx) into `out`, sentinel-padding the tail; empties
  /// the selection and returns how many entries it held (at most
  /// out.size() are written). `out` may be any size.
  std::size_t sorted_into(std::span<KernelHit> out) {
    const std::size_t n = std::min<std::size_t>(n_, out.size());
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {static_cast<std::uint32_t>(keys_[i] >> 32),
                static_cast<std::uint32_t>(keys_[i])};
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), KernelHit{});
    n_ = 0;
    return n;
  }

 private:
  std::uint64_t* keys_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
};

/// Static geometry + offsets shared by all tasks of a launch.
struct SearchKernelArgs {
  // Index geometry.
  std::uint32_t dim = 0;
  std::uint32_t m = 0;
  std::uint32_t cb = 0;
  std::uint32_t code_size = 0;
  bool wide_codes = false;
  std::uint32_t k = 10;  ///< hits kept per task

  // Broadcast regions.
  std::size_t sq_lut_offset = 0;     ///< uint32[sq_lut_entries]
  std::uint32_t sq_lut_max_abs = 0;  ///< table covers |x| <= max_abs
  std::size_t codebooks_offset = 0;  ///< int16[m * cb * dsub]
  std::size_t centroids_offset = 0;  ///< int16[nlist * dim]

  // Per-batch staging regions (per DPU).
  std::size_t queries_offset = 0;  ///< int16[num_query_slots * dim]
  std::size_t output_offset = 0;   ///< KernelHit[num_tasks * k]

  // Toggle for the Fig. 10a ablation: with the conversion off, LC squares
  // via 32-cycle multiplies instead of square-LUT lookups.
  bool use_square_lut = true;

  // ---- quantization ladder (4-bit rung; DESIGN.md §15) ----
  // With has_q4 set, tasks flagged kTaskQ4Bit scan the packed 4-bit codes:
  // LC builds cb4-entry sub-LUTs from the coarse codebooks, folds them into
  // a per-pair 256-entry byte LUT (one lookup scores two subquantizers),
  // and DC streams code_size_q4-byte codes — half the MRAM traffic, twice
  // the codes per DMA. Q4 result rows carry LOCAL shard indices (no
  // per-winner id resolution on the DPU); the host reranks them exactly.
  bool has_q4 = false;
  std::uint32_t cb4 = 0;                ///< coarse entries per subquantizer
  std::uint32_t code_size_q4 = 0;       ///< packed bytes per point
  std::size_t codebooks_q4_offset = 0;  ///< int16[m * cb4 * dsub]
};

// ---- 4-bit rung table arithmetic ----
// One definition of the q4 coarse tables, shared by the search kernel's LC
// phase and the host-exact replay (host_exact.cpp), so the two cannot drift.

/// One subquantizer's coarse table: for each codeword e < cb4 of `book`
/// (cb4 x dsub int16), row[e] = sum over d < dsub of
/// (((query[d] - centroid[d]) >> shift) - (book[e*dsub + d] >> shift))^2 —
/// the residual and the codeword both arithmetic-shifted into the cluster's
/// scale, each square and the sum taken in uint32 wraparound arithmetic.
void q4_lut_row(const std::int16_t* query, const std::int16_t* centroid,
                const std::int16_t* book, std::size_t dsub, std::size_t cb4,
                std::uint32_t shift, std::uint32_t* row);

/// Fold the m coarse rows of `lut4` (m x cb4) into (m + 1) / 2 byte tables
/// of 256 entries: pair_lut[p*256 + b] = lut4[2p][b & 0xF] +
/// lut4[2p+1][b >> 4], where a nibble >= cb4 (and the missing odd row when
/// m is odd) adds 0. One lookup per packed byte then scores two
/// subquantizers, in the same uint32 sum as two coarse lookups.
void q4_fold_pairs(const std::uint32_t* lut4, std::size_t m, std::size_t cb4,
                   std::uint32_t* pair_lut);

// ---- cluster-major task fusion (DESIGN.md §16) ----
// Under Zipf-skewed batches the hottest clusters are probed by many queries
// of the same launch, and the per-task kernel re-streams the cluster's codes
// from MRAM once per probing query. Fusion groups a DPU's tasks by
// (shard, rung) into groups of up to fuse_width members; the fused kernel
// builds every member's LUT, then streams the shard's codes ONCE, scoring
// each code block against all member LUTs before advancing. Each member
// keeps its own LUT, its own bounded top-k, and its own k-hit output row at
// the task's original index, so results are bit-identical to the per-task
// kernel at any width — only the DMA charges shrink.

/// One fused group: tasks (indices into the launch's task list) that scan
/// the same shard on the same precision rung.
struct FusedTaskGroup {
  std::uint32_t shard_slot = 0;
  bool q4 = false;
  std::vector<std::uint32_t> tasks;
};

/// Group a launch's task list into fused groups of up to `fuse_width`
/// members by (shard_slot, rung). Deterministic: tasks are scanned in list
/// order, each joining the open group for its key (a full group closes and a
/// new one opens), and groups are emitted in creation order — independent of
/// host thread count. fuse_width < 1 is treated as 1.
std::vector<FusedTaskGroup> plan_task_fusion(std::span<const KernelTask> tasks,
                                             std::size_t fuse_width);

/// WRAM working-set bytes of a fused search launch whose widest full-rung
/// group has `full_width` members and widest q4 group `q4_width` (0 = no
/// group on that rung): shared scratch + one LUT slab row per full member,
/// one pair-LUT row per q4 member, one code block, and one k-entry heap per
/// member of the widest group. At (1, 0) this equals the per-task kernel's
/// accounting exactly. Shared by the search kernel and the engine's
/// up-front fuse_width feasibility check so they can never disagree.
std::size_t fused_search_wram_bytes(const SearchKernelArgs& args,
                                    std::size_t full_width, std::size_t q4_width);

/// Execute the search kernel for `tasks` against the shard catalog. Results
/// for task t land at output_offset + t * k * sizeof(KernelHit), sorted
/// ascending, padded with sentinel (0xFFFFFFFF) entries when a shard has
/// fewer than k points. `groups`, when non-empty, is the fusion plan and must
/// partition [0, tasks.size()) (as produced by plan_task_fusion over the same
/// task list); fusion never moves a task's output row. An empty `groups`
/// span means no plan was shipped: each task runs as its own group and no
/// descriptor table is billed (the per-task launch).
void run_fused_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                             std::span<const ShardRegion> shards,
                             std::span<const KernelTask> tasks,
                             std::span<const FusedTaskGroup> groups);

/// Arguments for the optional cluster-locating kernel (CL on the PIM instead
/// of the host — the placement alternative of Section III-B). Each DPU owns
/// a contiguous range of centroids and reports, per query, its local top-P
/// candidates; the host merges the per-DPU lists. DRIM-ANN defaults to
/// host-side CL because this path pays P * num_dpus result traffic over the
/// thin host link per query — the ablation makes that trade measurable.
struct ClKernelArgs {
  std::uint32_t dim = 0;
  std::uint32_t nprobe = 0;         ///< candidates kept per query (P)
  std::uint32_t centroid_begin = 0; ///< first centroid this DPU owns
  std::uint32_t centroid_count = 0; ///< how many it owns
  std::size_t centroids_offset = 0; ///< int16[nlist * dim] (broadcast region)
  std::size_t queries_offset = 0;   ///< int16[num_queries * dim]
  std::uint32_t num_queries = 0;
  std::size_t output_offset = 0;    ///< KernelHit[num_queries * nprobe]

  std::size_t sq_lut_offset = 0;
  std::uint32_t sq_lut_max_abs = 0;
  bool use_square_lut = true;
};

/// Run cluster locating on one DPU: L2 distance from every staged query to
/// every owned centroid, keeping the top-nprobe (global centroid ids) per
/// query. Output rows are sentinel-padded like the search kernel's.
void run_cl_kernel(DpuContext& ctx, const ClKernelArgs& args);

// ---- charge-only entry points (AnalyticPimPlatform launches) ----
// Each kernel has ONE body, templated on whether it is functional. The
// run_* entry points instantiate it to move bytes and compute; the charge_*
// entry points instantiate it with the data movement and arithmetic compiled
// out, billing the same WRAM budget check, DMA transfers and instruction
// tallies without reading a byte of MRAM. Every charge sits outside the
// functional-only code, so every per-phase counter — instruction cycles, DMA
// cycles, MRAM bytes, multiply count — is EXACTLY equal between the
// functional and analytic platforms by construction, which is what lets the
// tracing layer (src/obs) treat either platform's counters as ground truth.
// Pinned by tests/test_platforms.cpp.

/// Charge-only run_fused_search_kernel (same empty-`groups` convention).
void charge_fused_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                                std::span<const ShardRegion> shards,
                                std::span<const KernelTask> tasks,
                                std::span<const FusedTaskGroup> groups);

/// Charge-only run_cl_kernel.
void charge_cl_kernel(DpuContext& ctx, const ClKernelArgs& args);

}  // namespace drim
