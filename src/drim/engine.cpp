#include "drim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "drim/host_exact.hpp"

namespace drim {

namespace {
// Reusable query-id-stamped flat maps for the per-DPU staging dedup: an
// array indexed by global query id whose entry is valid only when its stamp
// matches the current (step, dpu) epoch, so threads never clear it between
// steps and never hash. Epochs are drawn from one global counter, making
// every (step, dpu) pair's stamp unique across all engines and streams.
std::atomic<std::uint64_t> g_dedup_epoch{1};
thread_local std::vector<std::uint64_t> tl_dedup_stamp;
thread_local std::vector<std::uint32_t> tl_dedup_slot;

// Size the stamped maps for this step's id space. Under the persistent
// executor these thread_locals outlive any one engine, so grossly oversized
// maps from a past engine's larger batches are shrunk instead of pinned for
// the rest of the process. Dropping old entries is safe: validity is carried
// by the global epoch stamp, never by leftover buffer contents.
void dedup_reserve(std::size_t id_space) {
  if (tl_dedup_stamp.size() > std::max<std::size_t>(4096, id_space * 4)) {
    tl_dedup_stamp.assign(id_space, 0);
    tl_dedup_slot.assign(id_space, 0);
    tl_dedup_stamp.shrink_to_fit();
    tl_dedup_slot.shrink_to_fit();
  }
  if (tl_dedup_stamp.size() < id_space) {
    tl_dedup_stamp.resize(id_space, 0);
    tl_dedup_slot.resize(id_space, 0);
  }
}

// Per-thread full-precision table for the collect stage's q4 rerank, so a
// sim step allocates nothing per DPU. Like the dedup maps, a buffer far
// larger than the current index needs is released rather than pinned.
thread_local std::vector<std::uint32_t> tl_rerank_lut;

std::span<std::uint32_t> rerank_lut_scratch(std::size_t n) {
  return {scratch_buffer(tl_rerank_lut, n), n};
}

// A step's merge does little host work per task, so in a step with fewer
// tasks than this a fork-join hand-off costs more than the loop saves, and
// stalls the step whenever one host thread is descheduled. Such steps merge
// on the calling thread; the kernel fan-out (run_batch) always spans the pool.
constexpr std::size_t kMinFanOutTasks = 64;

// Cycle terms of one task's full-rung LUT build (LC): RC, the compute of one
// table entry (dsub squares, LUT or mul, + 2*dsub adds + its store), the
// dense codebook-slice DMA, and the load of a listed entry's id.
struct LutBuildCycles {
  double rc = 0.0;
  double entry = 0.0;
  double dma = 0.0;
  double id_load = 0.0;

  // RC + LC of a task whose codeword list names `entries` entries
  // (DESIGN.md §17): each listed entry also loads its id, and the build
  // overlaps the dense codebook DMA, so the LC phase takes the larger.
  double listed(double entries) const { return rc + std::max(entries * (entry + id_load), dma); }
};

LutBuildCycles lut_build_cycles(const PimConfig& cfg, std::size_t dim, std::size_t m,
                                std::size_t cb, bool use_square_lut) {
  const std::size_t dsub = dim / m;
  const DpuInstructionCosts& c = cfg.costs;
  const double square_cost = use_square_lut ? c.sq_lut_lookup : c.mul32;
  LutBuildCycles lc;
  lc.entry = static_cast<double>(dsub) * square_cost +
             2.0 * static_cast<double>(dsub) * c.add + c.wram_access;
  lc.rc = static_cast<double>(dim) * (c.add + 3.0 * c.wram_access);
  lc.dma = static_cast<double>(m * cb * dsub * 2) * cfg.dma_cycles_per_byte;
  lc.id_load = c.wram_access;
  return lc;
}
}  // namespace

SchedulerParams derive_scheduler_params(const PimConfig& cfg, std::size_t dim,
                                        std::size_t m, std::size_t cb, std::size_t k,
                                        bool use_square_lut, std::size_t cb4) {
  const std::size_t dsub = dim / m;
  const DpuInstructionCosts& c = cfg.costs;
  SchedulerParams p;
  // LC dominates the per-task fixed cost: every entry of the full table,
  // plus RC and the codebook DMA.
  const LutBuildCycles lc = lut_build_cycles(cfg, dim, m, cb, use_square_lut);
  const double per_entry = lc.entry;
  const double rc = lc.rc;
  p.l_lut = static_cast<double>(m * cb) * per_entry + rc + lc.dma;
  // DC per point: m LUT loads + (m-1) adds + streamed code bytes. The DMA
  // share is also recorded separately (l_dc_dma) so the fusion stage's
  // amortized pricing can subtract exactly the term fusion removes.
  p.l_dc_dma = static_cast<double>(m) * cfg.dma_cycles_per_byte;
  p.l_calu = static_cast<double>(m) * c.lut_lookup +
             static_cast<double>(m - 1) * c.add + p.l_dc_dma;
  // TS per point: threshold compare plus amortized heap maintenance.
  double log2k = 1.0;
  for (std::size_t v = k; v > 1; v >>= 1) log2k += 1.0;
  p.l_sortu = c.cmp + 0.25 * log2k * (c.cmp + 2.0 * c.wram_access);

  // 4-bit rung coefficients, matching the q4 kernel's charges: cb4-entry
  // coarse LUTs with per-component shifts, a 256-entry pair fold per LUT
  // pair, and a packed (m+1)/2-byte code stream.
  if (cb4 > 0) {
    const std::size_t pairs = (m + 1) / 2;
    const double per_entry_q4 = per_entry + static_cast<double>(dsub);  // + shift
    const double lc_dma_q4 =
        static_cast<double>(m * cb4 * dsub * 2) * cfg.dma_cycles_per_byte;
    const double pair_fold =
        static_cast<double>(pairs) * 256.0 * (c.add + c.wram_access);
    p.l_lut_q4 = static_cast<double>(m * cb4) * per_entry_q4 + rc +
                 static_cast<double>(dim) + lc_dma_q4 + pair_fold;
    p.l_dc_dma_q4 = static_cast<double>(pairs) * cfg.dma_cycles_per_byte;
    p.l_calu_q4 = static_cast<double>(pairs) * c.lut_lookup +
                  static_cast<double>(pairs - 1) * c.add + p.l_dc_dma_q4;
  } else {
    p.l_lut_q4 = p.l_lut;
    p.l_calu_q4 = p.l_calu;
    p.l_dc_dma_q4 = p.l_dc_dma;
  }
  return p;
}

DrimAnnEngine::DrimAnnEngine(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                             const DrimEngineOptions& options)
    : DrimAnnEngine(make_root_snapshot(index), sample_queries, options) {}

DrimAnnEngine::DrimAnnEngine(IndexSnapshot snapshot, const FloatMatrix& sample_queries,
                             const DrimEngineOptions& options)
    : snapshot_(std::move(snapshot)),
      opts_(options),
      // The q4 tables cost a k-means per subquantizer and a repack of every
      // code; only an engine that can run the ladder builds them.
      data_(*snapshot_.index, options.enable_q4),
      // Cover |residual| + |codeword|; OPQ rotations can widen residual
      // components, so leave generous headroom (misses fall back to the
      // multiply path, results stay exact either way).
      sq_lut_(std::min<std::int32_t>(8192, 2 * (255 + data_.max_operand_abs()))) {
  // Heat estimation from the sample query set (Section IV-A). Kept as a
  // member so apply_snapshot() can extend it over split children.
  heat_ = estimate_heat(index(), sample_queries, opts_.heat_nprobe);
  probe_counts_.assign(index().nlist(), 0);
  layout_ = std::make_unique<DataLayout>(data_, opts_.pim.num_dpus, heat_, opts_.layout);

  // Exact Eq. 15 coefficients for this index geometry at a placeholder depth;
  // search() re-derives them for its actual k before scheduling.
  ensure_scheduler_params(10);
  scheduler_ = std::make_unique<RuntimeScheduler>(*layout_, opts_.scheduler);

  pim_ = make_pim_platform(opts_.platform, opts_.pim);
  load_static_data();
  // Bill the static upload once, here, so the first search batch's
  // transfer_in reflects only that batch's staged queries.
  index_load_seconds_ = pim_->drain_pending_transfer();

  // Up-front batch_size feasibility: the staged query payloads alone must fit
  // the per-DPU staging region even in the worst case where every query of a
  // batch lands on one DPU. The k-dependent output footprint is re-validated
  // exactly per step by search_batch().
  if (opts_.batch_size > 0) {
    const std::size_t cap = max_staged_queries(1);
    if (opts_.batch_size > cap) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "batch_size %zu cannot be staged in MRAM; maximum feasible "
                    "batch_size is %zu",
                    opts_.batch_size, cap);
      throw std::invalid_argument(msg);
    }
  }

  // Up-front fuse_width feasibility at a minimal depth (k = 1); search entry
  // re-validates with the caller's actual k, whose heaps only grow the
  // working set.
  validate_fuse_width(1);
}

std::size_t DrimAnnEngine::max_staged_queries(std::size_t k) const {
  if (staging_base_ >= opts_.pim.mram_bytes) return 0;
  // One batch must fit a single staging slot (the region is split into
  // pipeline_depth slots so in-flight batches coexist; one slot at depth 1).
  const std::size_t capacity = staging_stride_;
  // Per staged query: its int16 payload plus at least one task's k-hit
  // output block (alignment padding ignored — this is an upper bound).
  const std::size_t per_query = data_.dim() * 2 + k * sizeof(KernelHit);
  return capacity / per_query;
}

std::size_t DrimAnnEngine::max_feasible_fuse_width(std::size_t k) const {
  SearchKernelArgs args;
  args.dim = static_cast<std::uint32_t>(data_.dim());
  args.m = static_cast<std::uint32_t>(data_.m());
  args.cb = static_cast<std::uint32_t>(data_.cb_entries());
  args.k = static_cast<std::uint32_t>(std::max<std::size_t>(k, 1));
  args.use_square_lut = opts_.use_square_lut;
  args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
  const bool ladder = q4_ready();
  if (ladder) {
    args.has_q4 = true;
    args.cb4 = static_cast<std::uint32_t>(data_.cb4());
  }
  std::size_t feasible = 0;
  for (std::size_t w = 1;; ++w) {
    // With the ladder on, full and q4 groups can coexist in one launch, so
    // the bound must hold with BOTH rungs at width w (worst case).
    const std::size_t need = fused_search_wram_bytes(args, w, ladder ? w : 0);
    if (need > opts_.pim.wram_bytes) break;
    feasible = w;
  }
  return feasible;
}

void DrimAnnEngine::validate_fuse_width(std::size_t k) const {
  const std::size_t width = opts_.fuse_width == 0 ? 1 : opts_.fuse_width;
  if (width <= 1) return;
  const std::size_t feasible = max_feasible_fuse_width(k);
  if (width <= feasible) return;
  char msg[192];
  std::snprintf(msg, sizeof(msg),
                "fuse_width %zu exceeds the WRAM budget at k %zu (G LUTs + one "
                "code block + G top-k heaps must fit); maximum feasible "
                "fuse_width is %zu",
                width, k, feasible);
  throw std::invalid_argument(msg);
}

void DrimAnnEngine::validate_staging(std::size_t k) const {
  const std::size_t need = ((data_.dim() * 2 + 7) & ~std::size_t{7}) + k * sizeof(KernelHit);
  if (need > staging_stride_) {
    throw std::invalid_argument(
        "MRAM staging region cannot hold even one query at this k; reduce "
        "dataset, k, pipeline_depth, or add DPUs");
  }
}

void DrimAnnEngine::ensure_scheduler_params(std::size_t k) {
  if (k == sched_params_k_) return;
  // Preserve any filter and policy choices the caller configured.
  const bool filter = opts_.scheduler.enable_filter;
  const double slack = opts_.scheduler.filter_slack;
  const SchedulePolicy policy = opts_.scheduler.policy;
  opts_.scheduler = derive_scheduler_params(opts_.pim, data_.dim(), data_.m(),
                                            data_.cb_entries(), k, opts_.use_square_lut,
                                            q4_ready() ? data_.cb4() : 0);
  opts_.scheduler.enable_filter = filter;
  opts_.scheduler.filter_slack = slack;
  opts_.scheduler.policy = policy;
  // Eq. 15 prices tasks at the width the kernels will actually fuse at, so
  // dispatch and the filter see the amortized DC DMA cost (DESIGN.md §16).
  opts_.scheduler.fuse_width = opts_.fuse_width == 0 ? 1 : opts_.fuse_width;
  sched_params_k_ = k;
  if (scheduler_) scheduler_->params() = opts_.scheduler;
}

void DrimAnnEngine::load_static_data(const PimIndexData* previous) {
  // ---- broadcast regions (same offset on every DPU) ----
  sq_lut_off_ = pim_->alloc_symmetric(sq_lut_.size_bytes());
  pim_->broadcast(sq_lut_off_,
                  {reinterpret_cast<const std::uint8_t*>(sq_lut_.raw().data()),
                   sq_lut_.size_bytes()});

  const auto books = data_.codebooks();
  codebooks_off_ = pim_->alloc_symmetric(books.size() * 2);
  pim_->broadcast(codebooks_off_,
                  {reinterpret_cast<const std::uint8_t*>(books.data()), books.size() * 2});

  const auto cents = data_.centroids();
  centroids_off_ = pim_->alloc_symmetric(cents.size() * 2);
  pim_->broadcast(centroids_off_,
                  {reinterpret_cast<const std::uint8_t*>(cents.data()), cents.size() * 2});

  // Quantization-ladder statics (DESIGN.md §15), only when the ladder is on:
  // with enable_q4 off the MRAM image stays byte-identical to the pre-ladder
  // engine, so staging geometry and modeled times are unchanged.
  const bool ladder = opts_.enable_q4 && data_.has_q4();
  if (ladder) {
    const auto books_q4 = data_.codebooks_q4();
    codebooks_q4_off_ = pim_->alloc_symmetric(books_q4.size() * 2);
    pim_->broadcast(codebooks_q4_off_,
                    {reinterpret_cast<const std::uint8_t*>(books_q4.data()),
                     books_q4.size() * 2});
  }

  // ---- per-DPU shard data ----
  const std::size_t num_dpus = pim_->num_dpus();
  dpu_shard_regions_.resize(num_dpus);
  dpu_shard_ids_.resize(num_dpus);
  shard_slot_.assign(layout_->shards().size(), 0);

  // One codeword list per (cluster, slice), shared by the slice's replicas
  // and built by the DPU lane that places the slice's first replica. A
  // slice that the previous image held with the same bounds and the same
  // code bytes keeps its list: a publish touches few clusters, a relayout
  // none.
  constexpr std::uint32_t kNoList = ~std::uint32_t{0};
  std::vector<CodewordList> previous_lists = std::move(codeword_lists_);
  std::vector<ListedSlice> previous_slices = std::move(codeword_slices_);
  const bool same_codec = previous != nullptr && previous->m() == data_.m() &&
                          previous->cb_entries() == data_.cb_entries() &&
                          previous->wide_codes() == data_.wide_codes();
  std::vector<std::vector<std::uint32_t>> previous_by_cluster(
      same_codec ? previous->nlist() : 0);
  for (std::uint32_t i = 0; i < previous_slices.size(); ++i) {
    const std::uint32_t c = previous_slices[i].cluster;
    if (c < previous_by_cluster.size()) previous_by_cluster[c].push_back(i);
  }
  codeword_lists_.clear();
  codeword_slices_.clear();
  std::vector<std::uint32_t> reusable;  // per list: the previous list or kNoList
  shard_list_.assign(layout_->shards().size(), 0);
  std::vector<std::uint8_t> builds_list(layout_->shards().size(), 0);
  for (std::uint32_t c = 0; c < data_.nlist(); ++c) {
    for (const auto& replicas : layout_->slice_groups(c)) {
      if (replicas.empty()) continue;
      for (const std::uint32_t id : replicas) {
        shard_list_[id] = static_cast<std::uint32_t>(codeword_lists_.size());
      }
      builds_list[replicas.front()] = 1;
      const Shard& sh = layout_->shard(replicas.front());
      std::uint32_t from = kNoList;
      if (c < previous_by_cluster.size()) {
        for (const std::uint32_t i : previous_by_cluster[c]) {
          if (previous_slices[i].begin == sh.begin && previous_slices[i].end == sh.end) {
            from = i;
          }
        }
      }
      codeword_lists_.emplace_back();
      codeword_slices_.push_back({c, sh.begin, sh.end});
      reusable.push_back(from);
    }
  }

  // Per-DPU uploads are independent (private MRAM allocators, disjoint
  // shard_slot_ entries — every shard lives on exactly one DPU), so the
  // whole index load fans out across host threads.
  parallel_for(0, num_dpus, [&](std::size_t d) {
    for (std::uint32_t shard_id : layout_->dpu_shards(d)) {
      const Shard& sh = layout_->shard(shard_id);
      const auto codes = data_.cluster_codes(sh.cluster);
      const auto ids = data_.cluster_ids(sh.cluster);
      const std::size_t cs = data_.code_size();

      ShardRegion region;
      region.size = sh.size();
      region.cluster = sh.cluster;
      region.begin = sh.begin;
      region.dead = snapshot_.dead_flags(sh.cluster);
      region.live = region.size;
      if (region.dead != nullptr) {
        std::uint32_t live = 0;
        for (std::uint32_t i = 0; i < region.size; ++i) {
          if (region.dead[region.begin + i] == 0) ++live;
        }
        region.live = live;
      }
      const auto shard_codes =
          codes.subspan(sh.begin * cs, static_cast<std::size_t>(region.size) * cs);
      CodewordList& list = codeword_lists_[shard_list_[shard_id]];
      if (builds_list[shard_id] != 0) {
        const std::uint32_t from = reusable[shard_list_[shard_id]];
        bool unchanged = false;
        if (from != kNoList) {
          const auto old_codes = previous->cluster_codes(sh.cluster);
          const std::size_t off = static_cast<std::size_t>(sh.begin) * cs;
          unchanged = old_codes.size() >= off + shard_codes.size() &&
                      std::equal(shard_codes.begin(), shard_codes.end(),
                                 old_codes.begin() + static_cast<std::ptrdiff_t>(off));
        }
        list = unchanged ? std::move(previous_lists[from])
                         : build_codeword_list(shard_codes, data_.m(), data_.cb_entries(),
                                               data_.wide_codes());
      }
      region.codewords = &list;
      region.codes_offset = pim_->alloc_on(d, region.size * cs);
      region.ids_offset = pim_->alloc_on(d, region.size * sizeof(std::uint32_t));
      pim_->push(d, region.codes_offset, shard_codes);
      pim_->push(d, region.ids_offset,
                 {reinterpret_cast<const std::uint8_t*>(ids.data() + sh.begin),
                  static_cast<std::size_t>(region.size) * sizeof(std::uint32_t)});
      if (ladder) {
        const auto codes_q4 = data_.cluster_codes_q4(sh.cluster);
        const std::size_t cs4 = data_.code_size_q4();
        region.q4_codes_offset = pim_->alloc_on(d, region.size * cs4);
        region.q4_shift = data_.cluster_shift(sh.cluster);
        pim_->push(d, region.q4_codes_offset,
                   codes_q4.subspan(sh.begin * cs4,
                                    static_cast<std::size_t>(region.size) * cs4));
      }

      shard_slot_[shard_id] = static_cast<std::uint32_t>(dpu_shard_regions_[d].size());
      dpu_shard_regions_[d].push_back(region);
      dpu_shard_ids_[d].push_back(shard_id);
    }
  });
  // Eq. 15 prices each full-rung task from its slice's list, as the kernel
  // bills it.
  const LutBuildCycles lc = lut_build_cycles(opts_.pim, data_.dim(), data_.m(),
                                             data_.cb_entries(), opts_.use_square_lut);
  std::vector<double> listed_lut(shard_list_.size());
  for (std::size_t id = 0; id < listed_lut.size(); ++id) {
    listed_lut[id] = lc.listed(static_cast<double>(codeword_lists_[shard_list_[id]].size()));
  }
  scheduler_->set_listed_lut(std::move(listed_lut));

  std::size_t max_used = 0;
  for (std::size_t d = 0; d < num_dpus; ++d) {
    max_used = std::max(max_used, pim_->mram_used(d));
  }
  // Staging region starts above the highest static allocation on any DPU so
  // kernel args can use one offset for all DPUs.
  staging_base_ = (max_used + 7) & ~std::size_t{7};

  // One warm-up style sanity check: staging must have room for something.
  if (staging_base_ >= opts_.pim.mram_bytes) {
    throw std::runtime_error("MRAM exhausted by static data; reduce dataset or add DPUs");
  }

  // Slot geometry of the pipelined executor: the region splits into one
  // equal 8-byte-aligned slot per in-flight step.
  staging_stride_ =
      ((opts_.pim.mram_bytes - staging_base_) / pipeline_depth()) & ~std::size_t{7};
  if (staging_stride_ == 0) {
    throw std::runtime_error(
        "MRAM staging region too small for pipeline_depth slots; reduce "
        "pipeline_depth, dataset, or add DPUs");
  }
}

void DrimAnnEngine::rebuild_from_snapshot() {
  const PimIndexData previous = std::move(data_);
  data_ = PimIndexData(index(), opts_.enable_q4);
  sq_lut_ = SquareLut(std::min<std::int32_t>(8192, 2 * (255 + data_.max_operand_abs())));
  rebuild_layout(&previous);
}

void DrimAnnEngine::rebuild_layout(const PimIndexData* previous) {
  layout_ = std::make_unique<DataLayout>(data_, opts_.pim.num_dpus, heat_, opts_.layout);
  scheduler_ = std::make_unique<RuntimeScheduler>(*layout_, opts_.scheduler);
  pim_->reset_memory();
  // resize() would keep stale entries from the previous layout; start clean.
  dpu_shard_regions_.assign(pim_->num_dpus(), {});
  dpu_shard_ids_.assign(pim_->num_dpus(), {});
  shard_slot_.clear();
  load_static_data(previous);
  // The physical reload exists only for functional bit-exactness; its
  // host-link tally must not leak into the next batch's transfer_in (callers
  // bill the modeled delta instead).
  pim_->drain_pending_transfer();
}

double DrimAnnEngine::apply_snapshot(const IndexSnapshot& snapshot,
                                     const PublishDelta& delta) {
  // Deterministic heat extension over split children: the child takes its
  // observed fraction of the parent's heat, the parent keeps the rest. Split
  // records are replayed in order, so chained splits (a child splitting
  // again) resolve correctly.
  for (const SplitRecord& s : delta.splits) {
    if (s.child >= heat_.size()) heat_.resize(s.child + 1, 0.0);
    const double parent_heat = s.parent < heat_.size() ? heat_[s.parent] : 0.0;
    const double child_heat = parent_heat * s.child_fraction;
    heat_[s.parent] = parent_heat - child_heat;
    heat_[s.child] = child_heat;
    // Cluster-tier ownership: a split child stays on the shard that owned
    // (and physically holds) its parent's points.
    if (!opts_.layout.owned_clusters.empty()) {
      if (s.child >= opts_.layout.owned_clusters.size()) {
        opts_.layout.owned_clusters.resize(s.child + 1, 0);
      }
      opts_.layout.owned_clusters[s.child] =
          s.parent < opts_.layout.owned_clusters.size()
              ? opts_.layout.owned_clusters[s.parent]
              : std::uint8_t{0};
    }
  }
  snapshot_ = snapshot;
  const std::size_t nlist = index().nlist();
  if (heat_.size() < nlist) heat_.resize(nlist, 0.5);  // smoothing floor
  if (!opts_.layout.owned_clusters.empty() &&
      opts_.layout.owned_clusters.size() < nlist) {
    opts_.layout.owned_clusters.resize(nlist, 0);
  }
  probe_counts_.assign(nlist, 0);
  rebuild_from_snapshot();
  return static_cast<double>(delta.total_bytes()) /
         opts_.pim.host_link_bytes_per_sec;
}

double DrimAnnEngine::replan_layout() {
  std::uint64_t total = 0;
  for (const std::uint64_t c : probe_counts_) total += c;
  if (total == 0) return 0.0;

  // Same Laplace smoothing as the construction-time estimate: unseen
  // clusters still carry their size-proportional base cost.
  heat_.assign(probe_counts_.size(), 0.0);
  for (std::size_t c = 0; c < probe_counts_.size(); ++c) {
    heat_[c] = static_cast<double>(probe_counts_[c]) + 0.5;
  }

  // Remember where every (cluster, slice, replica) lived so only shards
  // whose DPU placement actually changed are billed.
  struct SliceKey {
    std::uint64_t hi, lo;
    bool operator<(const SliceKey& o) const {
      return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
  };
  std::map<SliceKey, std::uint32_t> old_home;
  for (const Shard& sh : layout_->shards()) {
    old_home[{(static_cast<std::uint64_t>(sh.cluster) << 32) | sh.begin,
              (static_cast<std::uint64_t>(sh.end) << 32) | sh.replica}] = sh.dpu;
  }

  probe_counts_.assign(probe_counts_.size(), 0);
  // The snapshot has not changed, so neither has data_: only the layout,
  // the scheduler and the MRAM image follow the new heat. Every slice keeps
  // its codeword list when its bounds survive the re-plan.
  rebuild_layout(&data_);

  const std::size_t cs = data_.code_size();
  std::uint64_t moved_bytes = 0;
  for (const Shard& sh : layout_->shards()) {
    const auto it = old_home.find(
        {(static_cast<std::uint64_t>(sh.cluster) << 32) | sh.begin,
         (static_cast<std::uint64_t>(sh.end) << 32) | sh.replica});
    if (it != old_home.end() && it->second == sh.dpu) continue;  // stayed put
    moved_bytes += static_cast<std::uint64_t>(sh.size()) *
                   (cs + sizeof(std::uint32_t));
  }
  return static_cast<double>(moved_bytes) / opts_.pim.host_link_bytes_per_sec;
}

double DrimAnnEngine::model_host_cl_seconds(std::size_t num_queries) const {
  // CL = exhaustive centroid scan + partial selection on the host.
  const double flops = static_cast<double>(num_queries) *
                       static_cast<double>(index().nlist()) *
                       (3.0 * static_cast<double>(data_.dim()));
  const double bytes = static_cast<double>(num_queries) *
                       static_cast<double>(index().nlist()) *
                       (static_cast<double>(data_.dim()) * 4.0);
  return std::max(flops / opts_.host.flops_per_sec, bytes / opts_.host.bytes_per_sec);
}

void DrimAnnEngine::trace_launch_spans(const LaunchLayout& layout,
                                       const BatchResult& batch, const char* kind,
                                       const std::vector<std::size_t>& tasks_per_dpu) {
  if (trace_ == nullptr) return;
  obs::TraceRecorder& tr = *trace_;
  const std::uint32_t xfer_lane = tr.lane("host/transfer");
  const std::uint32_t launch_lane = tr.lane("host/launch");

  if (batch.transfer_in_seconds > 0.0) {
    tr.span(xfer_lane, "transfer-in", kind, layout.in_start, batch.transfer_in_seconds);
  }
  if (layout.launch_seconds > 0.0) {
    tr.span(launch_lane, "launch", kind, layout.launch_start, layout.launch_seconds);
  }
  const double kern0 = layout.kern_start;

  char lane_name[32];
  for (std::size_t d = 0; d < batch.per_dpu_seconds.size(); ++d) {
    const double busy = batch.per_dpu_seconds[d];
    if (busy <= 0.0) continue;
    std::snprintf(lane_name, sizeof(lane_name), "dpu %zu", d);
    const std::uint32_t lane = tr.lane(lane_name);
    const double tasks =
        d < tasks_per_dpu.size() ? static_cast<double>(tasks_per_dpu[d]) : 0.0;
    tr.span(lane, kind, kind, kern0, busy, {{"tasks", tasks}});
    // Phase sub-spans, laid sequentially and scaled so they tile the DPU's
    // busy window exactly (each phase's max(compute, dma) overlaps the
    // others', so raw per-phase times over-cover the window; the raw value
    // rides along in the args).
    double phase_sum = 0.0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      phase_sum += pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
    }
    if (phase_sum <= 0.0) continue;
    const double scale = busy / phase_sum;
    double pt = kern0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const double raw = pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
      if (raw <= 0.0) continue;
      tr.span(lane, std::string(phase_name(static_cast<Phase>(p))), "phase", pt,
              raw * scale, {{"dpu_seconds", raw}});
      pt += raw * scale;
    }
  }

  if (batch.transfer_out_seconds > 0.0) {
    tr.span(xfer_lane, "transfer-out", kind, layout.out_start,
            batch.transfer_out_seconds);
  }
}

void DrimAnnEngine::fold_launch(const BatchResult& batch, DrimSearchStats& stats) const {
  stats.transfer_in_seconds += batch.transfer_in_seconds;
  stats.transfer_out_seconds += batch.transfer_out_seconds;
  stats.dpu_busy_seconds += batch.dpu_seconds;
  for (std::size_t d = 0; d < pim_->num_dpus(); ++d) {
    stats.per_dpu_seconds[d] += batch.per_dpu_seconds[d];
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      stats.phase_dpu_seconds[p] += pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
    }
  }
  stats.counters.add(pim_->aggregate_counters());
}

DrimAnnEngine::ClLaunch DrimAnnEngine::locate_on_pim(SearchBatchState& state,
                                                     std::size_t begin, std::size_t end,
                                                     std::size_t slot_base) {
  const std::size_t dim = data_.dim();
  const std::size_t num_dpus = pim_->num_dpus();
  const std::size_t nq = end - begin;
  const std::size_t nlist = data_.nlist();
  const std::size_t per_dpu = (nlist + num_dpus - 1) / num_dpus;
  // The launch keeps the chunk's widest nprobe; narrower queries truncate
  // their candidate list.
  const auto nprobe = state.query_nprobe.begin();
  const std::size_t keep =
      std::min<std::size_t>(*std::max_element(nprobe + begin, nprobe + end), nlist);

  // Stage the chunk's queries on every DPU (broadcast region of this step's
  // staging slot), outputs right after.
  const std::size_t queries_bytes = nq * dim * 2;
  const std::size_t output_off = slot_base + ((queries_bytes + 7) & ~std::size_t{7});
  const std::size_t output_bytes = nq * keep * sizeof(KernelHit);
  if (output_off + output_bytes > slot_base + staging_stride_) {
    throw std::runtime_error("CL staging exceeds MRAM; lower batch_size");
  }
  // Assemble the chunk's queries into one contiguous block and broadcast it
  // in a single transfer (transmitted once, resident on every DPU).
  std::vector<std::int16_t> staged(nq * dim);
  for (std::size_t q = 0; q < nq; ++q) {
    std::copy(state.quantized[begin + q].begin(), state.quantized[begin + q].end(),
              staged.begin() + q * dim);
  }
  pim_->broadcast(slot_base, {reinterpret_cast<const std::uint8_t*>(staged.data()),
                              staged.size() * 2});

  ClLaunch cl;
  cl.active_dpus = std::min(num_dpus, (nlist + per_dpu - 1) / per_dpu);
  const bool functional = pim_->functional();
  std::vector<KernelHit> hits(cl.active_dpus * nq * keep);  // DPU d's block at d*nq*keep
  std::vector<TopK> merged(nq, TopK(keep));
  cl.batch = pim_->run_batch(
      [&](std::size_t d, DpuContext& ctx) {
        ClKernelArgs args;
        args.dim = static_cast<std::uint32_t>(dim);
        args.nprobe = static_cast<std::uint32_t>(keep);
        args.centroid_begin = static_cast<std::uint32_t>(std::min(d * per_dpu, nlist));
        args.centroid_count = static_cast<std::uint32_t>(
            std::min(per_dpu, nlist - args.centroid_begin));
        args.centroids_offset = centroids_off_;
        args.queries_offset = slot_base;
        args.num_queries = static_cast<std::uint32_t>(nq);
        args.output_offset = output_off;
        args.sq_lut_offset = sq_lut_off_;
        args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
        args.use_square_lut = opts_.use_square_lut;
        if (functional) {
          run_cl_kernel(ctx, args);
        } else {
          charge_cl_kernel(ctx, args);
        }
        if (d >= cl.active_dpus) return;
        // Pull the DPU's whole candidate block (the same bytes billed as
        // per-query pulls). On a non-functional platform the rows are
        // computed with the host-side exact scan first; pull() then only
        // bills the bytes.
        const std::span<KernelHit> rows(hits.data() + d * nq * keep, nq * keep);
        if (!functional) {
          for (std::size_t q = 0; q < nq; ++q) {
            host_cl_candidates_into(data_, state.quantized[begin + q], args.centroid_begin,
                                    args.centroid_count, static_cast<std::uint32_t>(keep),
                                    rows.subspan(q * keep, keep));
          }
        }
        pim_->pull(d, output_off,
                   {reinterpret_cast<std::uint8_t*>(rows.data()), rows.size_bytes()});
      },
      [&]() {
        // Each query replays its fixed d-then-i visit order, so heap
        // contents (and tie-breaking) match the serial merge exactly.
        parallel_for(0, nq, [&](std::size_t q) {
          for (std::size_t d = 0; d < cl.active_dpus; ++d) {
            for (std::size_t i = 0; i < keep; ++i) {
              const KernelHit& h = hits[(d * nq + q) * keep + i];
              if (h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu) break;
              merged[q].push(static_cast<float>(h.dist), h.id);
            }
          }
        });
      });

  for (std::size_t q = begin; q < end; ++q) {
    std::vector<std::uint32_t>& probes = state.probes[q];
    probes.clear();
    for (const Neighbor& n : merged[q - begin].take_sorted()) {
      if (probes.size() == state.query_nprobe[q]) break;
      probes.push_back(n.id);
    }
  }
  return cl;
}

std::uint32_t DrimAnnEngine::enqueue_query(SearchBatchState& state,
                                           std::span<const float> query, std::size_t k,
                                           std::size_t nprobe, Precision precision) {
  const std::uint32_t handle = static_cast<std::uint32_t>(state.quantized.size());
  state.quantized.push_back(PimIndexData::quantize_query(query));
  state.probes.emplace_back();
  if (!opts_.cl_on_pim) state.probes.back() = index().locate_clusters(query, nprobe);
  state.query_k.push_back(static_cast<std::uint32_t>(k));
  state.query_nprobe.push_back(static_cast<std::uint32_t>(nprobe));
  state.cl_external.push_back(0);
  state.query_precision.push_back(
      precision == Precision::kQ4 && q4_ready() ? 1 : 0);
  state.accum.emplace_back(k);
  state.deferred_per_query.push_back(0);
  return handle;
}

std::uint32_t DrimAnnEngine::enqueue_query_routed(SearchBatchState& state,
                                                  std::span<const float> query,
                                                  std::size_t k,
                                                  std::span<const std::uint32_t> probes,
                                                  Precision precision) {
  if (opts_.cl_on_pim) {
    throw std::invalid_argument(
        "enqueue_query_routed: caller-supplied probe lists are incompatible "
        "with cl_on_pim (the PIM CL launch would recompute them)");
  }
  const std::uint32_t handle = static_cast<std::uint32_t>(state.quantized.size());
  state.quantized.push_back(PimIndexData::quantize_query(query));
  state.probes.emplace_back(probes.begin(), probes.end());
  state.query_k.push_back(static_cast<std::uint32_t>(k));
  state.query_nprobe.push_back(
      static_cast<std::uint32_t>(std::max<std::size_t>(probes.size(), 1)));
  state.cl_external.push_back(1);
  state.query_precision.push_back(
      precision == Precision::kQ4 && q4_ready() ? 1 : 0);
  state.accum.emplace_back(k);
  state.deferred_per_query.push_back(0);
  return handle;
}

void DrimAnnEngine::enqueue_queries(SearchBatchState& state, const FloatMatrix& queries,
                                    std::size_t k, std::size_t nprobe,
                                    Precision precision) {
  const std::size_t base = state.quantized.size();
  const std::size_t nq = queries.count();
  const std::uint8_t rung = precision == Precision::kQ4 && q4_ready() ? 1 : 0;
  state.quantized.resize(base + nq);
  state.probes.resize(base + nq);
  state.query_k.resize(base + nq, static_cast<std::uint32_t>(k));
  state.query_nprobe.resize(base + nq, static_cast<std::uint32_t>(nprobe));
  state.cl_external.resize(base + nq, 0);
  state.query_precision.resize(base + nq, rung);
  state.accum.reserve(base + nq);
  for (std::size_t q = 0; q < nq; ++q) state.accum.emplace_back(k);
  state.deferred_per_query.resize(base + nq, 0);

  // Quantized query payloads (independent per query).
  parallel_for(0, nq, [&](std::size_t q) {
    state.quantized[base + q] = PimIndexData::quantize_query(queries.row(q));
  });
  // CL: on the host by default (overlapped with PIM per batch); cl_on_pim
  // fills probes lazily inside each step instead.
  if (!opts_.cl_on_pim) {
    parallel_for(0, nq, [&](std::size_t q) {
      state.probes[base + q] = index().locate_clusters(queries.row(q), nprobe);
    });
  }
}

struct DrimAnnEngine::StepContext {
  std::size_t begin = 0, end = 0;  // the fresh queries [begin, end) of the state
  std::size_t k = 0;               // kernel depth: the widest k of the step's queries
  std::size_t slot_base = 0;       // this step's MRAM staging slot
  Assignment assignment;
  // ---- per-DPU staging tables. Every DPU's output rows (k entries per
  // scheduled task) live in `hits`, DPU d's starting at row row_off[d].
  std::vector<std::size_t> row_off;
  // A non-functional platform computes no rows: the host replays the whole
  // batch from this task list, task i filling row i (see launch_step).
  std::vector<HostReplayTask> replay;
  std::vector<std::vector<KernelTask>> dpu_tasks;
  std::vector<std::vector<std::uint32_t>> dpu_task_query;  // task -> global q
  std::vector<std::vector<std::uint32_t>> dpu_slot_query;  // staged slot -> global q
  std::vector<std::size_t> dpu_output_off;
  std::vector<std::vector<FusedTaskGroup>> dpu_groups;  // fuse_width > 1 only
  std::size_t fused_groups = 0, fused_tasks = 0;  // fusion plan tallies
  std::uint64_t dc_bytes_saved = 0, lut_entries = 0;
  std::vector<KernelHit> hits;
  BatchResult batch;           // the search launch
  std::size_t cl_queries = 0;  // queries billed host CL
  std::size_t q4_tasks = 0;    // tasks reranked on the host
  PipelineSchedule sched;      // the step's placement on the timeline
  BatchStepStats stats;
};

BatchStepStats DrimAnnEngine::search_batch(SearchBatchState& state,
                                           std::size_t max_queries, bool flush,
                                           DrimSearchStats* stats) {
  const std::size_t num_dpus = pim_->num_dpus();
  DrimSearchStats local;
  DrimSearchStats& st = stats != nullptr ? *stats : local;
  if (st.per_dpu_seconds.size() != num_dpus) st.per_dpu_seconds.assign(num_dpus, 0.0);
  st.index_load_seconds = index_load_seconds_;

  StepContext step;
  step.begin = state.next_query;
  step.end = max_queries == 0
                 ? state.quantized.size()
                 : std::min(state.quantized.size(), step.begin + max_queries);
  state.next_query = step.end;
  step.stats.fresh_queries = step.end - step.begin;
  st.queries += step.end - step.begin;
  if (step.end == step.begin && state.carried.empty()) return step.stats;  // nothing to run

  // Every step stages into its round-robin MRAM slot and is placed on the
  // state's timeline, where it overlaps the other steps still in flight.
  const std::size_t depth = pipeline_depth();
  if (state.pipeline.depth() != depth) state.pipeline = PipelineTimeline(depth);
  step.slot_base = staging_slot_base(state.step_index);

  // Kernel depth for this step: the widest k among the fresh queries and the
  // carried tasks' queries. Per-query heaps still truncate to their own k.
  for (std::size_t q = step.begin; q < step.end; ++q) {
    step.k = std::max<std::size_t>(step.k, state.query_k[q]);
  }
  for (const Task& t : state.carried) {
    step.k = std::max<std::size_t>(step.k, state.query_k[t.query]);
  }
  // Price the Eq. 15 TS term for this step's actual search depth, and check
  // the fusion width's WRAM working set against it (the heaps scale with k).
  ensure_scheduler_params(step.k);
  validate_fuse_width(step.k);

  locate_step(state, step, st);
  schedule_step(state, step, flush);
  stage_step(state, step);
  launch_step(state, step);
  account_step(state, step, st);
  trace_step(step, st);
  return step.stats;
}

void DrimAnnEngine::locate_step(SearchBatchState& state, StepContext& step,
                                DrimSearchStats& st) {
  // CL-on-PIM: a dedicated barrier launch precedes the search launch (it
  // cannot overlap — the search needs its output).
  ClLaunch cl;
  if (opts_.cl_on_pim && step.end > step.begin) {
    cl = locate_on_pim(state, step.begin, step.end, step.slot_base);
    fold_launch(cl.batch, st);
    step.stats.cl_pim_seconds = cl.batch.total_seconds();
  }
  // Open the step on the timeline (reserving the CL pre-launch on the link
  // and the DPU array) and trace the CL launch at its scheduled start, back
  // to back — the search launch resets the phase counters the trace reads.
  const double pre_start =
      state.pipeline.begin_batch(state.submit_hint_seconds, step.stats.cl_pim_seconds);
  if (trace_ != nullptr && cl.active_dpus > 0) {
    const BatchResult& b = cl.batch;
    LaunchLayout layout;
    layout.in_start = pre_start;
    layout.launch_start = pre_start + b.transfer_in_seconds;
    layout.launch_seconds =
        b.total_seconds() - b.transfer_in_seconds - b.transfer_out_seconds - b.dpu_seconds;
    layout.kern_start = layout.launch_start + std::max(layout.launch_seconds, 0.0);
    layout.out_start = layout.kern_start + b.dpu_seconds;
    trace_launch_spans(layout, b, "cl-pim",
                       std::vector<std::size_t>(cl.active_dpus, step.end - step.begin));
  }
}

void DrimAnnEngine::schedule_step(SearchBatchState& state, StepContext& step, bool flush) {
  // Observed cluster traffic feeds replan_layout()'s heat estimate.
  for (std::size_t q = step.begin; q < step.end; ++q) {
    for (const std::uint32_t c : state.probes[q]) {
      if (c < probe_counts_.size()) ++probe_counts_[c];
    }
  }
  // The scheduler walks only this chunk's range of the probe table
  // (Task.query indexes the whole state).
  step.assignment = scheduler_->schedule(state.probes, step.begin, step.end, state.carried,
                                         flush, &state.query_precision);
  state.carried = std::move(step.assignment.deferred);
  std::fill(state.deferred_per_query.begin(), state.deferred_per_query.end(), 0u);
  for (const Task& t : state.carried) ++state.deferred_per_query[t.query];
}

void DrimAnnEngine::stage_step(const SearchBatchState& state, StepContext& step) {
  const std::size_t dim = data_.dim();
  const std::size_t num_dpus = pim_->num_dpus();
  const std::size_t k = step.k;
  const auto& per_dpu = step.assignment.per_dpu;
  step.row_off.assign(num_dpus + 1, 0);
  for (std::size_t d = 0; d < num_dpus; ++d) {
    step.row_off[d + 1] = step.row_off[d] + per_dpu[d].size();
  }
  const bool functional = pim_->functional();
  step.replay.resize(functional ? 0 : step.row_off[num_dpus]);
  step.dpu_tasks.resize(num_dpus);
  step.dpu_task_query.resize(num_dpus);
  step.dpu_slot_query.resize(num_dpus);
  step.dpu_output_off.assign(num_dpus, 0);
  std::vector<std::size_t> dpu_need(num_dpus, 0);

  // ---- cluster-major fusion plan (DESIGN.md §16) ----
  // Group each DPU's tasks by (cluster, rung) so the kernel streams every
  // fused group's codes from MRAM once. Planned host-side (the kernel is
  // shipped the plan, so both platforms launch the identical grouping); the
  // saved re-stream bytes are tallied from the plan alone, in DPU order.
  const std::size_t fuse_width = opts_.fuse_width == 0 ? 1 : opts_.fuse_width;
  step.dpu_groups.resize(fuse_width > 1 ? num_dpus : 0);

  // Per-DPU dedup and fusion planning run as a serial pre-pass on the
  // calling thread: nothing is pushed yet, so an oversized batch can still
  // be rejected cleanly below. Dedup uses the reusable stamped flat maps: a
  // fresh stamp per (step, dpu) makes stale entries invisible without
  // clearing, and first-occurrence slot order matches the old hashed path.
  const std::uint64_t epoch_base =
      g_dedup_epoch.fetch_add(num_dpus, std::memory_order_relaxed);
  const bool ladder = q4_ready();
  dedup_reserve(state.quantized.size());
  for (std::size_t d = 0; d < num_dpus; ++d) {
    const auto& tasks = per_dpu[d];
    if (tasks.empty()) continue;
    const std::uint64_t stamp = epoch_base + d;
    auto& slot_query = step.dpu_slot_query[d];
    auto& dpu_tasks = step.dpu_tasks[d];
    for (const Task& t : tasks) {
      if (tl_dedup_stamp[t.query] != stamp) {
        tl_dedup_stamp[t.query] = stamp;
        tl_dedup_slot[t.query] = static_cast<std::uint32_t>(slot_query.size());
        slot_query.push_back(t.query);
      }
      // The task's precision rung rides in the slot word's top bit; the
      // staged query payload is rung-independent, so dedup stays by query.
      const std::uint32_t rung_bit =
          ladder && t.query < state.query_precision.size() &&
                  state.query_precision[t.query] != 0
              ? kTaskQ4Bit
              : 0u;
      dpu_tasks.push_back({tl_dedup_slot[t.query] | rung_bit, shard_slot_[t.shard]});
      if (rung_bit == 0) {
        step.lut_entries += dpu_shard_regions_[d][shard_slot_[t.shard]].codewords->size();
      }
      step.dpu_task_query[d].push_back(t.query);
      if (!functional) {
        const Shard& sh = layout_->shard(t.shard);
        HostReplayTask& r = step.replay[step.row_off[d] + dpu_tasks.size() - 1];
        r.query = state.quantized[t.query].data();
        r.query_id = t.query;
        r.dead = snapshot_.dead_flags(sh.cluster);
        r.cluster = sh.cluster;
        r.begin = sh.begin;
        r.end = sh.end;
        r.q4 = rung_bit != 0;
      }
    }
    // Staging layout: [queries][outputs], within this step's slot.
    const std::size_t queries_bytes = slot_query.size() * dim * 2;
    const std::size_t output_bytes = tasks.size() * k * sizeof(KernelHit);
    step.dpu_output_off[d] = step.slot_base + ((queries_bytes + 7) & ~std::size_t{7});
    dpu_need[d] = step.dpu_output_off[d] + output_bytes;

    if (fuse_width <= 1) continue;
    step.dpu_groups[d] = plan_task_fusion(dpu_tasks, fuse_width);
    step.fused_groups += step.dpu_groups[d].size();
    for (const FusedTaskGroup& g : step.dpu_groups[d]) {
      if (g.tasks.size() <= 1) continue;
      step.fused_tasks += g.tasks.size();
      const ShardRegion& sh = dpu_shard_regions_[d][g.shard_slot];
      const std::size_t code_size =
          ladder && g.q4 ? data_.code_size_q4() : data_.code_size();
      std::uint64_t bytes = static_cast<std::uint64_t>(sh.size) * code_size;
      // The tombstone-flag stream is also shared by the group.
      if (sh.dead != nullptr) bytes += sh.size;
      step.dc_bytes_saved += (g.tasks.size() - 1) * bytes;
    }
  }

  // Capacity check, serially and before any bytes move (throwing from inside
  // a worker lambda mid-staging left the byte tallies half-updated). The
  // error reports the batch size that would have fit this step's schedule.
  for (std::size_t d = 0; d < num_dpus; ++d) {
    if (dpu_need[d] <= step.slot_base + staging_stride_) continue;
    const std::size_t need = dpu_need[d] - step.slot_base;
    const std::size_t capacity = staging_stride_;
    const std::size_t fresh = step.end - step.begin;
    const std::size_t feasible =
        fresh > 0 ? std::max<std::size_t>(1, fresh * capacity / need) : 0;
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "per-batch staging exceeds MRAM on DPU %zu (%zu bytes needed, "
                  "%zu available); maximum feasible batch_size for this "
                  "workload is about %zu",
                  d, need, capacity, feasible);
    throw std::runtime_error(msg);
  }
  step.hits.resize(step.row_off[num_dpus] * k);
}

void DrimAnnEngine::launch_step(SearchBatchState& state, StepContext& step) {
  const std::size_t dim = data_.dim();
  const std::size_t num_dpus = pim_->num_dpus();
  const std::size_t k = step.k;
  const bool functional = pim_->functional();
  const bool ladder = q4_ready();
  SearchKernelArgs args;
  args.dim = static_cast<std::uint32_t>(dim);
  args.m = static_cast<std::uint32_t>(data_.m());
  args.cb = static_cast<std::uint32_t>(data_.cb_entries());
  args.code_size = static_cast<std::uint32_t>(data_.code_size());
  args.wide_codes = data_.wide_codes();
  args.k = static_cast<std::uint32_t>(k);
  args.sq_lut_offset = sq_lut_off_;
  args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
  args.codebooks_offset = codebooks_off_;
  args.centroids_offset = centroids_off_;
  args.queries_offset = step.slot_base;
  args.use_square_lut = opts_.use_square_lut;
  if (ladder) {
    args.has_q4 = true;
    args.cb4 = static_cast<std::uint32_t>(data_.cb4());
    args.code_size_q4 = static_cast<std::uint32_t>(data_.code_size_q4());
    args.codebooks_q4_offset = codebooks_q4_off_;
  }
  const auto& row_off = step.row_off;
  const auto& dpu_tasks = step.dpu_tasks;
  const auto& dpu_task_query = step.dpu_task_query;
  std::vector<KernelHit>& hits = step.hits;

  // Exact-rerank tail of DPU d's q4 rows: each row's candidates are
  // re-scored with the full-precision ADC LUT on the host and their global
  // ids resolved, so what enters the merge heaps is exact. Rows sharing
  // (query, cluster) — e.g. slices of one cluster — rebuild the table once;
  // rows are rescored independently, so visiting them in (query, cluster)
  // order leaves every row byte-identical to the per-row path.
  const auto rerank_q4_rows = [&](std::size_t d) {
    KernelHit* rows = hits.data() + row_off[d] * k;
    const auto row_shard = [&](std::uint32_t t) -> const Shard& {
      return layout_->shard(dpu_shard_ids_[d][dpu_tasks[d][t].shard_slot]);
    };
    std::vector<std::uint32_t> q4_rows;
    for (std::size_t t = 0; t < dpu_tasks[d].size(); ++t) {
      if (task_is_q4(dpu_tasks[d][t])) q4_rows.push_back(static_cast<std::uint32_t>(t));
    }
    if (q4_rows.empty()) return;
    std::stable_sort(q4_rows.begin(), q4_rows.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (dpu_task_query[d][a] != dpu_task_query[d][b]) {
        return dpu_task_query[d][a] < dpu_task_query[d][b];
      }
      return row_shard(a).cluster < row_shard(b).cluster;
    });
    const std::span<std::uint32_t> lut = rerank_lut_scratch(data_.m() * data_.cb_entries());
    bool lut_valid = false;
    std::uint64_t lut_key = 0;
    for (const std::uint32_t t : q4_rows) {
      const Shard& sh = row_shard(t);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(dpu_task_query[d][t]) << 32) | sh.cluster;
      if (!lut_valid || key != lut_key) {
        host_build_adc_lut(data_, state.quantized[dpu_task_query[d][t]], sh.cluster, lut);
        lut_valid = true;
        lut_key = key;
      }
      host_rerank_q4_row_with_lut(data_, lut, sh, std::span<KernelHit>(rows + t * k, k));
    }
  };

  // One fan-out per step: each DPU's lane pushes its staged queries, runs the
  // kernel, pulls its output block whole (the same bytes billed as per-task
  // pulls) and reranks its q4 rows. Every DPU touches only its own MRAM and
  // rows, and run_batch bills the pushes and pulls made here to this batch,
  // so byte totals and modeled times match staging outside the launch.
  step.batch = pim_->run_batch(
      [&](std::size_t d, DpuContext& ctx) {
        if (dpu_tasks[d].empty()) return;
        const auto& slot_query = step.dpu_slot_query[d];
        for (std::size_t s = 0; s < slot_query.size(); ++s) {
          const auto& qv = state.quantized[slot_query[s]];
          pim_->push(d, step.slot_base + s * dim * 2,
                     {reinterpret_cast<const std::uint8_t*>(qv.data()), dim * 2});
        }
        SearchKernelArgs a = args;
        a.output_offset = step.dpu_output_off[d];
        // One kernel body serves both platforms and every width. At
        // fuse_width 1 no plan ships (empty span): each task runs as its own
        // group with no descriptor table, which is the per-task kernel's
        // exact charge stream, so results and modeled times reproduce the
        // pre-fusion engine bit-for-bit.
        const std::span<const FusedTaskGroup> plan =
            step.dpu_groups.empty() ? std::span<const FusedTaskGroup>()
                                    : std::span<const FusedTaskGroup>(step.dpu_groups[d]);
        if (functional) {
          run_fused_search_kernel(ctx, a, dpu_shard_regions_[d], dpu_tasks[d], plan);
        } else {
          charge_fused_search_kernel(ctx, a, dpu_shard_regions_[d], dpu_tasks[d], plan);
        }
        // On a non-functional platform pull() only bills the bytes; the rows
        // are replayed on the host in the collect stage.
        pim_->pull(d, step.dpu_output_off[d],
                   {reinterpret_cast<std::uint8_t*>(hits.data() + row_off[d] * k),
                    dpu_tasks[d].size() * k * sizeof(KernelHit)});
        if (functional && ladder) rerank_q4_rows(d);
      },
      [&]() {
        // The host replays a non-functional batch cluster-major
        // (host_replay_batch), building each (query, cluster) table once
        // however many slices and DPUs the cluster spans. Rows are
        // byte-identical to the functional kernel's — q4 rows already
        // reranked.
        if (!functional) {
          host_replay_batch(data_, step.replay, static_cast<std::uint32_t>(k), hits);
        }
        // Merge into the shared per-query heaps in parallel across queries:
        // first index every (dpu, task) row per query in the fixed global
        // (dpu, task) order, then each host thread replays only its own
        // queries' rows in that order — the same heap pushes in the same
        // sequence as the serial merge, so tie-breaking is bit-identical,
        // and no heap is touched by two threads.
        const std::size_t id_space = state.accum.size();
        std::vector<std::uint32_t> visit_off(id_space + 1, 0);
        for (std::size_t d = 0; d < num_dpus; ++d) {
          for (const std::uint32_t q : dpu_task_query[d]) ++visit_off[q + 1];
        }
        for (std::size_t q = 0; q < id_space; ++q) visit_off[q + 1] += visit_off[q];
        std::vector<std::uint32_t> visits(visit_off[id_space]);  // flat row ids
        std::vector<std::uint32_t> cursor(visit_off.begin(), visit_off.end() - 1);
        for (std::size_t d = 0; d < num_dpus; ++d) {
          for (std::size_t t = 0; t < dpu_task_query[d].size(); ++t) {
            visits[cursor[dpu_task_query[d][t]]++] =
                static_cast<std::uint32_t>(row_off[d] + t);
          }
        }
        const auto merge_query = [&](std::size_t q) {
          for (std::uint32_t v = visit_off[q]; v < visit_off[q + 1]; ++v) {
            const KernelHit* row = hits.data() + std::size_t{visits[v]} * k;
            for (std::size_t i = 0; i < k; ++i) {
              const KernelHit& h = row[i];
              if (h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu) break;  // pad
              state.accum[q].push(static_cast<float>(h.dist), h.id);
            }
          }
        };
        if (row_off[num_dpus] >= kMinFanOutTasks) {
          parallel_for(0, id_space, merge_query);
        } else {
          for (std::size_t q = 0; q < id_space; ++q) merge_query(q);
        }
      });
}

void DrimAnnEngine::account_step(SearchBatchState& state, StepContext& step,
                                 DrimSearchStats& st) {
  BatchStepStats& s = step.stats;
  const BatchResult& batch = step.batch;
  // Routed queries (cl_external) were located by the caller — the cluster
  // router bills their CL once at the front-end, so the shard step must not
  // bill it again.
  for (std::size_t q = step.begin; q < step.end; ++q) {
    if (q >= state.cl_external.size() || state.cl_external[q] == 0) ++step.cl_queries;
  }
  s.host_cl_seconds = opts_.cl_on_pim ? 0.0 : model_host_cl_seconds(step.cl_queries);
  // Exact-rerank host cost: per q4 task, one full ADC LUT build plus <= k
  // candidate re-scores. Exactly 0 (preserving pre-ladder times) when the
  // step carried no q4 task. Overlapped with the PIM batch like host CL.
  for (const auto& tasks : step.dpu_tasks) {
    s.tasks += tasks.size();
    for (const KernelTask& kt : tasks) {
      if (q4_ready() && task_is_q4(kt)) ++step.q4_tasks;
    }
  }
  s.host_rerank_seconds =
      step.q4_tasks == 0
          ? 0.0
          : static_cast<double>(step.q4_tasks) *
                (static_cast<double>(data_.m() * data_.cb_entries() * data_.dsub()) * 3.0 +
                 static_cast<double>(step.k * data_.m())) /
                opts_.host.flops_per_sec;
  s.pim_batch_seconds = batch.total_seconds();
  s.transfer_in_seconds = batch.transfer_in_seconds;
  s.transfer_out_seconds = batch.transfer_out_seconds;
  s.dpu_seconds = batch.dpu_seconds;
  s.deferred = state.carried.size();

  // Close the step on the timeline, which places its stages around the
  // other steps in flight; step_seconds is the timeline delta the step
  // added, so the deltas sum to the makespan.
  PipelineStageTimes stages;
  stages.transfer_in_seconds = batch.transfer_in_seconds;
  stages.launch_overhead_seconds = batch.launch_overhead_seconds;
  stages.compute_seconds = batch.dpu_seconds;
  stages.transfer_out_seconds = batch.transfer_out_seconds;
  stages.host_seconds = s.host_cl_seconds + s.host_rerank_seconds;
  step.sched = state.pipeline.finish_batch(stages);
  s.submit_seconds = std::max(state.last_complete_seconds, step.sched.submit_seconds);
  s.complete_seconds = step.sched.done_seconds;
  s.step_seconds = s.complete_seconds - s.submit_seconds;
  state.last_complete_seconds = s.complete_seconds;
  ++state.step_index;

  st.total_seconds += s.step_seconds;
  st.host_cl_seconds += s.host_cl_seconds;
  st.host_rerank_seconds += s.host_rerank_seconds;
  fold_launch(batch, st);
  st.tasks += s.tasks;
  st.dc_bytes_saved += step.dc_bytes_saved;
  st.lut_entries_built += step.lut_entries;
  ++st.batches;
  st.batch_seconds.push_back(s.step_seconds);
  // Restamp from the cumulative total so streaming clients (CLI q4 path,
  // cluster shards, serving) see energy without a batch-mode search() wrap.
  st.energy_joules = opts_.energy.pim_energy_joules(opts_.pim, st.total_seconds);
}

void DrimAnnEngine::trace_step(const StepContext& step, const DrimSearchStats& st) {
  if (trace_ == nullptr) return;
  // Every span sits at its scheduled absolute time, so overlapping steps
  // render as overlapping host-link/dpu spans.
  const BatchStepStats& s = step.stats;
  const PipelineSchedule& sched = step.sched;
  if (s.host_cl_seconds > 0.0) {
    trace_->span(trace_->lane("host/cl"), "host-cl", "host", sched.host_start,
                 s.host_cl_seconds, {{"queries", static_cast<double>(step.cl_queries)}});
  }
  if (s.host_rerank_seconds > 0.0) {
    trace_->span(trace_->lane("host/rerank"), "host-rerank", "host",
                 sched.host_start + s.host_cl_seconds, s.host_rerank_seconds,
                 {{"q4_tasks", static_cast<double>(step.q4_tasks)}});
  }
  std::vector<std::size_t> tasks_per_dpu;
  for (const auto& tasks : step.dpu_tasks) tasks_per_dpu.push_back(tasks.size());
  LaunchLayout layout;
  layout.in_start = sched.in_start;
  layout.launch_start = sched.compute_start;
  layout.launch_seconds = step.batch.launch_overhead_seconds;
  layout.kern_start = sched.compute_start + step.batch.launch_overhead_seconds;
  layout.out_start = sched.out_start;
  trace_launch_spans(layout, step.batch, "search", tasks_per_dpu);
  // Fused-group span alongside the search launch's DPU compute, plus the
  // running saved-bytes counter (DESIGN.md §16).
  if (step.fused_groups > 0) {
    trace_->span(trace_->lane("pim/fusion"), "fused-groups", "pim", layout.kern_start,
                 step.batch.dpu_seconds,
                 {{"groups", static_cast<double>(step.fused_groups)},
                  {"fused_tasks", static_cast<double>(step.fused_tasks)},
                  {"dc_bytes_saved", static_cast<double>(step.dc_bytes_saved)}});
    trace_->counter("dc_bytes_saved", s.complete_seconds,
                    {{"bytes", static_cast<double>(st.dc_bytes_saved)}});
  }
  trace_->set_now(s.complete_seconds);
}

double DrimAnnEngine::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                             std::size_t k) const {
  if (num_queries == 0) return 0.0;
  const SchedulerParams p = derive_scheduler_params(
      opts_.pim, data_.dim(), data_.m(), data_.cb_entries(), k, opts_.use_square_lut);
  // LC builds the listed entries (DESIGN.md §17), priced at the layout's
  // mean list size.
  const LutBuildCycles lc = lut_build_cycles(opts_.pim, data_.dim(), data_.m(),
                                             data_.cb_entries(), opts_.use_square_lut);
  // Layout means: a (query, cluster) visit costs one task per slice group,
  // and each task builds the LUT entries its slice's codeword list names.
  const std::size_t nlist = data_.nlist();
  double total_slices = 0.0;
  double total_points = 0.0;
  double total_entries = 0.0;
  for (std::uint32_t c = 0; c < nlist; ++c) {
    const auto& groups = layout_->slice_groups(c);
    total_slices += static_cast<double>(groups.size());
    for (const auto& g : groups) {
      if (g.empty()) continue;
      total_points += layout_->shard(g.front()).size();
      total_entries += static_cast<double>(codeword_lists_[shard_list_[g.front()]].size());
    }
  }
  const double mean_slices = nlist > 0 ? total_slices / static_cast<double>(nlist) : 0.0;
  const double mean_points = total_slices > 0 ? total_points / total_slices : 0.0;
  const double mean_entries = total_slices > 0 ? total_entries / total_slices : 0.0;
  const double tasks = static_cast<double>(num_queries) *
                       static_cast<double>(std::min<std::size_t>(nprobe, nlist)) *
                       mean_slices;
  // Cluster-major fusion amortizes the per-point DC DMA share: the effective
  // width is bounded both by the configured fuse_width and by how many
  // co-cluster tasks a batch statistically offers (num_queries * nprobe
  // visits spread over nlist clusters). At fuse_width 1 the subtrahend is
  // exactly 0.0, so the estimate reproduces the unfused arithmetic
  // bit-for-bit.
  const double fuse_width =
      static_cast<double>(opts_.fuse_width == 0 ? 1 : opts_.fuse_width);
  const double eff = std::min(
      fuse_width,
      std::max(1.0, static_cast<double>(num_queries) *
                        static_cast<double>(std::min<std::size_t>(nprobe, nlist)) /
                        std::max(1.0, static_cast<double>(nlist))));
  const double cycles =
      tasks * (lc.listed(mean_entries) + mean_points * (p.l_calu + p.l_sortu) -
               (1.0 - 1.0 / eff) * mean_points * p.l_dc_dma);
  const PimConfig& cfg = opts_.pim;
  const double dpu_s = cycles / static_cast<double>(cfg.num_dpus) /
                       cfg.effective_ipc() * cfg.seconds_per_cycle();
  const double in_bytes = static_cast<double>(num_queries * data_.dim() * 2);
  const double out_bytes = tasks * static_cast<double>(k * sizeof(KernelHit));
  const double xfer_s = (in_bytes + out_bytes) / cfg.host_link_bytes_per_sec;
  if (pipeline_depth() <= 1) return cfg.launch_overhead_sec + dpu_s + xfer_s;
  // Steady state of a depth >= 2 pipeline: consecutive batches overlap their
  // stages, so each step is paced by the bottleneck resource — the DPU array
  // (barrier overhead + slowest DPU) or the shared half-duplex host link —
  // not by the sum of stages (updated Eq. 15).
  return std::max(cfg.launch_overhead_sec + dpu_s, xfer_s);
}

std::vector<std::vector<Neighbor>> DrimAnnEngine::search(const FloatMatrix& queries,
                                                         std::size_t k, std::size_t nprobe,
                                                         DrimSearchStats* stats,
                                                         Precision precision) {
  const std::size_t nq = queries.count();

  DrimSearchStats local;
  DrimSearchStats& st = stats != nullptr ? *stats : local;
  st = DrimSearchStats{};
  st.per_dpu_seconds.assign(pim_->num_dpus(), 0.0);
  st.index_load_seconds = index_load_seconds_;
  validate_staging(k);

  SearchBatchState state;
  enqueue_queries(state, queries, k, nprobe, precision);

  const std::size_t batch_queries = opts_.batch_size == 0 ? nq : opts_.batch_size;
  while (state.next_query < nq || state.has_deferred()) {
    // The final chunk flushes the filter so nothing is left behind.
    const bool flush = state.next_query + batch_queries >= nq;
    search_batch(state, batch_queries, flush, &st);
  }

  st.energy_joules = opts_.energy.pim_energy_joules(opts_.pim, st.total_seconds);

  std::vector<std::vector<Neighbor>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    results[q] = state.take_results(static_cast<std::uint32_t>(q));
  }
  return results;
}

}  // namespace drim
