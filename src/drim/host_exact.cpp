#include "drim/host_exact.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "core/distances.hpp"

namespace drim {
namespace {

/// Codes per scan tile: small enough to stay cache-resident while a tile is
/// scored against every member of a shared scan. Tiling never changes a
/// member's per-point distances or its ascending push order.
constexpr std::uint32_t kTile = 2048;

/// Distinct queries one host_replay_batch work item builds tables for:
/// bounds the per-thread table scratch at kReplayChunk * m * cb * 4 bytes
/// (plus the q4 tables).
constexpr std::size_t kReplayChunk = 8;

bool is_pad(const KernelHit& h) {
  return h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu;
}

bool hit_less(const KernelHit& a, const KernelHit& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

/// One member of a shared slice scan: the table it scores with, its output
/// row, and — on the q4 rung — the full-precision table its survivors are
/// reranked with (null: the row keeps LOCAL indices).
struct Lane {
  const std::uint32_t* lut = nullptr;
  std::span<KernelHit> out;
  const std::uint32_t* rerank_lut = nullptr;
};

/// A replay work item's task: its position in the item and the index of its
/// query among the item's members.
struct ReplayEntry {
  std::uint32_t pos = 0;
  std::uint32_t member = 0;
};

/// Per-thread scratch of every host replay entry point, so the collect hot
/// loop allocates nothing per task. Entry points never nest, so one
/// instance per thread suffices.
struct Scratch {
  std::vector<std::uint32_t> lut;   ///< full-precision tables
  std::vector<std::uint32_t> lut4;  ///< q4 byte-pair tables
  std::vector<std::uint32_t> lut4_rows;  ///< one query's coarse q4 rows
  std::vector<std::uint32_t> dists; ///< one tile's distances
  std::vector<std::uint64_t> keys;  ///< one bounded top-k per lane
  std::vector<BoundedTopK> topk;
  std::vector<Lane> lanes;
  std::vector<ReplayEntry> entries;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// One bounded top-k per lane, each over its own kk-key slot of the key
/// scratch.
BoundedTopK* lane_topk(Scratch& s, std::size_t lanes, std::uint32_t kk) {
  std::uint64_t* storage = scratch_buffer(s.keys, lanes * kk);
  BoundedTopK* topk = scratch_buffer(s.topk, lanes);
  for (std::size_t w = 0; w < lanes; ++w) topk[w] = BoundedTopK(storage + w * kk, kk);
  return topk;
}

/// DC + TS of every lane over `shard`'s codes on one rung. Full-rung rows
/// get global ids, exactly the search kernel's. Q4 lanes score the packed
/// 4-bit codes with byte-pair tables (build_q4_lut), one lookup per byte
/// like the kernel, and keep LOCAL indices unless the lane carries a rerank
/// table.
void scan(const PimIndexData& data, const Shard& shard, bool q4,
          const std::uint8_t* dead, std::uint32_t k, std::span<const Lane> lanes,
          Scratch& s) {
  const std::size_t entries = q4 ? 256 : data.cb_entries();
  const std::size_t lookups = q4 ? data.code_size_q4() : data.m();
  const std::size_t stride = q4 ? data.code_size_q4() : data.code_size();
  const std::uint32_t size = shard.size();
  const std::uint32_t kk = std::min<std::uint32_t>(k, std::max<std::uint32_t>(size, 1));
  BoundedTopK* topk = lane_topk(s, lanes.size(), kk);
  std::uint32_t* dists = scratch_buffer(s.dists, std::min(size, kTile));
  const auto codes =
      q4 ? data.cluster_codes_q4(shard.cluster) : data.cluster_codes(shard.cluster);
  for (std::uint32_t t0 = 0; t0 < size; t0 += kTile) {
    const std::uint32_t n = std::min(kTile, size - t0);
    const std::uint8_t* tile = codes.data() + (shard.begin + t0) * stride;
    for (std::size_t w = 0; w < lanes.size(); ++w) {
      kernels().adc_scan_u32(lanes[w].lut, entries, lookups, tile, stride,
                             !q4 && data.wide_codes(), n, dists);
      for (std::uint32_t i = 0; i < n; ++i) {
        // Tombstoned positions never enter the bounded top-k.
        if (dead && dead[shard.begin + t0 + i]) continue;
        topk[w].push(dists[i], t0 + i);
      }
    }
  }
  const auto ids = data.cluster_ids(shard.cluster);
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    topk[w].sorted_into(lanes[w].out);  // sentinel-pads short shards
    if (q4) {
      if (lanes[w].rerank_lut != nullptr) {
        host_rerank_q4_row_with_lut(
            data, {lanes[w].rerank_lut, data.m() * data.cb_entries()}, shard,
            lanes[w].out);
      }
      continue;
    }
    for (KernelHit& h : lanes[w].out) {
      if (is_pad(h)) break;
      h.id = ids[shard.begin + h.id];
    }
  }
}

/// Size of one q4 byte-pair table (build_q4_lut's output).
std::size_t q4_table_size(const PimIndexData& data) {
  return data.code_size_q4() * 256;
}

/// RC + LC of the 4-bit rung, exactly the kernel's: the cb4-entry coarse
/// rows of every subquantizer (q4_lut_row, over the cluster's shifted
/// residual), folded into byte-pair tables (q4_fold_pairs). `pair_lut`
/// holds q4_table_size(data) values.
void build_q4_lut(const PimIndexData& data, const std::int16_t* query,
                  std::uint32_t cluster, std::uint32_t* pair_lut, Scratch& s) {
  const std::size_t m = data.m();
  const std::size_t dsub = data.dsub();
  const std::size_t cb4 = data.cb4();
  const std::uint32_t shift = data.cluster_shift(cluster);
  const std::int16_t* centroid = data.centroid(cluster).data();
  const std::int16_t* books = data.codebooks_q4().data();
  std::uint32_t* lut4 = scratch_buffer(s.lut4_rows, m * cb4);
  for (std::size_t sub = 0; sub < m; ++sub) {
    q4_lut_row(query + sub * dsub, centroid + sub * dsub, books + sub * cb4 * dsub, dsub,
               cb4, shift, lut4 + sub * cb4);
  }
  q4_fold_pairs(lut4, m, cb4, pair_lut);
}

/// One work item of host_replay_batch: `items` indexes tasks of ONE cluster,
/// grouped by query id, with at most kReplayChunk distinct queries. Builds each
/// query's tables once, then scans every (slice, rung) group of the item's
/// tasks with all of its members at once.
void replay_chunk(const PimIndexData& data, std::span<const HostReplayTask> tasks,
                  std::span<const std::uint32_t> items, std::uint32_t k,
                  KernelHit* rows) {
  Scratch& s = scratch();
  const std::size_t table = data.m() * data.cb_entries();
  const std::size_t table4 = q4_table_size(data);
  const std::uint32_t cluster = tasks[items.front()].cluster;

  // Members: the item's distinct queries. Every member needs its full
  // table (full tasks scan with it, q4 tasks rerank with it); members with
  // q4 tasks also get the coarse one.
  std::uint32_t* luts = scratch_buffer(s.lut, kReplayChunk * table);
  std::uint32_t* luts4 = nullptr;
  ReplayEntry* entries = scratch_buffer(s.entries, items.size());
  bool any_q4 = false;
  std::uint32_t member = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const HostReplayTask& t = tasks[items[i]];
    const bool new_member = i == 0 || t.query_id != tasks[items[i - 1]].query_id;
    if (i > 0 && new_member) ++member;
    if (new_member) {
      host_build_adc_lut(data, {t.query, data.dim()}, cluster,
                         {luts + member * table, table});
    }
    entries[i] = {static_cast<std::uint32_t>(i), member};
    any_q4 |= t.q4;
  }
  if (any_q4) {
    luts4 = scratch_buffer(s.lut4, kReplayChunk * table4);
    std::uint32_t built = ~0u;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const HostReplayTask& t = tasks[items[i]];
      if (t.q4 && entries[i].member != built) {
        built = entries[i].member;
        build_q4_lut(data, t.query, cluster, luts4 + built * table4, s);
      }
    }
  }

  // Group the item's tasks by (slice, rung, tombstones): each group walks
  // its codes once for all of its members.
  const auto task_of = [&](const ReplayEntry& e) -> const HostReplayTask& {
    return tasks[items[e.pos]];
  };
  const auto same_scan = [](const HostReplayTask& a, const HostReplayTask& b) {
    return a.begin == b.begin && a.end == b.end && a.q4 == b.q4 && a.dead == b.dead;
  };
  std::sort(entries, entries + items.size(),
            [&](const ReplayEntry& x, const ReplayEntry& y) {
              const HostReplayTask& a = task_of(x);
              const HostReplayTask& b = task_of(y);
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.end != b.end) return a.end < b.end;
              if (a.q4 != b.q4) return a.q4 < b.q4;
              if (a.dead != b.dead) return std::less<const std::uint8_t*>()(a.dead, b.dead);
              return x.pos < y.pos;
            });
  for (std::size_t g0 = 0; g0 < items.size();) {
    const HostReplayTask& head = task_of(entries[g0]);
    std::size_t g1 = g0 + 1;
    while (g1 < items.size() && same_scan(task_of(entries[g1]), head)) ++g1;
    Lane* lanes = scratch_buffer(s.lanes, g1 - g0);
    for (std::size_t j = g0; j < g1; ++j) {
      const std::uint32_t w = entries[j].member;
      Lane& lane = lanes[j - g0];
      lane.out = std::span<KernelHit>(rows + std::size_t{items[entries[j].pos]} * k, k);
      lane.lut = head.q4 ? luts4 + w * table4 : luts + w * table;
      lane.rerank_lut = head.q4 ? luts + w * table : nullptr;
    }
    Shard slice;
    slice.cluster = cluster;
    slice.begin = head.begin;
    slice.end = head.end;
    scan(data, slice, head.q4, head.dead, k, {lanes, g1 - g0}, s);
    g0 = g1;
  }
}

}  // namespace

void host_search_task_into(const PimIndexData& data,
                           std::span<const std::int16_t> query, const Shard& shard,
                           std::uint32_t k, std::span<KernelHit> out,
                           const std::uint8_t* dead) {
  Scratch& s = scratch();
  const std::size_t table = data.m() * data.cb_entries();
  std::uint32_t* lut = scratch_buffer(s.lut, table);
  host_build_adc_lut(data, query, shard.cluster, {lut, table});
  const Lane lane{lut, out, nullptr};
  scan(data, shard, false, dead, k, {&lane, 1}, s);
}

void host_search_tasks_fused_into(const PimIndexData& data,
                                  std::span<const HostFusedTask> tasks,
                                  const Shard& shard, std::uint32_t k, bool q4,
                                  const std::uint8_t* dead) {
  if (tasks.empty()) return;
  Scratch& s = scratch();
  const std::size_t width = tasks.size();
  const std::size_t table = q4 ? q4_table_size(data) : data.m() * data.cb_entries();
  std::uint32_t* luts = scratch_buffer(q4 ? s.lut4 : s.lut, width * table);
  Lane* lanes = scratch_buffer(s.lanes, width);
  for (std::size_t w = 0; w < width; ++w) {
    std::uint32_t* lut = luts + w * table;
    if (q4) {
      build_q4_lut(data, tasks[w].query, shard.cluster, lut, s);
    } else {
      host_build_adc_lut(data, {tasks[w].query, data.dim()}, shard.cluster,
                         {lut, table});
    }
    lanes[w] = {lut, std::span<KernelHit>(tasks[w].out, k), nullptr};
  }
  scan(data, shard, q4, dead, k, {lanes, width}, s);
}

void host_replay_batch(const PimIndexData& data,
                       std::span<const HostReplayTask> tasks, std::uint32_t k,
                       std::span<KernelHit> rows) {
  const std::size_t n = tasks.size();
  if (n == 0) return;

  // Order the tasks by (cluster, query id): a stable counting sort by query
  // id, then one by cluster, leaves every (query, cluster) pair's tasks
  // contiguous.
  std::uint32_t qmin = tasks[0].query_id;
  std::uint32_t qmax = qmin;
  for (const HostReplayTask& t : tasks) {
    qmin = std::min(qmin, t.query_id);
    qmax = std::max(qmax, t.query_id);
  }
  const std::size_t nlist = data.nlist();
  std::vector<std::uint32_t> count;
  const auto counting_sort = [&](const std::vector<std::uint32_t>& in, std::size_t keys,
                                 const auto& key, std::vector<std::uint32_t>& out) {
    count.assign(keys + 1, 0);
    for (const std::uint32_t t : in) ++count[key(t) + 1];
    for (std::size_t b = 0; b < keys; ++b) count[b + 1] += count[b];
    out.resize(in.size());
    for (const std::uint32_t t : in) out[count[key(t)]++] = t;
  };
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> by_query;
  counting_sort(order, std::size_t{qmax} - qmin + 1,
                [&](std::uint32_t t) { return tasks[t].query_id - qmin; }, by_query);
  counting_sort(by_query, nlist, [&](std::uint32_t t) { return tasks[t].cluster; },
                order);

  // Cut the order into work items: a new item at every cluster change and
  // after every kReplayChunk distinct queries of one cluster.
  std::vector<std::uint32_t> cuts;
  std::size_t queries = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const HostReplayTask& t = tasks[order[p]];
    const HostReplayTask* prev = p > 0 ? &tasks[order[p - 1]] : nullptr;
    if (prev == nullptr || prev->cluster != t.cluster) {
      queries = 0;
    } else if (prev->query_id == t.query_id) {
      continue;
    }
    if (queries++ % kReplayChunk == 0) cuts.push_back(static_cast<std::uint32_t>(p));
  }
  cuts.push_back(static_cast<std::uint32_t>(n));

  parallel_for(0, cuts.size() - 1, [&](std::size_t i) {
    replay_chunk(data, tasks,
                 std::span<const std::uint32_t>(order.data() + cuts[i],
                                                cuts[i + 1] - cuts[i]),
                 k, rows.data());
  });
}

void host_build_adc_lut(const PimIndexData& data,
                        std::span<const std::int16_t> query,
                        std::uint32_t cluster, std::span<std::uint32_t> lut) {
  kernels().adc_lut_u32(query.data(), data.centroid(cluster).data(),
                        data.codebooks().data(), data.m(), data.dsub(),
                        data.cb_entries(), lut.data());
}

void host_search_task_q4_into(const PimIndexData& data,
                              std::span<const std::int16_t> query,
                              const Shard& shard, std::uint32_t k,
                              std::span<KernelHit> out,
                              const std::uint8_t* dead) {
  Scratch& s = scratch();
  std::uint32_t* lut4 = scratch_buffer(s.lut4, q4_table_size(data));
  build_q4_lut(data, query.data(), shard.cluster, lut4, s);
  const Lane lane{lut4, out, nullptr};
  scan(data, shard, true, dead, k, {&lane, 1}, s);
}

void host_rerank_q4_row(const PimIndexData& data,
                        std::span<const std::int16_t> query, const Shard& shard,
                        std::span<KernelHit> row) {
  const std::size_t table = data.m() * data.cb_entries();
  std::uint32_t* lut = scratch_buffer(scratch().lut, table);
  host_build_adc_lut(data, query, shard.cluster, {lut, table});
  host_rerank_q4_row_with_lut(data, {lut, table}, shard, row);
}

void host_rerank_q4_row_with_lut(const PimIndexData& data,
                                 std::span<const std::uint32_t> lut,
                                 const Shard& shard, std::span<KernelHit> row) {
  const std::size_t m = data.m();
  const std::size_t cb = data.cb_entries();
  const auto codes = data.cluster_codes(shard.cluster);
  const auto ids = data.cluster_ids(shard.cluster);
  std::size_t n = 0;
  for (KernelHit& h : row) {
    if (is_pad(h)) break;
    const std::size_t pos = shard.begin + h.id;
    std::uint32_t dist = 0;
    for (std::size_t sub = 0; sub < m; ++sub) {
      dist += lut[sub * cb + data.code_at(codes, pos, sub)];
    }
    h = {dist, ids[pos]};
    ++n;
  }
  std::sort(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(n), hit_less);
}

void host_cl_candidates_into(const PimIndexData& data,
                             std::span<const std::int16_t> query,
                             std::uint32_t centroid_begin,
                             std::uint32_t centroid_count, std::uint32_t keep,
                             std::span<KernelHit> out) {
  const std::size_t dim = data.dim();
  BoundedTopK topk(scratch_buffer(scratch().keys, keep), keep);
  for (std::uint32_t c = 0; c < centroid_count; ++c) {
    const std::uint32_t global = centroid_begin + c;
    const auto centroid = data.centroid(global);
    std::uint32_t dist = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      const std::int32_t diff = static_cast<std::int32_t>(query[d]) - centroid[d];
      const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
      dist += a * a;
    }
    topk.push(dist, global);
  }
  topk.sorted_into(out);
}

}  // namespace drim
