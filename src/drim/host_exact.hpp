#pragma once
// Host-side bit-exact replay of the DPU kernels' integer pipeline. The
// analytic platform never materializes MRAM, so it cannot run the functional
// kernels; instead the engine computes each scheduled task's results here —
// same int16 operands, same uint32 wraparound arithmetic, same (distance,
// local index) tie-breaking — and uses the platform only for cycle/transfer
// billing. Results are therefore identical to the functional simulator's
// (pinned by tests/test_platforms.cpp) while recall stays real at paper
// scale.

#include <cstdint>
#include <span>
#include <vector>

#include "drim/kernels.hpp"
#include "drim/layout.hpp"
#include "drim/pim_index.hpp"

namespace drim {

/// Exact hits of one search task (query x shard): ascending (distance, local
/// index) under the kernel's total order, winners' global base-point ids
/// resolved, sentinel-padded to k entries — byte-for-byte what
/// the search kernel writes for the task. Writes straight into the caller's
/// k-entry output row (the engine's collect path hands each task its slice
/// of the pulled block, so the hot loop allocates nothing per task).
/// `dead`, when non-null, holds the cluster's positional tombstone flags
/// (indexed by shard.begin + local point, exactly the kernel's ShardRegion
/// view): dead entries are skipped before the bounded top-k, so they never
/// surface and never evict live candidates — the replay stays byte-for-byte
/// equal to the functional kernel under the same snapshot.
void host_search_task_into(const PimIndexData& data,
                           std::span<const std::int16_t> query, const Shard& shard,
                           std::uint32_t k, std::span<KernelHit> out,
                           const std::uint8_t* dead = nullptr);

/// One member of a coalesced (cluster-major) host scan: a quantized query
/// (dim int16 values) paired with its k-entry output row.
struct HostFusedTask {
  const std::int16_t* query = nullptr;
  KernelHit* out = nullptr;
};

/// Coalesced replay of `tasks.size()` search tasks that all scan the SAME
/// shard: builds every member's LUT, then walks the shard's codes in
/// cache-sized tiles, scoring each tile against all members before
/// advancing — the shard's code block is pulled once per batch instead of
/// once per query (DESIGN.md §16). Each member keeps its own LUT, bounded
/// top-k, and ascending point order, so every output row is byte-identical
/// to the corresponding single-task host_search_task_into /
/// host_search_task_q4_into call. `q4` selects the rung for ALL members
/// (callers group by (shard, rung)); q4 rows keep LOCAL indices, exactly
/// like the single-task q4 replay.
void host_search_tasks_fused_into(const PimIndexData& data,
                                  std::span<const HostFusedTask> tasks,
                                  const Shard& shard, std::uint32_t k, bool q4,
                                  const std::uint8_t* dead = nullptr);

/// One search task of a whole-batch replay (host_replay_batch): a quantized
/// query, the slice [begin, end) of one cluster it scans, and its rung.
struct HostReplayTask {
  const std::int16_t* query = nullptr;  ///< dim int16 values
  /// Identity of the query: tasks with equal ids carry the same `query`
  /// values and share its tables. Ids should be dense — the replay
  /// counting-sorts over [min id, max id].
  std::uint32_t query_id = 0;
  std::uint32_t cluster = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  /// The cluster's positional tombstone flags, or null (see
  /// host_search_task_into).
  const std::uint8_t* dead = nullptr;
  bool q4 = false;
};

/// Cluster-major replay of a whole batch's search tasks (DESIGN.md §10):
/// tasks from every DPU are ordered by (cluster, query), each distinct
/// (query, cluster) pair builds its full-precision ADC table — and, for q4
/// tasks, its coarse table — ONCE, and every slice the query has a task on
/// is scanned against it, queries sharing a slice walking its codes together
/// tile by tile. Task i's result goes to the k-entry row rows[i*k, i*k + k).
/// Full-rung rows are byte-identical to host_search_task_into; q4 rows come
/// back already reranked, byte-identical to host_search_task_q4_into
/// followed by host_rerank_q4_row. Work items of
/// up to 8 queries of one cluster fan out across host threads, each
/// building its tables in per-thread scratch, so memory is bounded by
/// threads x 8 x m x cb x 4 bytes, never by batch size or nprobe. Every row
/// is written by exactly one item, so results do not depend on the thread
/// count or on the order of `tasks`.
void host_replay_batch(const PimIndexData& data,
                       std::span<const HostReplayTask> tasks, std::uint32_t k,
                       std::span<KernelHit> rows);

/// Build the full-precision exact ADC table for (query, cluster): the RC +
/// LC front end of host_search_task_into (kernels().adc_lut_u32), factored
/// out so the q4 rerank tail prices candidates with the identical integer
/// pipeline. `lut` must hold m * cb_entries uint32 values.
void host_build_adc_lut(const PimIndexData& data,
                        std::span<const std::int16_t> query,
                        std::uint32_t cluster, std::span<std::uint32_t> lut);

/// Bit-exact replay of the 4-bit rung of the search kernel for one task:
/// shifted residual, coarse cb4-entry sub-LUTs, packed dual-nibble code
/// scan. Output rows carry LOCAL shard indices (the kernel skips id
/// resolution on this rung); host_rerank_q4_row turns them into final
/// (exact distance, global id) rows. Requires data.has_q4().
void host_search_task_q4_into(const PimIndexData& data,
                              std::span<const std::int16_t> query,
                              const Shard& shard, std::uint32_t k,
                              std::span<KernelHit> out,
                              const std::uint8_t* dead = nullptr);

/// The q4 rung's exact-rerank tail: re-score a q4 result row's local-index
/// candidates with the full-precision ADC table, resolve global base-point
/// ids, and rewrite the row ascending by (exact distance, id), sentinel-
/// padded. The row becomes directly mergeable with full-rung rows.
void host_rerank_q4_row(const PimIndexData& data,
                        std::span<const std::int16_t> query, const Shard& shard,
                        std::span<KernelHit> row);

/// host_rerank_q4_row with a caller-provided full-precision ADC table for
/// (query, shard.cluster) — `lut` must be host_build_adc_lut's output for
/// that pair. Lets batch collect paths rebuild the table once per
/// (query, cluster) instead of once per row; rows are rescored
/// independently, so results are byte-identical to the rebuilding variant.
void host_rerank_q4_row_with_lut(const PimIndexData& data,
                                 std::span<const std::uint32_t> lut,
                                 const Shard& shard, std::span<KernelHit> row);

/// Exact per-DPU CL candidates of one query over the centroid range
/// [centroid_begin, centroid_begin + centroid_count): top-`keep` by
/// (distance, global centroid id), sentinel-padded to keep — what
/// run_cl_kernel writes for the query's output row. Writes into the caller's
/// keep-entry output row.
void host_cl_candidates_into(const PimIndexData& data,
                             std::span<const std::int16_t> query,
                             std::uint32_t centroid_begin,
                             std::uint32_t centroid_count, std::uint32_t keep,
                             std::span<KernelHit> out);

}  // namespace drim
