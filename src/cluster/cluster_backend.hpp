#pragma once
// The multi-shard cluster-serving tier (DESIGN.md §13): a ShardRouter
// front-end behind the AnnBackend seam, owning N shard backends (each an
// AnnBackend over its own PimPlatform). The IVF index is partitioned across
// shards by cluster (ShardPlan: the paper's heat-balancing greedy allocation
// at the inter-shard level, hottest replication_fraction of clusters
// replicated), each query is routed only to the shards owning its probed
// clusters, and partial top-k lists are merged at the router with
// deterministic fixed-order merges and replica dedup. Dispatch is
// load-aware: a replicated cluster is served by the least-loaded live owner
// (the Eq. 15 delay predictor extended with per-shard queue depth). Drained
// shards stop accepting dispatches; clusters with no live owner degrade to a
// host-side exact fallback (host_exact), so no query is ever dropped.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backend/ann_backend.hpp"
#include "backend/cpu_backend.hpp"
#include "cluster/shard_plan.hpp"
#include "core/ivf.hpp"
#include "drim/engine.hpp"
#include "drim/pim_index.hpp"

namespace drim::cluster {

/// Router/cluster-tier knobs.
struct ClusterOptions {
  std::size_t num_shards = 1;
  /// Fraction of hottest clusters replicated across shards (ShardPlan).
  double replication_fraction = 0.10;
  /// Extra owners per replicated cluster (clamped to num_shards - 1).
  std::size_t replica_copies = 1;
  /// Dispatch replicated clusters to EVERY live owner instead of the least
  /// loaded one. Redundant work, but each owner returns the same (dist, id)
  /// hits, so the router's replica dedup collapses them — the knob exists to
  /// exercise (and test) dedup under real duplicate traffic.
  bool hedge_replicas = false;
  /// Queries consumed per router step in closed-loop search() (0 = all).
  std::size_t search_batch_size = 0;
  /// Modeled host memory bandwidth for the exact-scan fallback path
  /// (bytes/s over cluster codes + ids).
  double fallback_bytes_per_sec = 80e9;
};

/// ShardRouter behind the backend seam. With num_shards == 1 the router is a
/// strict passthrough to its single shard (bit-identical results AND modeled
/// times, at any pipeline depth); with more shards it runs the routed
/// protocol: locate clusters once at the front-end, enqueue_routed() the
/// owned subsets per shard, step the shards concurrently up to a barrier,
/// merge on take.
class ClusterBackend final : public AnnBackend {
 public:
  /// Rebuilds one shard backend from the current snapshot and its (possibly
  /// extended) ownership mask — recovery re-homes clusters this way.
  using ShardFactory = std::function<std::unique_ptr<AnnBackend>(
      std::uint32_t shard, const IndexSnapshot& snapshot,
      const std::vector<std::uint8_t>& owned_mask)>;

  /// `index` must outlive the backend (cluster location + fallback scans);
  /// internally it is held as a non-owning root snapshot, replaced wholesale
  /// by stage_snapshot(). `shards.size()` must equal `plan.num_shards()`;
  /// every shard must support routed enqueue when there is more than one.
  ClusterBackend(const IvfPqIndex& index, ShardPlan plan,
                 std::vector<std::unique_ptr<AnnBackend>> shards,
                 const ClusterOptions& options);

  std::string name() const override;
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& queries, std::size_t k,
                                            std::size_t nprobe) override;

  void reset_stream() override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe, Precision precision) override;
  BackendStepStats step(std::size_t max_queries, bool flush) override;
  std::size_t pipeline_depth() const override;
  void set_step_start(double submit_seconds) override;
  bool has_deferred() const override;
  std::size_t deferred_count() const override;
  void set_trace(obs::TraceRecorder* trace) override;
  bool finished(std::uint32_t handle) const override;
  std::vector<Neighbor> take_results(std::uint32_t handle) override;
  std::size_t stream_depth() const override;

  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override;
  BackendStats stats() const override;
  std::vector<ShardHealth> shard_health() const override;

  // ---- mutable-index support (DESIGN.md §14) ----
  bool supports_updates() const override;
  /// Flush every in-flight routed query through the CURRENT version (their
  /// answers must match a cold rebuild of the old logical state), extend the
  /// plan for the delta's splits (child inherits its parent's owners), then
  /// fan the install out to every shard. Returns the modeled install cost:
  /// shards install in parallel, so the max over shards.
  double stage_snapshot(const IndexSnapshot& snapshot,
                        const PublishDelta& delta) override;
  /// Flush, then let every shard re-plan its intra-array layout from its
  /// observed probe traffic. Parallel across shards: max cost.
  double stage_relayout() override;
  std::uint64_t snapshot_version() const override { return snapshot_.version; }

  // ---- cluster-tier control plane ----
  /// Drain (or undrain) one shard: a draining shard accepts no new
  /// dispatches but still executes work already queued on it, so in-flight
  /// queries complete normally. Clusters whose owners are all draining fall
  /// back to the host-side exact scan. Drain flags survive reset_stream()
  /// (they model node state, not stream state). Throws std::logic_error in
  /// single-shard passthrough mode.
  void set_shard_drained(std::uint32_t shard, bool drained);
  bool shard_drained(std::uint32_t shard) const { return drained_[shard] != 0; }

  /// What one recover_shard() call re-homed, with its modeled cost.
  struct RecoveryReport {
    std::size_t clusters_rehomed = 0;  ///< clusters that regained a live owner
    std::size_t rebuilt_shards = 0;    ///< survivors rebuilt with wider masks
    std::size_t moved_bytes = 0;       ///< re-homed cluster codes + ids
    double seconds = 0.0;              ///< moved_bytes at fallback bandwidth
  };

  /// Failure recovery for a drained shard: every cluster it owns that has no
  /// remaining live owner is re-replicated onto the least-loaded live
  /// survivor (lowest shard id on ties), and each affected survivor's
  /// backend is rebuilt from the current snapshot with its extended
  /// ownership mask (requires a shard factory — make_cluster_backend wires
  /// one). In-flight queries are flushed first and their finished partials
  /// stashed, so nothing is dropped. Fallback health counters reset to zero:
  /// the degraded path is closed once every cluster has a live owner again.
  /// Throws std::logic_error in passthrough mode, when the shard is not
  /// drained, or when no live survivor exists.
  RecoveryReport recover_shard(std::uint32_t failed);

  /// Install the factory recover_shard() uses to rebuild survivor backends.
  void set_shard_factory(ShardFactory factory) { shard_factory_ = std::move(factory); }

  const ShardPlan& plan() const { return plan_; }
  std::size_t num_shards() const { return shards_.size(); }
  AnnBackend& shard(std::uint32_t s) { return *shards_[s]; }

 private:
  struct RouterQuery {
    std::vector<float> values;
    std::uint32_t k = 0;
    std::uint32_t nprobe = 0;
    /// Requested precision rung, forwarded to every shard dispatch (shards
    /// without a ladder ignore it via the seam's default).
    Precision precision = Precision::kFull;
    /// (shard, shard-local handle) of each partial dispatched for this query.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parts;
    /// Host-exact hits for probed clusters with no live owner.
    std::vector<Neighbor> fallback_hits;
    bool dispatched = false;
    bool taken = false;
  };

  bool passthrough() const { return shards_.size() == 1; }
  void maybe_compact();
  /// The one per-shard loop (DESIGN.md §13): runs body(s) for every shard
  /// under a single parallel_for over shards, each shard's engine loops
  /// inline on its lane. While tracing, shard s emits into its private
  /// recorder with the cursor at the router's now(); after the barrier the
  /// recorders are spliced into the router's in shard order under "shardN/"
  /// lane prefixes. Callers fold per-shard results serially in shard order
  /// afterwards. If bodies threw, rethrows the lowest shard's exception.
  void for_each_shard(const std::function<void(std::uint32_t)>& body);
  /// Exact-scan one whole cluster on the host for every query in `members`
  /// at search depth `k` (tombstone-aware: the snapshot's dead flags filter
  /// before the top-k, like the kernels), appending each member's hits to
  /// its q.fallback_hits. Coalesced like the kernels' cluster-major fusion
  /// (DESIGN.md §16): the cluster's code + id block is pulled ONCE per step
  /// instead of once per query, so the returned modeled seconds bill one
  /// stream regardless of member count; the avoided re-pulls are added to
  /// stats_.dc_bytes_saved.
  double fallback_scan_group(std::uint32_t cluster, std::uint32_t k,
                             std::span<RouterQuery*> members);
  /// Step every shard with flush until no routed work is deferred, so every
  /// dispatched partial is finished (install/recovery precondition).
  void flush_all();
  /// Take shard `s`'s finished partials into their queries' stashes — its
  /// handles are about to die with a backend rebuild. The merge sorts, so
  /// stash order does not affect results.
  void stash_partials(std::uint32_t s);

  const IvfPqIndex& index() const { return *snapshot_.index; }

  IndexSnapshot snapshot_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<AnnBackend>> shards_;
  ClusterOptions opts_;

  std::vector<std::uint8_t> drained_;
  std::vector<ShardHealth> health_;

  // Routed-mode stream state (mirrors CpuBackend's handle compaction).
  std::vector<RouterQuery> queries_;
  std::size_t next_query_ = 0;     ///< first query no step has dispatched
  std::uint32_t handle_base_ = 0;  ///< external handle of queries_[0]
  std::size_t live_handles_ = 0;   ///< enqueued but not yet taken back

  BackendStats stats_;
  double submit_hint_seconds_ = 0.0;
  double last_complete_seconds_ = 0.0;
  obs::TraceRecorder* trace_ = nullptr;
  /// Shard s's private trace sink in routed mode (see for_each_shard).
  std::vector<obs::TraceRecorder> shard_traces_;

  /// Quantized-index copy for the fallback exact scan, built on first use
  /// (only drain scenarios pay for it); invalidated by stage_snapshot().
  mutable std::unique_ptr<PimIndexData> fallback_data_;

  ShardFactory shard_factory_;  ///< rebuilds survivors during recovery
};

/// Construct a cluster backend over `index`: plans the shard assignment from
/// the sample-query heat estimate, builds one shard backend per shard (kDrim
/// with LayoutParams::owned_clusters masked to the shard's clusters; each
/// shard gets its own engine_options.pim.num_dpus DPUs), and wires them
/// behind a router. With cluster_options.num_shards == 1 the single shard
/// owns every cluster and the router is a passthrough. kCpu is only valid at
/// num_shards == 1 (the CPU baseline cannot restrict its probe set).
std::unique_ptr<AnnBackend> make_cluster_backend(
    BackendKind kind, const IvfPqIndex& index, const FloatMatrix& sample_queries,
    const DrimEngineOptions& engine_options, const ClusterOptions& cluster_options,
    const CpuBackendOptions& cpu_options = {});

}  // namespace drim::cluster
