#ifndef DTRACE_CORE_SHARDED_INDEX_H_
#define DTRACE_CORE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "core/shard_router.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/status.h"

namespace dtrace {

struct LoadedShardedIndex;  // below

/// Stable shard assignment: a splitmix64 finalizer over the 64-bit-widened
/// entity id, reduced mod `num_shards`. A pure function of (entity id,
/// num_shards) — independent of thread counts, insertion order, build mode
/// (streamed or not), and process state — so the shard map never silently
/// drifts between runs or replicas. shard_map_test pins sample values.
uint32_t ShardOfEntity(EntityId e, uint32_t num_shards);

/// Deterministic top-k merge of per-shard query results: items from every
/// shard are ranked by (score descending, entity id ascending) — exactly
/// the single-tree TopKHeap order, so ties across shards resolve the same
/// way they would inside one tree — and truncated to k (k = 0 yields an
/// empty result; k beyond the union keeps everything). Shards partition the
/// entity space, so ids never collide across inputs and the merge needs no
/// deduplication. Counter stats (nodes_visited, entities_checked,
/// heap_pushes, hash_evals, shards_pruned, router_bound_evals,
/// threshold_updates), work_seconds, and TraceIoStats sum across shards.
/// elapsed_seconds also sums, but callers measuring the wall time of a
/// parallel fan-out overwrite it — the summed per-shard work stays
/// available in work_seconds.
TopKResult MergeShardTopK(std::span<const TopKResult> shard_results, int k);

/// Construction knobs for a ShardedIndex.
struct ShardedIndexOptions {
  /// Number of shards (>= 1). Each shard owns a full DigitalTraceIndex
  /// (hash family + MinSigTree) over its entity partition.
  int num_shards = 4;
  /// Per-shard index configuration. Every shard uses the same hash-family
  /// seed, so per-candidate scores are bit-identical to a single-shard
  /// build over the same population.
  IndexOptions index;
  /// Worker threads for the shard-parallel build phase (0 = auto,
  /// 1 = serial shard loop). When more than one shard builds concurrently,
  /// each shard's inner signature loop runs serially instead of spawning
  /// its own workers (shard-level parallelism replaces entity-level); the
  /// resulting shards are identical either way.
  int build_threads = 0;
  /// Streamed construction: partition entity ids into shard runs through
  /// the external-merge-sort (storage/external_sort.h) instead of
  /// materializing every shard's id list at once. The sorter's input is
  /// one flat (shard, pos, entity) record per id; past that, runs arrive
  /// in shard order, so at most one shard's id list (plus
  /// `stream_buffer_pages` pages of sort buffers) is materialized at a
  /// time and each shard is built as its run completes. Produces
  /// bit-identical shards to the default path.
  bool stream_build = false;
  /// In-memory page budget of the streamed-construction sorter (>= 3).
  size_t stream_buffer_pages = 64;
};

/// Scale-out layer over DigitalTraceIndex (ROADMAP: toward the paper's
/// 100M-entity regime): entities are partitioned by ShardOfEntity into
/// `num_shards` shards, each owning its own MinSigTree, and every query
/// searches one lane per shard (core/query.h SearchLane) — bit-identical to
/// the single-shard answer, because the search is exact and ties resolve in
/// the single-tree order.
///
/// Storage: all shards read the store the index was built over, or —
/// exactly like DigitalTraceIndex — whatever `QueryOptions::trace_source`
/// points at (e.g. one PagedTraceSource whose sharded BufferPool is shared
/// by every shard's cursors). AttachShardSource instead gives a shard its
/// own private source (per-shard buffer pool / device), which later
/// scale-out work maps to per-worker storage.
///
/// The whole DigitalTraceIndex maintenance API routes through the shard
/// map: InsertEntity/InsertEntities, UpdateEntity, RemoveEntity, Refresh.
/// QueryStats of a merged result aggregate across shards (counters and io
/// sum; hash_evals grows with the shard count under the concurrent schedule,
/// where every lane hashes the query's cells itself).
///
/// Cross-shard pruning (DESIGN-sharding.md): every build also extracts a
/// shared coarse routing level — one population-wide level-1 min-signature
/// per shard (CoarseShardRouter) over the same hash family. Each lane
/// carries its shard's signature, from which the search derives an
/// admissible cap on the lane's root bound, and lanes prune against the
/// global k-th score — one frontier and heap in the serial schedule, plus
/// a shared CrossShardThreshold across the concurrent one's groups — so
/// late shards terminate with the pruning power of the big single tree.
/// Results stay bit-identical to the single-tree oracle (the strict-tie
/// canonicalization in core/query.cc is what makes this safe); with
/// approximation slack the (1 + epsilon) guarantee of
/// QueryOptions::approximation_epsilon holds.
/// The router is maintained through the same insert/update/remove/Refresh
/// conventions as the shard trees (min-merge on insert, stale-low after
/// removal, tight again after Refresh).
///
/// Concurrency (DESIGN-sharding.md "Concurrency model"): queries may run
/// concurrently with maintenance. Each shard carries its own
/// DigitalTraceIndex reader/writer coordination, so a writer committing
/// into one shard never stalls the searches of the others; every lane reads
/// through a per-shard ReadPin. Router slots publish asynchronously under
/// the stale-LOW rule: Absorb runs BEFORE the shard tree commit (a reader
/// that sees the new entity has certainly seen its signature absorbed),
/// removals leave slots loose, and the one raising write — Refresh — lands
/// strictly after the refreshed tree publishes. A lane pairs its signature
/// copy with its pin through a version handshake, so a lane's bound is
/// admissible for exactly the tree state the lane reads. ReplaceEntity
/// (trace mutation) is covered by the same protocol: the new trace's coarse
/// signature is absorbed into the router BEFORE the owning shard's {store
/// override, tree update} commit, and lanes score traces as of their
/// per-shard pin versions (SearchLane::as_of), so no query ever mixes a
/// shard's old tree with its new trace or vice versa. (The query entity's
/// own trace is read at latest — its version stamps are shard-local, and a
/// caller replacing the very entity it queries concurrently gets one side
/// or the other of the replacement, both self-consistent.)
///
/// Faults: a lane that hits unrecoverable paged-tree pages fails the query
/// cleanly; the damaged shards quarantine those pages
/// (DigitalTraceIndex::QuarantineDamagedPages) and the query re-pins every
/// lane and retries, at most once per shard — a 1-shard index retries
/// once, exactly like a single index.
class ShardedIndex {
 public:
  /// Builds shards over every entity in the store, or over `entities` when
  /// given. Partition order is input order, so the per-shard entity
  /// sequences — hence the shard trees — are identical for every
  /// build_threads value and for both build modes.
  static ShardedIndex Build(
      std::shared_ptr<TraceStore> store, ShardedIndexOptions options = {},
      std::optional<std::vector<EntityId>> entities = std::nullopt);

  /// Exact top-k over one search lane per shard. `shard_threads` picks the
  /// schedule: 1 (default) searches every lane in one frontier — counters
  /// and io are deterministic; N > 1 (0 = auto) splits the lanes into up to
  /// N contiguous groups, one frontier per group on its own worker, coupled
  /// through a shared k-th-score watermark — identical items, but
  /// counter/io accounting depends on the order groups raise the watermark.
  /// Bit-identical to the single-shard DigitalTraceIndex answer for any
  /// shard count and either schedule. stats.elapsed_seconds is the call's
  /// wall time (work_seconds keeps the summed lane work).
  TopKResult Query(EntityId q, int k, const AssociationMeasure& measure,
                   const QueryOptions& options = {},
                   int shard_threads = 1) const;

  /// Batch queries on `num_threads` workers (0 = auto): queries are the
  /// unit of parallelism, and each runs Query's serial schedule, so
  /// results[i] — items AND counter/io totals — equals
  /// Query(queries[i], ...) for every thread count.
  std::vector<TopKResult> QueryMany(std::span<const EntityId> queries, int k,
                                    const AssociationMeasure& measure,
                                    const QueryOptions& options = {},
                                    int num_threads = 0) const;

  /// Routes to the owning shard (trace must already be in the store).
  void InsertEntity(EntityId e);

  /// Batch insert: entities are grouped per shard in input order, then each
  /// shard's batch is applied through its InsertEntities — identical to
  /// per-entity InsertEntity calls in input order.
  void InsertEntities(std::span<const EntityId> entities);

  /// Re-indexes an entity after TraceStore::ReplaceEntity, in its shard.
  void UpdateEntity(EntityId e);

  /// Replaces entity `e`'s trace AND re-indexes it in its owning shard as
  /// one atomic per-shard commit (DigitalTraceIndex::ReplaceEntity). The
  /// new trace's coarse signature is min-merged into the router before the
  /// commit — computed from `records` directly, since the store still
  /// serves the old trace at that point — keeping lane bounds admissible
  /// throughout (absorb-before-commit, as for inserts). Safe to call
  /// concurrently with queries.
  void ReplaceEntity(EntityId e, const std::vector<PresenceRecord>& records);

  /// Removes an entity from its shard's tree.
  void RemoveEntity(EntityId e);

  /// Restores tight node values in every shard after updates/removals.
  void Refresh();

  /// Switches every shard onto a paged tree snapshot (each shard's
  /// DigitalTraceIndex::EnablePagedTree with the same options — private
  /// page store per shard unless `options` names a shared disk/pool).
  /// Results stay bit-identical under either schedule; merged QueryStats
  /// gain the summed tree-page I/O.
  void EnablePagedTrees(const PagedTreeOptions& options = {});
  /// Back to in-memory trees in every shard.
  void DisablePagedTrees();

  /// Evaluate shard `s`'s queries against `source` instead of the store /
  /// QueryOptions::trace_source (null restores the default). The source
  /// must describe the same logical dataset as the store and outlive this
  /// index. This is the per-shard-pool configuration: each shard can own a
  /// private PagedTraceSource while answers stay bit-identical.
  void AttachShardSource(int s, const TraceSource* source);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(EntityId e) const {
    return static_cast<int>(
        ShardOfEntity(e, static_cast<uint32_t>(shards_.size())));
  }
  const DigitalTraceIndex& shard(int s) const { return *shards_[s]; }
  const CoarseShardRouter& router() const { return router_; }
  const TraceStore& store() const { return *store_; }
  const ShardedIndexOptions& options() const { return options_; }

  /// Reader/writer coordination counters summed across shards (see
  /// bench_scalability --writer-threads).
  DigitalTraceIndex::ConcurrencyStats concurrency_stats() const;

  /// Serializes every shard — shared config/hierarchy/router sections plus
  /// per-shard trace partitions (by ShardOfEntity) and tree sections — as
  /// one crash-atomic snapshot commit (storage/snapshot.h). Each shard's
  /// trace+tree pair is captured under that shard's read latch, so every
  /// shard section is internally consistent (the same per-shard version
  /// vector queries already run against); router slots are snapshotted
  /// per shard and stay admissible under the stale-LOW rule.
  Status SaveSnapshot(SnapshotEnv* env, bool compress = false) const;

  /// Restores the newest fully-valid sharded snapshot in `env` — bit
  /// identical shard trees, traces, router state, and hash families, with
  /// fresh per-shard concurrency state. kCorruption when no valid snapshot
  /// exists or the newest valid one is a single-index snapshot.
  static Status LoadSnapshot(const SnapshotEnv& env, LoadedShardedIndex* out);

  /// Entities indexed across all shards.
  size_t num_entities() const;
  /// Sum of shard tree sizes.
  uint64_t IndexMemoryBytes() const;
  /// Wall seconds of Build (partitioning + every shard's build).
  double build_seconds() const { return build_seconds_; }

 private:
  ShardedIndex(std::shared_ptr<TraceStore> store, ShardedIndexOptions options)
      : store_(std::move(store)),
        options_(options),
        router_(options.num_shards, options.index.num_functions) {}

  /// Recomputes shard `s`'s coarse router signature from its tree's current
  /// members (build and Refresh paths; writes only shard s's slot, so
  /// per-shard calls may run in parallel).
  void RefreshRouterShard(int s);
  /// Min-merges entity `e`'s level-1 signature into shard `s`'s router
  /// signature (insert/update paths). Called BEFORE the shard tree commit
  /// so no reader can see the entity in the tree uncovered by the router
  /// bound (early absorption only lowers slots — admissible).
  void AbsorbIntoRouter(int s, EntityId e);
  /// One pinned search: pins every lane through the version handshake and
  /// searches them in `workers` groups (1 = the serial schedule). On failure,
  /// every shard drains and repairs the damaged tree pages its pin
  /// observed, adding the count to *quarantined, before the pins drop.
  TopKResult SearchLanes(EntityId q, int k, const AssociationMeasure& measure,
                         const QueryOptions& options, int workers,
                         uint64_t* quarantined) const;

  std::shared_ptr<TraceStore> store_;
  ShardedIndexOptions options_;
  CoarseShardRouter router_;
  std::vector<std::unique_ptr<DigitalTraceIndex>> shards_;
  std::vector<const TraceSource*> shard_sources_;  // null = default source
  double build_seconds_ = 0.0;
};

/// Everything ShardedIndex::LoadSnapshot restores; the hierarchy is owned
/// here because the store and every shard's hasher point into it.
struct LoadedShardedIndex {
  std::unique_ptr<SpatialHierarchy> hierarchy;
  std::shared_ptr<TraceStore> store;
  std::unique_ptr<ShardedIndex> index;
};

}  // namespace dtrace

#endif  // DTRACE_CORE_SHARDED_INDEX_H_
