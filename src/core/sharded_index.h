#ifndef DTRACE_CORE_SHARDED_INDEX_H_
#define DTRACE_CORE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/status.h"

namespace dtrace {

struct LoadedShardedIndex;  // below

/// Stable shard assignment: a splitmix64 finalizer over the 64-bit-widened
/// entity id, reduced mod `num_shards`. A pure function of (entity id,
/// num_shards) — independent of thread counts, insertion order and process
/// state — so the shard map never silently drifts between runs or
/// replicas. shard_map_test pins sample values.
uint32_t ShardOfEntity(EntityId e, uint32_t num_shards);

/// Deterministic top-k merge of per-shard query results: items from every
/// shard are ranked by (score descending, entity id ascending) — exactly
/// the single-tree TopKHeap order, so ties across shards resolve the same
/// way they would inside one tree — and truncated to k (k = 0 yields an
/// empty result; k beyond the union keeps everything). Shards partition the
/// entity space, so ids never collide across inputs and the merge needs no
/// deduplication. Every listed QueryStats counter (QueryStats::Add) sums
/// across shards, on an errored merge too. elapsed_seconds also sums, but
/// callers measuring the wall time of a parallel fan-out overwrite it — the
/// summed per-shard work stays available in work_seconds.
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
/// by every shard's cursors).
///
/// The whole DigitalTraceIndex maintenance API routes through the shard
/// map: InsertEntity/InsertEntities, UpdateEntity, RemoveEntity, Refresh.
/// QueryStats of a merged result aggregate across shards (counters and io
/// sum; hash_evals grows with the shard count under the concurrent schedule,
/// where every lane hashes the query's cells itself).
///
/// Pruning across shards (DESIGN-sharding.md): lanes prune against the
/// global k-th score — one frontier and heap in the serial schedule, plus a
/// shared CrossShardThreshold across the concurrent one's groups — so late
/// shards never re-check candidates the global k-th already beats. Results
/// stay bit-identical to the single-tree oracle (the strict-tie
/// canonicalization in core/query.cc is what makes this safe); with
/// approximation slack the (1 + epsilon) guarantee of
/// QueryOptions::approximation_epsilon holds. No lane gets a tighter root
/// bound: a shard is a splitmix64-random sample of the population, so a
/// min-signature over its members sits near the global minimum and bounds
/// nothing (DESIGN-sharding.md "Deferred").
///
/// Concurrency (DESIGN-sharding.md "Concurrency model"): queries may run
/// concurrently with maintenance. Each shard carries its own
/// DigitalTraceIndex reader/writer coordination, so a writer committing
/// into one shard never stalls the searches of the others; every lane reads
/// through one per-shard ReadPin, and every maintenance call is a plain
/// forward to the owning shard's commit. ReplaceEntity (trace mutation) is
/// covered too: lanes score traces as of their per-shard pin versions
/// (SearchLane::as_of), so no query ever mixes a shard's old tree with its
/// new trace or vice versa. (The query entity's own trace is read at
/// latest — its version stamps are shard-local, and a caller replacing the
/// very entity it queries concurrently gets one side or the other of the
/// replacement, both self-consistent.)
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
  /// one atomic per-shard commit (DigitalTraceIndex::ReplaceEntity). Safe
  /// to call concurrently with queries.
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

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(EntityId e) const {
    return static_cast<int>(
        ShardOfEntity(e, static_cast<uint32_t>(shards_.size())));
  }
  const DigitalTraceIndex& shard(int s) const { return *shards_[s]; }
  const TraceStore& store() const { return *store_; }
  const ShardedIndexOptions& options() const { return options_; }

  /// Reader/writer coordination counters summed across shards (see
  /// bench_scalability --writer-threads).
  DigitalTraceIndex::ConcurrencyStats concurrency_stats() const;

  /// Serializes every shard — shared config/hierarchy sections plus
  /// per-shard trace partitions (by ShardOfEntity) and tree sections — as
  /// one crash-atomic snapshot commit (storage/snapshot.h). Each shard's
  /// trace+tree pair is captured under that shard's read latch, so every
  /// shard section is internally consistent (the same per-shard version
  /// vector queries already run against).
  Status SaveSnapshot(SnapshotEnv* env, bool compress = false) const;

  /// Restores the newest fully-valid sharded snapshot in `env` — bit
  /// identical shard trees, traces and hash families, with fresh per-shard
  /// concurrency state. A `router` section, which snapshots written by
  /// older builds carry, is ignored. kCorruption when no valid snapshot
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
      : store_(std::move(store)), options_(options) {}

  /// One pinned search: pins every lane once and searches them in
  /// `workers` groups (1 = the serial schedule). On failure,
  /// every shard repairs the damaged tree pages its pinned snapshot
  /// observed, adding the count to *quarantined, before the pins drop.
  TopKResult SearchLanes(EntityId q, int k, const AssociationMeasure& measure,
                         const QueryOptions& options, int workers,
                         uint64_t* quarantined) const;

  std::shared_ptr<TraceStore> store_;
  ShardedIndexOptions options_;
  std::vector<std::unique_ptr<DigitalTraceIndex>> shards_;
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
