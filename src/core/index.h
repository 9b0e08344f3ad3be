#ifndef DTRACE_CORE_INDEX_H_
#define DTRACE_CORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/association.h"
#include "core/min_sig_tree.h"
#include "core/paged_min_sig_tree.h"
#include "core/query.h"
#include "core/signature.h"
#include "hash/cell_hasher.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/rwlatch.h"
#include "util/status.h"

namespace dtrace {

class SnapshotEnv;   // storage/snapshot.h
struct LoadedIndex;  // below

/// Index construction knobs.
struct IndexOptions {
  /// Number of hash functions nh (signature width). The paper sweeps
  /// 200..2000; pruning improves with nh until entities are unique (Sec 7.3).
  int num_functions = 200;
  /// Master seed for the hash family.
  uint64_t seed = 42;
  /// Store full nh-value group signatures per node (ablation; Sec. 4.2.2
  /// discusses the storage/pruning trade-off of keeping only the routing
  /// value, which is the default).
  bool store_full_signatures = false;
  /// Hash family: the O(1) structured family (default) or the reference
  /// independent family (slow on deep hierarchies; for tests/ablation).
  enum class Hasher { kHierarchical, kExact } hasher = Hasher::kHierarchical;
  /// Worker threads for the per-entity signature loop in Build.
  /// 0 = hardware_concurrency, 1 = the historical serial build. Any value
  /// produces an identical index (build is deterministic across thread
  /// counts); this only changes wall-clock build time.
  int num_threads = 0;
};

/// Facade over the whole pipeline — hash family, signatures, MinSigTree and
/// query processing — and the primary public API of the library:
///
///   auto index = DigitalTraceIndex::Build(dataset.store, options);
///   PolynomialLevelMeasure deg(m);
///   auto top = index.Query(query_entity, /*k=*/10, deg);
///
/// Queries are exact for any AssociationMeasure satisfying the Sec. 3.2
/// axioms. Incremental maintenance mirrors Sec. 4.2.3.
///
/// Concurrency model (DESIGN-sharding.md "Concurrency model"): queries may
/// run concurrently with each other AND with maintenance from one writer at
/// a time. Every read pins an immutable view via PinForRead():
///
///  - Paged mode: the pin is a shared_ptr to the published snapshot — no
///    latch, so readers never block, not even on an in-flight repack. A
///    maintenance op mutates the in-memory tree under the write latch, then
///    packs a fresh snapshot and publishes it atomically; the commit point
///    is publication, and the retiring snapshot is freed when its last
///    reader drains (shared_ptr refcount).
///  - In-memory mode: the pin holds the index's read latch for the query's
///    lifetime; the commit point is the writer's latch release.
///
/// Each committed mutation bumps version() by one; a pin carries the
/// version of the state it observes, so a caller that brackets a query with
/// version() reads knows exactly which committed prefixes the result may
/// reflect — the protocol the concurrent differential harness checks.
/// Multiple concurrent *writers* serialize on the write latch (each op is
/// atomic). Trace replacement is covered too: ReplaceEntity runs
/// {TraceStore::ReplaceEntityAt, tree update} as ONE commit, stamping the
/// store's MVCC override with the version the commit publishes, and every
/// query reads traces as of its pin's version (QueryOptions::trace_as_of) —
/// so a reader pinned at v sees the tree AND the traces of v, never a
/// half-applied replacement.
class DigitalTraceIndex {
 public:
  /// Builds the index over every entity in the store, or over `entities`
  /// when given (the remainder can be added later via InsertEntity).
  static DigitalTraceIndex Build(
      std::shared_ptr<TraceStore> store, IndexOptions options = {},
      std::optional<std::vector<EntityId>> entities = std::nullopt);

  /// Exact top-k query; `measure` must satisfy the ADM axioms. Candidate
  /// traces are read from `options.trace_source` when set (e.g. a
  /// PagedTraceSource over the same dataset), else from the in-memory store.
  TopKResult Query(EntityId q, int k, const AssociationMeasure& measure,
                   const QueryOptions& options = {}) const;

  /// Linear-scan oracle over indexed entities.
  TopKResult BruteForce(EntityId q, int k, const AssociationMeasure& measure,
                        const QueryOptions& options = {}) const;

  /// Evaluates independent queries on `num_threads` workers (0 = auto,
  /// 1 = serial): each entry IS a Query(queries[i], ...) call, so results[i]
  /// is bit-identical to the serial Query result for any thread count (only
  /// QueryStats timing/page counters may vary) and a batch repairs damaged
  /// tree pages exactly like Query — quarantine, repack, one retry. Workers
  /// share `options` (including any trace_source, whose buffer pool is
  /// internally synchronized). Each query pins its own read view, so a
  /// concurrent writer's commits may land between (not inside) the batch's
  /// individual queries.
  std::vector<TopKResult> QueryMany(std::span<const EntityId> queries, int k,
                                    const AssociationMeasure& measure,
                                    const QueryOptions& options = {},
                                    int num_threads = 0) const;

  /// Indexes an entity whose trace is already present in the store.
  void InsertEntity(EntityId e);

  /// Indexes a batch of entities: per-entity signatures are computed on
  /// `options().num_threads` workers, then applied to the tree in input
  /// order — the resulting tree is identical to sequential InsertEntity
  /// calls in the same order. The batch is ONE commit: concurrent readers
  /// see either none of it or all of it.
  void InsertEntities(std::span<const EntityId> entities);

  /// Re-indexes an entity after TraceStore::ReplaceEntity changed its trace.
  void UpdateEntity(EntityId e);

  /// Replaces entity `e`'s trace with the one `records` induces AND
  /// re-indexes it, as ONE atomic commit: the store override is stamped
  /// with the version this commit publishes, so concurrent readers pinned
  /// below it keep scoring the old trace against the old tree state, and
  /// readers at or above it see both changes together. Entities not in the
  /// tree (never indexed, or removed) get the trace swap only.
  void ReplaceEntity(EntityId e, const std::vector<PresenceRecord>& records);

  /// Removes an entity from the index (its trace stays in the store).
  void RemoveEntity(EntityId e);

  /// Restores tight node values after a batch of updates/removals.
  /// Signature recomputation — the dominant cost — runs on
  /// `options().num_threads` workers; the refreshed values are identical
  /// for every thread count.
  void Refresh();

  /// Switches queries onto a paged snapshot of the tree (SoA node pages
  /// behind a TreePageSource — core/paged_min_sig_tree.h): the snapshot is
  /// packed and published immediately and every subsequent
  /// Query/BruteForce/QueryMany pins it instead of latching the heap tree.
  /// Results are bit-identical; only QueryStats gains tree-page I/O. A zone
  /// map reject leaves every search counter as it was, so zone maps cut
  /// only tree pages read. The in-memory tree stays
  /// authoritative: each maintenance commit packs a fresh snapshot from it
  /// and publishes atomically — readers drain on the old one, never waiting
  /// on the repack. The switch is one-way: calling this again on a paged
  /// index repacks under the new `options` and publishes at an unchanged
  /// version() (not counted in snapshot_publishes), while pins on the old
  /// snapshot keep answering until they drain. Not supported in
  /// store_full_signatures mode (the packed slot layout is routing-only).
  void EnablePagedTree(const PagedTreeOptions& options = {});
  bool paged_tree_enabled() const {
    return cc_->paged_enabled.load(std::memory_order_acquire);
  }
  /// The current published snapshot. Requires paged_tree_enabled(). The
  /// returned reference is valid until the next maintenance commit retires
  /// it — callers must not hold it across concurrent maintenance (use
  /// PinForRead() for that).
  const PagedMinSigTree& paged_tree() const;

  /// A pinned, immutable view of the index for one read. In paged mode it
  /// holds a shared_ptr pin on the published snapshot (no latch — readers
  /// never block writers or vice versa); in in-memory mode it holds the
  /// index's read latch for its lifetime. version() is the number of
  /// commits the pinned state reflects. Movable, not copyable.
  class ReadPin {
   public:
    ReadPin(ReadPin&& other) noexcept
        : snapshot_(std::move(other.snapshot_)),
          tree_(other.tree_),
          latch_(other.latch_),
          version_(other.version_) {
      other.latch_ = nullptr;
      other.tree_ = nullptr;
    }
    ReadPin& operator=(ReadPin&& other) noexcept {
      if (this != &other) {
        Release();
        snapshot_ = std::move(other.snapshot_);
        tree_ = other.tree_;
        latch_ = other.latch_;
        version_ = other.version_;
        other.latch_ = nullptr;
        other.tree_ = nullptr;
      }
      return *this;
    }
    ~ReadPin() { Release(); }
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

    const TreeSource& tree() const { return *tree_; }
    /// The pinned paged snapshot, or null when the pin is on the in-memory
    /// tree (read latch held instead).
    const PagedMinSigTree* snapshot() const { return snapshot_.get(); }
    /// Committed mutations reflected by the pinned state.
    uint64_t version() const { return version_; }

   private:
    friend class DigitalTraceIndex;
    ReadPin(std::shared_ptr<const PagedMinSigTree> snapshot, uint64_t version)
        : snapshot_(std::move(snapshot)),
          tree_(snapshot_.get()),
          version_(version) {}
    ReadPin(const TreeSource* tree, RWLatch* latch, uint64_t version)
        : tree_(tree), latch_(latch), version_(version) {}
    void Release() {
      if (latch_ != nullptr) {
        latch_->UnlockRead();
        latch_ = nullptr;
      }
      snapshot_.reset();
    }

    std::shared_ptr<const PagedMinSigTree> snapshot_;
    const TreeSource* tree_ = nullptr;
    RWLatch* latch_ = nullptr;  // read-held iff non-null
    uint64_t version_ = 0;
  };

  /// Pins the current committed state for reading. Query/BruteForce/
  /// QueryMany pin internally; ShardedIndex pins explicitly to keep a whole
  /// forest walk on stable per-shard views.
  ReadPin PinForRead() const;

  /// Quarantine repair after a search on `pin` failed (DESIGN-storage.md
  /// "Fault model and integrity"): reads how many unrecoverable tree pages
  /// the pinned snapshot has observed and, if any, repacks the snapshot
  /// from the authoritative in-memory tree onto fresh pages — unless a
  /// concurrent publish (say, another failed query's repair) already
  /// retired it. The count is sticky per snapshot, so every query that
  /// failed on the same damaged snapshot gets it back, not just the first
  /// to ask. Returns the pages quarantined: 0 for an in-memory pin, or for
  /// a failure on a snapshot with no damaged tree page (trace-side errors
  /// have no authoritative copy to repair from). A nonzero return means
  /// the caller should drop `pin`, re-pin, and retry once; Query and the
  /// ShardedIndex lanes both do.
  uint64_t QuarantineDamagedPages(const ReadPin& pin) const;

  /// Monotone count of committed mutations visible to new pins. Bracketing
  /// a query with version() reads bounds the commit prefix its pin
  /// observed: pin.version() lies in [before, after].
  uint64_t version() const {
    return cc_->version.load(std::memory_order_acquire);
  }

  /// Reader/writer coordination counters (see bench_scalability
  /// --writer-threads).
  struct ConcurrencyStats {
    /// Snapshots published by writer-side repacks and quarantine repairs
    /// (the initial EnablePagedTree pack is not counted).
    uint64_t snapshot_publishes = 0;
    /// Wall nanoseconds readers spent blocked on the latch (in-memory mode
    /// only; paged-mode readers never block).
    uint64_t reader_blocked_ns = 0;
    /// Wall nanoseconds writers spent blocked on the latch.
    uint64_t writer_blocked_ns = 0;
  };
  ConcurrencyStats concurrency_stats() const;

  const MinSigTree& tree() const { return tree_; }
  const CellHasher& hasher() const { return *hasher_; }
  const TraceStore& store() const { return *store_; }
  TraceStore& mutable_store() { return *store_; }
  const IndexOptions& options() const { return options_; }

  /// Serializes the whole index — config, hierarchy, trace CSR state, tree
  /// nodes — as one crash-atomic snapshot commit (storage/snapshot.h):
  /// checksummed sections first, manifest last. Runs under the read latch,
  /// so the captured state is exactly one committed version; concurrent
  /// queries proceed, writers wait. Traces are captured post-replacement
  /// (MVCC overrides resolved at the latched commit), so the restored
  /// store's CSR base IS the replaced state and needs no override chains.
  /// `compress` routes trace cell lists through the delta/FoR codec
  /// (util/codec.h). Not supported in store_full_signatures mode.
  Status SaveSnapshot(SnapshotEnv* env, bool compress = false) const;

  /// Restores the newest fully-valid snapshot in `env` into `out` — bit
  /// identical to the index that saved it (same tree nodes, same traces,
  /// same hash family), with fresh concurrency state (version 0). Returns
  /// kCorruption when no valid snapshot exists ("rebuild required") and a
  /// kind mismatch / malformed section as kCorruption too; `out` is only
  /// written on Ok.
  static Status LoadSnapshot(const SnapshotEnv& env, LoadedIndex* out);

  /// Seconds spent in Build (signature computation + tree construction).
  double build_seconds() const { return build_seconds_; }
  /// Index structure size (tree only, as reported in Fig. 7.8(b)).
  uint64_t IndexMemoryBytes() const { return tree_.MemoryBytes(); }
  /// Hash-family auxiliary tables.
  uint64_t HasherMemoryBytes() const { return hasher_->MemoryBytes(); }

 private:
  // The scale-out layer's snapshot path serializes each shard's tree under
  // that shard's latch and restores shards through the private constructor;
  // its search lanes resolve their source through PickSource.
  friend class ShardedIndex;

  DigitalTraceIndex(std::shared_ptr<TraceStore> store, IndexOptions options,
                    std::unique_ptr<CellHasher> hasher, MinSigTree tree,
                    double build_seconds);

  /// All reader/writer coordination state, heap-held so the index itself
  /// stays movable (Build returns by value). Moving an index with
  /// operations in flight is undefined, as for any standard container.
  ///
  /// Lock order: pack_mu -> latch(read) -> head_mu. Readers take only
  /// head_mu (paged) or the latch (in-memory); writers take the latch alone
  /// for the mutation, then pack_mu -> latch(read) -> head_mu to publish.
  /// No path acquires them in any other order, so the hierarchy is
  /// deadlock-free; buffer-pool shard mutexes sit strictly below all of
  /// these (pins happen inside a search, which never takes index locks).
  struct Coordination {
    /// Index teardown runs after any order of sibling destructions, so the
    /// final head snapshot must not reach into a shared disk/pool that may
    /// already be gone: abandon its backing instead of reclaiming it. All
    /// earlier retirements (repack, repair, re-enable) happen while the
    /// backing is alive and do reclaim.
    ~Coordination();
    /// Guards the in-memory tree: write-held across every mutation,
    /// read-held by in-memory-mode pins and by snapshot packers.
    RWLatch latch;
    /// Serializes snapshot packers (writer-side repack, quarantine repair,
    /// EnablePagedTree) and guards paged_options/packed_revision.
    std::mutex pack_mu;
    /// Guards (head, version) as one consistent pair. Critical sections are
    /// pointer copies only — this is the "atomic publication" the readers
    /// see; it is never held across a pack.
    mutable std::mutex head_mu;
    /// Published paged snapshot; null = in-memory mode. Readers pin by
    /// copying the shared_ptr; retirement is the refcount draining.
    std::shared_ptr<const PagedMinSigTree> head;
    /// Count of committed tree mutations (bumped under the write latch).
    std::atomic<uint64_t> revision{0};
    /// Commits visible to new pins: == revision of the published snapshot
    /// in paged mode, == revision in in-memory mode. Written under head_mu.
    std::atomic<uint64_t> version{0};
    /// Revision the current head was packed from (under pack_mu).
    uint64_t packed_revision = 0;
    std::atomic<uint64_t> snapshot_publishes{0};
    /// Set once by the first EnablePagedTree; never cleared.
    std::atomic<bool> paged_enabled{false};
    /// Pack configuration (under pack_mu: the repack fault-seed advance
    /// mutates it, writer-owned — never from a bare const path).
    PagedTreeOptions paged_options;
  };

  /// Runs `mutate` on the tree under the write latch as one commit, then
  /// (paged mode) packs and publishes a fresh snapshot if the head's
  /// revision lags. Writers serialize on pack_mu across the pack; readers
  /// keep pinning the old head throughout.
  void CommitMutation(const std::function<void()>& mutate);
  /// The one pack-and-publish step (caller holds pack_mu): packs the tree
  /// under the read latch and swaps (head, version) under head_mu. A
  /// `repack` — any pack after EnablePagedTree's first — also advances a
  /// private fault disk's seed, so the new pages land on a fresh fault
  /// schedule, and counts in snapshot_publishes.
  void PackAndPublishLocked(bool repack) const;
  /// Resolves the source queries evaluate against: an explicitly attached
  /// one (which must describe the same population the index was built
  /// over), else the in-memory store.
  static const TraceSource& PickSource(const QueryOptions& options,
                                       const TraceStore& store);

  std::shared_ptr<TraceStore> store_;
  IndexOptions options_;
  std::unique_ptr<CellHasher> hasher_;
  SignatureComputer sigs_;
  MinSigTree tree_;
  std::unique_ptr<Coordination> cc_;
  double build_seconds_;
};

/// Everything DigitalTraceIndex::LoadSnapshot restores. The hierarchy is
/// owned here because the store (and hasher) hold raw pointers into it —
/// keep the struct alive as long as the index.
struct LoadedIndex {
  std::unique_ptr<SpatialHierarchy> hierarchy;
  std::shared_ptr<TraceStore> store;
  std::unique_ptr<DigitalTraceIndex> index;
};

}  // namespace dtrace

#endif  // DTRACE_CORE_INDEX_H_
