#ifndef DTRACE_TRACE_TRACE_STORE_H_
#define DTRACE_TRACE_TRACE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "trace/spatial_hierarchy.h"
#include "trace/trace_source.h"
#include "trace/types.h"

namespace dtrace {

/// Materialized ST-cell set sequences (Sec. 4.1): for every entity and every
/// sp-index level l, the sorted, deduplicated set seq^l_e of level-l ST-cells
/// the entity was present in. seq^m comes directly from the presence records;
/// seq^l for l < m is derived by mapping units to their level-l ancestors
/// (Example 4.1.1).
///
/// Cells are encoded per level as `time * units_at(level) + unit`; helpers
/// below convert. Storage is CSR per level (one offsets array + one flat cell
/// array), so the whole store is two allocations per level.
///
/// TraceStore is itself the in-memory TraceSource: its cursors forward to
/// the CSR arrays directly and never charge I/O.
///
/// Versioned replacement (MVCC): ReplaceEntityAt appends an immutable
/// per-entity override node stamped with the committing epoch version, and
/// readers resolve `as_of` against the entity's chain — the newest node
/// whose stamp is <= as_of wins, the CSR base serves entities never
/// replaced. Nodes are append-only and owned until store destruction, so a
/// span handed to a pinned reader stays valid while writers keep
/// committing; publication is an acquire/release pointer swap, making
/// concurrent replace-vs-read safe without a store-level lock on the read
/// path. This is what closes the ReplaceEntity atomicity exclusion: the
/// index layer runs {ReplaceEntityAt, tree update} as ONE per-shard epoch
/// commit, and readers pinned at version v see the trace state of v.
class TraceStore : public TraceSource {
 public:
  /// Builds the store for `num_entities` entities (ids [0, num_entities))
  /// from raw presence records over time horizon [0, horizon).
  /// Records referencing out-of-range entities/units/times abort.
  TraceStore(const SpatialHierarchy& hierarchy, uint32_t num_entities,
             TimeStep horizon, const std::vector<PresenceRecord>& records);

  /// Snapshot-restore payload: the CSR arrays verbatim (per level: offsets
  /// [num_entities+1] and the flat sorted cell array). What the snapshot
  /// loader rebuilds a store from without re-deriving levels from records.
  struct RestoredCells {
    std::vector<std::vector<uint64_t>> offsets;  // [m][num_entities+1]
    std::vector<std::vector<CellId>> cells;      // [m][total]
  };
  /// Restores a store from serialized CSR state (storage/snapshot.h). The
  /// restored store has no override chains — a snapshot captures the
  /// post-replacement cell sets as its base.
  TraceStore(const SpatialHierarchy& hierarchy, uint32_t num_entities,
             TimeStep horizon, RestoredCells restored);

  const SpatialHierarchy& hierarchy() const override { return *hierarchy_; }
  uint32_t num_entities() const override { return num_entities_; }
  TimeStep horizon() const override { return horizon_; }

  /// In-memory cursor: zero-copy spans into the CSR arrays, zero I/O.
  /// OpenCursor reads latest; OpenCursorAt pins the given commit version.
  std::unique_ptr<TraceCursor> OpenCursor() const override;
  std::unique_ptr<TraceCursor> OpenCursorAt(uint64_t as_of) const override;
  bool versioned() const override { return true; }

  /// seq^level_e: sorted level-`level` cell ids of entity e, as of commit
  /// version `as_of` (default: latest). Spans stay valid for the store's
  /// lifetime even across later replacements (override nodes are immutable
  /// and never freed before the store).
  std::span<const CellId> cells(EntityId e, Level level,
                                uint64_t as_of = kLatestVersion) const;

  /// |seq^level_e|.
  uint32_t cell_count(EntityId e, Level level,
                      uint64_t as_of = kLatestVersion) const;

  /// Encodes an ST-cell id at `level`.
  CellId EncodeCell(Level level, TimeStep t, UnitId unit) const {
    return t * hierarchy_->units_at(level) + unit;
  }
  TimeStep CellTime(Level level, CellId c) const {
    return c / hierarchy_->units_at(level);
  }
  UnitId CellUnit(Level level, CellId c) const {
    return c % hierarchy_->units_at(level);
  }

  /// Maps a level-(l+1) cell to its level-l parent cell.
  CellId ParentCell(Level child_level, CellId c) const;

  /// Size of |seq^l_ a ∩ seq^l_b| via sorted-merge intersection.
  uint32_t IntersectionSize(EntityId a, EntityId b, Level level,
                            uint64_t as_of = kLatestVersion) const;

  /// seq^level_e restricted to time steps [t0, t1) — a contiguous slice,
  /// since cell ids order by time first. Supports the paper's
  /// investigation scenario of querying association within a time range.
  std::span<const CellId> CellsInWindow(EntityId e, Level level, TimeStep t0,
                                        TimeStep t1,
                                        uint64_t as_of = kLatestVersion) const;

  /// |seq^l_a ∩ seq^l_b| restricted to time steps [t0, t1).
  uint32_t WindowedIntersectionSize(EntityId a, EntityId b, Level level,
                                    TimeStep t0, TimeStep t1,
                                    uint64_t as_of = kLatestVersion) const;

  /// Average number of base-level cells per entity (the paper's C).
  double mean_base_cells() const;

  /// Total stored cells across entities and levels.
  uint64_t total_cells() const;

  /// Replaces entity `e`'s trace with the one induced by `records` (all of
  /// which must reference `e`), visible at every version (stamp 0) — the
  /// unversioned convenience for single-threaded callers. Equivalent to
  /// ReplaceEntityAt(e, records, 0).
  void ReplaceEntity(EntityId e, const std::vector<PresenceRecord>& records);

  /// Versioned replacement: appends an override node stamped `version` to
  /// e's chain. Readers at as_of >= version see the new trace; readers
  /// pinned below it keep the previous one. The caller (the index commit
  /// path) must stamp the version its commit will publish. Safe to call
  /// concurrently with readers, and with other writers on other entities
  /// (writers to the SAME entity must be externally ordered — the per-shard
  /// write latch provides that).
  void ReplaceEntityAt(EntityId e, const std::vector<PresenceRecord>& records,
                       uint64_t version);

  /// True iff `e` has been replaced after the mutation ordinal `since` —
  /// the staleness probe PagedTraceSource uses to fail loudly instead of
  /// serving a pre-replacement serialization (paged_trace_source.h).
  bool EntityReplacedSince(EntityId e, uint64_t since) const {
    const EntityOverride* n =
        override_heads_[e].load(std::memory_order_acquire);
    return n != nullptr && n->ordinal > since;
  }

  /// Monotone count of replacements applied so far; pair with
  /// EntityReplacedSince to detect replacements after a point in time.
  uint64_t mutation_ordinal() const {
    return mutation_ordinal_.load(std::memory_order_acquire);
  }

 private:
  /// Computes the per-level sorted cell sets `records` induces, without
  /// touching the store.
  std::vector<std::vector<CellId>> CellsForRecords(
      const std::vector<PresenceRecord>& records) const;

  /// One committed replacement of one entity: the full per-level cell sets
  /// plus the commit stamp. Immutable once published; `prev` links to the
  /// entity's older override (nullptr = the CSR base precedes it). Nodes
  /// are owned by the store and freed only at store destruction, so spans
  /// into `levels` have store lifetime.
  struct EntityOverride {
    uint64_t version = 0;  // commit version stamp (0 = unversioned)
    uint64_t ordinal = 0;  // global mutation ordinal (monotone, from 1)
    std::vector<std::vector<CellId>> levels;  // [m] sorted cells per level
    const EntityOverride* prev = nullptr;
  };

  /// e's override as of `as_of`: newest chain node with version <= as_of,
  /// nullptr when the CSR base applies.
  const EntityOverride* OverrideAt(EntityId e, uint64_t as_of) const {
    const EntityOverride* n =
        override_heads_[e].load(std::memory_order_acquire);
    while (n != nullptr && n->version > as_of) n = n->prev;
    return n;
  }

  const SpatialHierarchy* hierarchy_;
  uint32_t num_entities_;
  TimeStep horizon_;
  // CSR per level: cells_[l][offsets_[l][e] .. offsets_[l][e+1]).
  std::vector<std::vector<uint64_t>> offsets_;  // [m][num_entities+1]
  std::vector<std::vector<CellId>> cells_;      // [m][total]
  // MVCC override chains: per entity, the newest override node (null =
  // never replaced). Readers acquire-load and chase prev; writers publish
  // with a release store under override_mu_.
  std::vector<std::atomic<const EntityOverride*>> override_heads_;
  // Owns every override node ever appended (append-only; serialized by
  // override_mu_). Never shrunk before destruction — span validity.
  std::vector<std::unique_ptr<EntityOverride>> override_nodes_;
  std::mutex override_mu_;
  std::atomic<uint64_t> mutation_ordinal_{0};
};

}  // namespace dtrace

#endif  // DTRACE_TRACE_TRACE_STORE_H_
