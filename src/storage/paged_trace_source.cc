#include "storage/paged_trace_source.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/codec.h"

namespace dtrace {

namespace {

// One entity record held by a cursor's materialization cache. Uncompressed
// sources materialize `levels` eagerly; compressed sources keep the raw
// encoded record in `packed` (per-level blob starts in `level_off`) and
// decode a level into `levels` only the first time a caller needs it as a
// span — `decoded` tracks which levels are valid. All buffers are reused
// across the entities cycled through the slot.
struct CachedEntity {
  EntityId entity = kInvalidEntity;
  uint64_t last_used = 0;
  std::vector<std::vector<CellId>> levels;  // [m], sorted cell ids
  std::vector<uint8_t> packed;              // compressed record bytes
  std::vector<uint32_t> level_off;          // [m] blob byte starts in packed
  uint64_t decoded = 0;                     // bit l-1: levels[l-1] is valid
};

}  // namespace

/// Per-query cursor: a tiny LRU of decoded records in front of the shared
/// buffer pool. Capacity >= 2 lets two entities' records coexist, so
/// pairwise reads (IntersectionSize, ad-hoc ComputeDegree) fetch each side
/// once; the query engine itself reads the query entity once up front (into
/// its QueryKernel) and then streams candidates, touching each record's
/// levels back to back.
///
/// Cache hits are cursor-local — no lock, no shared state. Cache misses
/// materialize through the pool (internally sharded; I/O outside shard
/// locks) and charge the per-call page outcomes to this cursor's io().
class PagedTraceCursor final : public TraceCursor {
 public:
  /// Materialization cache capacity in entities. Pairwise reads (the
  /// intersection helpers) need both sides resident at once, so it must be
  /// at least 2.
  static constexpr size_t kCacheEntities = 8;

  explicit PagedTraceCursor(const PagedTraceSource& src)
      : src_(&src), slots_(kCacheEntities) {}

  std::span<const CellId> Cells(EntityId e, Level level) override {
    const auto& v = DecodedLevel(Fetch(e), level);
    return {v.data(), v.size()};
  }

  PackedIdListView PackedCellsInWindow(EntityId e, Level level, TimeStep t0,
                                       TimeStep t1) override {
    // Only the unwindowed case maps onto whole encoded blobs; a restricted
    // window needs the decoded span (and the fallback path handles it).
    if (!src_->paged_->compressed() || t0 != 0 || t1 < src_->horizon()) {
      return {};
    }
    CachedEntity& slot = Fetch(e);
    // A failed fetch leaves the slot empty (entity stays invalid); report
    // "no packed form" so the caller falls through to the decoded path,
    // which returns empty data under the latched error.
    if (slot.entity != e) return {};
    const size_t off = slot.level_off[level - 1];
    return PackedIdListView(slot.packed.data() + off,
                            slot.packed.size() - off);
  }

  std::span<const CellId> CellsInWindow(EntityId e, Level level, TimeStep t0,
                                        TimeStep t1) override {
    DT_DCHECK(t0 <= t1);
    const auto all = Cells(e, level);
    // The unwindowed common case: every cell lies in [0, horizon).
    if (t0 == 0 && t1 >= src_->horizon()) return all;
    const uint32_t units = src_->hierarchy().units_at(level);
    const auto lo = std::lower_bound(all.begin(), all.end(),
                                     static_cast<CellId>(t0) * units);
    const auto hi = std::lower_bound(lo, all.end(),
                                     static_cast<CellId>(t1) * units);
    return {lo, hi};
  }

  uint32_t IntersectionSize(EntityId a, EntityId b, Level level) override {
    // Fetch both before taking spans: the second fetch may evict, the spans
    // taken after it cannot be invalidated by each other.
    Fetch(a);
    Fetch(b);
    return IntersectSortedSize(Cells(a, level), Cells(b, level));
  }

  uint32_t WindowedIntersectionSize(EntityId a, EntityId b, Level level,
                                    TimeStep t0, TimeStep t1) override {
    Fetch(a);
    Fetch(b);
    return IntersectSortedSize(CellsInWindow(a, level, t0, t1),
                               CellsInWindow(b, level, t0, t1));
  }

 private:
  CachedEntity& Fetch(EntityId e) {
    // Staleness probe: the serialization is point-in-time, so an entity
    // replaced on the live store after construction must fail loudly —
    // serving the pre-replacement bytes would silently desynchronize the
    // source from the index. Latch the error and serve empty data through
    // an emptied slot, exactly like an unrecoverable read fault.
    if (src_->live_store_->EntityReplacedSince(e, src_->snapshot_ordinal_)) {
      status_.Update(Status::FailedPrecondition(
          "paged trace snapshot is stale: entity replaced on the live store"));
      CachedEntity* slot = &slots_[0];
      MarkSlotEmpty(slot);
      slot->entity = kInvalidEntity;
      slot->last_used = ++tick_;
      mru_ = nullptr;
      return *slot;
    }
    // MRU shortcut: the scoring loop reads one entity's levels back to back.
    if (mru_ != nullptr && mru_->entity == e) {
      ++io_.cache_hits;
      return *mru_;
    }
    for (auto& slot : slots_) {
      if (slot.entity == e) {
        slot.last_used = ++tick_;
        ++io_.cache_hits;
        mru_ = &slot;
        return slot;
      }
    }
    // Miss: reuse the least-recently-used slot's buffers.
    CachedEntity* victim = &slots_[0];
    for (auto& slot : slots_) {
      if (slot.entity == kInvalidEntity) {
        victim = &slot;
        break;
      }
      if (slot.last_used < victim->last_used) victim = &slot;
    }
    Status st;
    PagedTraceStore::ReadStats rs;
    if (src_->paged_->compressed()) {
      st = src_->paged_->ReadEntityPacked(&*src_->pool_, e, &victim->packed,
                                          &rs);
      if (st.ok() && !ParseLevelOffsets(victim)) {
        st = Status::Corruption("trace record blobs failed to parse");
      }
    } else {
      st = src_->paged_->ReadEntity(&*src_->pool_, e, &victim->levels, &rs);
    }
    ChargePages(rs);
    victim->last_used = ++tick_;
    if (!st.ok()) {
      // Latch the first error and leave the slot EMPTY under an invalid
      // entity id: every read of it returns empty data (never stale bytes
      // from the record that previously occupied the buffers), and the
      // query loop turns the latch into a clean error at its next status
      // boundary.
      status_.Update(st);
      MarkSlotEmpty(victim);
      victim->entity = kInvalidEntity;
      mru_ = nullptr;
      return *victim;
    }
    ++io_.entities_fetched;
    io_.bytes_read += src_->paged_->entity_bytes(e);
    victim->entity = e;
    mru_ = victim;
    return *victim;
  }

  // Leaves `slot` holding valid-but-empty data for every level, with no
  // live references into its (possibly partially overwritten) buffers.
  void MarkSlotEmpty(CachedEntity* slot) {
    const size_t m = static_cast<size_t>(src_->hierarchy().num_levels());
    slot->levels.assign(m, {});
    slot->packed.clear();
    slot->level_off.assign(m, 0);
    // All levels "already decoded" (as empty): DecodedLevel must not walk
    // the cleared packed buffer.
    slot->decoded = ~uint64_t{0};
  }

  // Compressed mode: walks the packed record's self-delimiting blobs to
  // index each level's start, and invalidates the slot's decoded levels.
  // Returns false when the record's blobs do not tile its byte length —
  // corruption that slipped past the page checksums (possible only with
  // verification off).
  bool ParseLevelOffsets(CachedEntity* slot) {
    const int m = src_->hierarchy().num_levels();
    DT_CHECK_MSG(m <= 64, "decoded-level bitmask holds at most 64 levels");
    slot->level_off.resize(m);
    slot->levels.resize(m);
    slot->decoded = 0;
    size_t off = 0;
    for (int l = 0; l < m; ++l) {
      slot->level_off[l] = static_cast<uint32_t>(off);
      // The view knows each layout's blob length (small blobs embed none);
      // its bounds checks double as the walk's corruption guard.
      const PackedIdListView view(slot->packed.data() + off,
                                  slot->packed.size() - off);
      if (!view.valid()) return false;
      off += view.total_bytes();
    }
    return off == slot->packed.size();
  }

  // Returns the decoded cell span of `level`, decoding it out of the packed
  // record on first touch (compressed mode; a no-op pass-through otherwise).
  const std::vector<CellId>& DecodedLevel(CachedEntity& slot, Level level) {
    auto& v = slot.levels[level - 1];
    if (src_->paged_->compressed() &&
        (slot.decoded & (uint64_t{1} << (level - 1))) == 0) {
      const size_t off = slot.level_off[level - 1];
      if (DecodeIdList(slot.packed.data() + off, slot.packed.size() - off,
                       &v) == 0) {
        status_.Update(
            Status::Corruption("malformed id-list blob in trace record"));
        v.clear();
      }
      slot.decoded |= uint64_t{1} << (level - 1);
    }
    return v;
  }

  void ChargePages(const PagedTraceStore::ReadStats& rs) {
    io_.pages_read += rs.pages_read;
    io_.pages_hit += rs.pages_hit;
    io_.io_retries += rs.io_retries;
    io_.checksum_failures += rs.checksum_failures;
    io_.faults_injected += rs.faults_injected;
    // Queries never dirty pages, so modeled latency is reads only — the
    // same charge the SimDisk applied, attributed per call. (Retried
    // attempts charge like first attempts: every attempt spun the disk.)
    io_.modeled_io_seconds += static_cast<double>(rs.pages_read +
                                                  rs.io_retries) *
                              src_->disk_->read_latency_seconds();
  }

  const PagedTraceSource* src_;
  std::vector<CachedEntity> slots_;
  CachedEntity* mru_ = nullptr;  // points into slots_ (stable), or null
  uint64_t tick_ = 0;
};

PagedTraceSource::PagedTraceSource(const TraceStore& store,
                                   PagedTraceSource::Options options)
    : hierarchy_(&store.hierarchy()),
      live_store_(&store),
      num_entities_(store.num_entities()),
      horizon_(store.horizon()) {
  if (options.faults.has_value()) {
    auto faulty = std::make_unique<FaultInjectingDisk>(
        *options.faults, options.read_latency_seconds,
        options.write_latency_seconds);
    fault_disk_ = faulty.get();
    disk_ = std::move(faulty);
  } else {
    disk_ = std::make_unique<SimDisk>(options.read_latency_seconds,
                                      options.write_latency_seconds);
  }
  paged_ = std::make_unique<PagedTraceStore>(store, disk_.get(),
                                             options.compress);
  // Captured AFTER serialization: any replacement racing construction is
  // either fully in the serialized bytes or detected by the probe.
  snapshot_ordinal_ = store.mutation_ordinal();
  size_t capacity = options.pool_pages > 0
                        ? options.pool_pages
                        : std::max<size_t>(1, paged_->num_pages());
  if (options.pool_fraction > 0.0) {
    // Sized off the UNcompressed footprint (raw_bytes == data_bytes when
    // compress is off), so --compress runs compare at a fixed memory
    // budget: the same pool bytes now cover a larger share of the data,
    // which is exactly the win compression is buying.
    const auto raw_pages =
        static_cast<size_t>((paged_->raw_bytes() + kPageSize - 1) / kPageSize);
    capacity = std::max<size_t>(
        1, static_cast<size_t>(options.pool_fraction *
                               static_cast<double>(raw_pages)));
  }
  pool_.emplace(disk_.get(), capacity, /*num_shards=*/0,
                options.verify_checksums);
  // Serialization traffic is construction cost, not query I/O.
  disk_->ResetStats();
  // Arm last: the serialized snapshot is clean; faults start with queries.
  if (fault_disk_ != nullptr) fault_disk_->Arm();
}

std::unique_ptr<TraceCursor> PagedTraceSource::OpenCursor() const {
  return std::make_unique<PagedTraceCursor>(*this);
}

void PagedTraceSource::ResetStats() {
  pool_->ResetStats();
  disk_->ResetStats();
}

}  // namespace dtrace
