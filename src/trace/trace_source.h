#ifndef DTRACE_TRACE_TRACE_SOURCE_H_
#define DTRACE_TRACE_TRACE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "trace/spatial_hierarchy.h"
#include "trace/types.h"
#include "util/codec.h"
#include "util/counters.h"
#include "util/status.h"

namespace dtrace {

/// "Read the latest committed trace of every entity" — the as-of value that
/// makes a versioned cursor behave exactly like an unversioned one.
inline constexpr uint64_t kLatestVersion = UINT64_MAX;

/// I/O performed on behalf of one cursor (hence, one query). All-zero for
/// the in-memory source; the paged source charges every candidate
/// materialization here. Surfaced per query through QueryStats::io.
struct TraceIoStats {
  uint64_t entities_fetched = 0;  ///< records materialized from storage
  uint64_t pages_read = 0;        ///< buffer-pool misses (disk page reads)
  uint64_t pages_hit = 0;         ///< buffer-pool hits
  uint64_t bytes_read = 0;        ///< serialized bytes materialized
  uint64_t cache_hits = 0;        ///< cursor-cache hits (no pool traffic)
  /// Tree-page traffic (paged MinSigTree node/blob pages, charged by the
  /// tree cursor) — kept separate from the trace-page counters above so the
  /// two working sets are separately observable in one shared pool.
  uint64_t tree_pages_read = 0;  ///< tree-page pool misses (disk page reads)
  uint64_t tree_page_hits = 0;   ///< tree-page pool hits
  /// Fault accounting (DESIGN-storage.md "Fault model and integrity"):
  /// page-load attempts beyond the first, loads failing verification, and
  /// total faults this cursor's reads observed. All zero on a healthy disk.
  uint64_t io_retries = 0;
  uint64_t checksum_failures = 0;
  uint64_t faults_injected = 0;
  double modeled_io_seconds = 0.0;  ///< SimDisk modeled latency charged

  /// The one list of this struct's counters (util/counters.h): Add and
  /// QueryStats::ForEachCounter walk it.
  template <typename Visit>
  static constexpr void Fields(Visit&& visit) {
    visit("entities_fetched", &TraceIoStats::entities_fetched);
    visit("pages_read", &TraceIoStats::pages_read);
    visit("pages_hit", &TraceIoStats::pages_hit);
    visit("bytes_read", &TraceIoStats::bytes_read);
    visit("cache_hits", &TraceIoStats::cache_hits);
    visit("tree_pages_read", &TraceIoStats::tree_pages_read);
    visit("tree_page_hits", &TraceIoStats::tree_page_hits);
    visit("io_retries", &TraceIoStats::io_retries);
    visit("checksum_failures", &TraceIoStats::checksum_failures);
    visit("faults_injected", &TraceIoStats::faults_injected);
    visit("modeled_io_seconds", &TraceIoStats::modeled_io_seconds);
  }

  void Add(const TraceIoStats& o) { AddFields(*this, o); }
};
static_assert(NumFields<TraceIoStats>() * 8 == sizeof(TraceIoStats),
              "every TraceIoStats field needs an entry in Fields()");

/// Per-query read handle onto a TraceSource. Cursors are cheap to open, are
/// NOT thread-safe (each worker opens its own), and accumulate the I/O they
/// cause in io(). Returned spans stay valid only until the next cursor call
/// that touches a *different* entity: a paged cursor hands out views into its
/// bounded materialization cache, so take sizes/copies promptly. Within one
/// call — and for the intersection helpers — lifetime is handled internally.
class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  /// seq^level_e: sorted level-`level` cell ids of entity e.
  virtual std::span<const CellId> Cells(EntityId e, Level level) = 0;

  /// seq^level_e restricted to time steps [t0, t1).
  virtual std::span<const CellId> CellsInWindow(EntityId e, Level level,
                                                TimeStep t0, TimeStep t1) = 0;

  /// |seq^level_a ∩ seq^level_b|.
  virtual uint32_t IntersectionSize(EntityId a, EntityId b, Level level) = 0;

  /// |seq^level_a ∩ seq^level_b| restricted to time steps [t0, t1).
  virtual uint32_t WindowedIntersectionSize(EntityId a, EntityId b,
                                            Level level, TimeStep t0,
                                            TimeStep t1) = 0;

  /// Compressed-direct variant of CellsInWindow: when the cursor holds
  /// entity `e`'s level-`level` cells as an encoded id list (util/codec.h)
  /// covering exactly [t0, t1), returns a view over those encoded bytes so
  /// the caller can intersect block-by-block without a full decode. An
  /// invalid view means "no packed form for this window" — callers must
  /// fall back to CellsInWindow; both paths describe the same cell set.
  /// View lifetime matches CellsInWindow's span lifetime.
  virtual PackedIdListView PackedCellsInWindow(EntityId e, Level level,
                                               TimeStep t0, TimeStep t1) {
    (void)e;
    (void)level;
    (void)t0;
    (void)t1;
    return {};
  }

  /// I/O accumulated by this cursor since it was opened.
  const TraceIoStats& io() const { return io_; }

  /// Sticky error latch. The span-returning read methods cannot carry a
  /// Status, so a storage-backed cursor that hits an unrecoverable fault
  /// latches the FIRST error here and returns empty/zero data from then on;
  /// the query loop polls status() at its evaluation boundaries and turns a
  /// latched error into a clean TopKResult::status instead of scoring
  /// incomplete data. Always ok for the in-memory source.
  const Status& status() const { return status_; }

 protected:
  TraceIoStats io_;
  Status status_;
};

/// Where candidate traces are read from during a query. The query processor
/// is written against this interface only, so the storage layer sits *under*
/// the index rather than beside it: the same exact top-k search runs against
/// the in-memory TraceStore or against a disk-resident PagedTraceSource
/// (storage/paged_trace_source.h) without code changes. Implementations must
/// describe the same logical dataset as the store the index was built from.
///
/// OpenCursor() must be safe to call concurrently; the returned cursors are
/// single-threaded but may share backing state (the paged source serializes
/// buffer-pool access internally).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual const SpatialHierarchy& hierarchy() const = 0;
  virtual uint32_t num_entities() const = 0;
  virtual TimeStep horizon() const = 0;

  virtual std::unique_ptr<TraceCursor> OpenCursor() const = 0;

  /// Opens a cursor that reads entity traces as of commit version `as_of`:
  /// an entity replaced by a commit stamped v is served its NEW trace iff
  /// v <= as_of, its pre-replace trace otherwise. This is what lets a query
  /// pinned at an epoch version keep reading the trace state matching its
  /// pinned tree while writers commit replacements underneath it
  /// (DESIGN-sharding.md "Concurrency model"). Only versioned() sources
  /// distinguish versions; the default forwards to OpenCursor(), which is
  /// correct for sources that are immutable snapshots (PagedTraceSource).
  virtual std::unique_ptr<TraceCursor> OpenCursorAt(uint64_t as_of) const {
    (void)as_of;
    return OpenCursor();
  }

  /// True iff OpenCursorAt distinguishes versions — i.e. cursors opened at
  /// different as_of values may return different data. Callers use this to
  /// decide whether two cursors over the same source are interchangeable.
  virtual bool versioned() const { return false; }
};

/// |a ∩ b| over two sorted, deduplicated cell-id ranges (shared by cursor
/// implementations and TraceStore). Balanced inputs use a linear merge; when
/// one side is more than 8x longer, a galloping merge probes the long side
/// exponentially from the last match position and binary-searches the
/// bracketed window — O(|short| log(|long|/|short|)) instead of
/// O(|short| + |long|). Both branches count the same set, so the result is
/// identical either way.
inline uint32_t IntersectSortedSize(std::span<const CellId> a,
                                    std::span<const CellId> b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the short side
  if (a.empty()) return 0;
  uint32_t n = 0;
  if (b.size() > 8 * a.size()) {
    size_t base = 0;  // everything before `base` in b is < the current key
    for (CellId x : a) {
      size_t step = 1;
      while (base + step < b.size() && b[base + step] < x) step <<= 1;
      const auto first = b.begin() + static_cast<ptrdiff_t>(base);
      const auto last =
          b.begin() +
          static_cast<ptrdiff_t>(std::min(base + step + 1, b.size()));
      base = static_cast<size_t>(std::lower_bound(first, last, x) - b.begin());
      if (base < b.size() && b[base] == x) {
        ++n;
        ++base;
      }
      if (base >= b.size()) break;
    }
    return n;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace dtrace

#endif  // DTRACE_TRACE_TRACE_SOURCE_H_
