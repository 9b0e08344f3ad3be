#ifndef DTRACE_STORAGE_PAGED_TRACE_SOURCE_H_
#define DTRACE_STORAGE_PAGED_TRACE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/paged_trace_store.h"
#include "storage/sim_disk.h"
#include "trace/trace_source.h"
#include "trace/trace_store.h"

namespace dtrace {

/// Disk-resident TraceSource: serializes a TraceStore onto a SimDisk at
/// construction and serves every subsequent read through a sharded LRU
/// BufferPool, so queries run against it perform *real* page traffic
/// (Sec. 7.6's regime).
///
/// There is no source-wide lock: the pool synchronizes per shard (disk I/O
/// happens outside shard mutexes), so cursors from concurrent QueryMany
/// workers and sharded lane groups miss on different shards in parallel.
/// Each cursor keeps a small per-query materialization cache of decoded
/// entity records; cache hits touch no shared state at all. Cache misses read through the
/// pool and charge the *per-call* page outcomes to that cursor's
/// TraceIoStats — accounting stays exact under any concurrency because no
/// shared counters are diffed.
///
/// `store` (and its hierarchy) must outlive the source. The serialization is
/// a point-in-time snapshot: reads serve the traces as of construction. A
/// ReplaceEntity committed on the live store afterwards is NOT reflected —
/// and is not silently ignored either: cursors probe the store's mutation
/// ordinal per fetched entity and latch a kFailedPrecondition ("snapshot is
/// stale") instead of serving pre-replacement bytes. Rebuild the source to
/// pick up replacements.
class PagedTraceSource final : public TraceSource {
 public:
  struct Options {
    /// Buffer-pool capacity in pages. 0 = every data page fits (cold reads
    /// only).
    size_t pool_pages = 0;
    /// When > 0, overrides pool_pages with max(1, pool_fraction *
    /// ceil(raw_bytes() / kPageSize)) — the "memory size as a fraction of
    /// the data" axis of Sec. 7.6, resolved after serialization so callers
    /// need not know the page count up front. The basis is the
    /// UNcompressed footprint (== num_pages() when `compress` is off), so
    /// compressed runs keep the same absolute pool bytes and compression
    /// shows up as hit rate rather than as a proportionally smaller pool.
    double pool_fraction = 0.0;
    /// Serialize compressed (util/codec.h): each level becomes one
    /// delta-packed id-list blob, and cursors keep the packed record
    /// resident — decoding levels lazily into reused buffers, or handing
    /// the encoded blocks straight to the intersection kernel via
    /// PackedCellsInWindow. Results and every search counter stay
    /// bit-identical to uncompressed; only page counts shrink. Default off.
    bool compress = false;
    /// Modeled per-page latencies charged by the SimDisk (default HDD-class
    /// 4K random access; Fig. 7.6 uses 5 ms seek-dominated values).
    double read_latency_seconds = 100e-6;
    double write_latency_seconds = 100e-6;
    /// When set, the backing disk is a FaultInjectingDisk with this
    /// seed-scheduled fault plan. Serialization runs disarmed (fault-free);
    /// the disk is armed as construction finishes, so faults hit only the
    /// query-time read path. Default: a plain fault-free SimDisk.
    std::optional<FaultInjectionConfig> faults;
    /// Verify the per-page checksum on every buffer-pool frame load (the
    /// integrity gate that turns silent torn/flipped pages into retries or
    /// clean Corruption errors). On by default.
    bool verify_checksums = true;
  };

  PagedTraceSource(const TraceStore& store, Options options);
  explicit PagedTraceSource(const TraceStore& store)
      : PagedTraceSource(store, Options{}) {}

  const SpatialHierarchy& hierarchy() const override { return *hierarchy_; }
  uint32_t num_entities() const override { return num_entities_; }
  TimeStep horizon() const override { return horizon_; }
  std::unique_ptr<TraceCursor> OpenCursor() const override;

  size_t num_pages() const { return paged_->num_pages(); }
  uint64_t data_bytes() const { return paged_->data_bytes(); }
  bool compressed() const { return paged_->compressed(); }
  uint64_t raw_bytes() const { return paged_->raw_bytes(); }
  size_t pool_shards() const { return pool_->num_shards(); }

  /// Lifetime pool/disk counters (across every cursor). The pool aggregates
  /// its shards internally, so safe to call while queries run.
  BufferPool::Stats pool_stats() const { return pool_->stats(); }
  uint64_t disk_reads() const { return disk_->reads(); }

  /// Clears pool and disk counters (resident pages stay warm).
  void ResetStats();

  /// The backing disk and pool, for co-locating OTHER page traffic with the
  /// trace data (PagedTreeOptions::shared_disk/shared_pool puts a paged
  /// MinSigTree's node pages on this disk, behind this pool, so tree and
  /// trace working sets compete for the same frames). Callers must not
  /// write pages the source allocated.
  SimDisk* disk() const { return disk_.get(); }
  BufferPool* pool() const { return &*pool_; }

  /// The backing disk as a fault injector, or nullptr when Options::faults
  /// was not set (tests arm/disarm and read FaultStats through this).
  FaultInjectingDisk* fault_disk() const { return fault_disk_; }

 private:
  friend class PagedTraceCursor;

  const SpatialHierarchy* hierarchy_;
  const TraceStore* live_store_;  // staleness probe (see class comment)
  uint64_t snapshot_ordinal_;     // store mutation ordinal at serialization
  uint32_t num_entities_;
  TimeStep horizon_;
  std::unique_ptr<SimDisk> disk_;
  FaultInjectingDisk* fault_disk_ = nullptr;  // disk_.get() or nullptr
  std::unique_ptr<PagedTraceStore> paged_;
  mutable std::optional<BufferPool> pool_;
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_PAGED_TRACE_SOURCE_H_
