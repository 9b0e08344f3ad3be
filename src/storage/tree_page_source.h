#ifndef DTRACE_STORAGE_TREE_PAGE_SOURCE_H_
#define DTRACE_STORAGE_TREE_PAGE_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/sim_disk.h"
#include "util/status.h"

namespace dtrace {

/// Where a packed MinSigTree's pages live and how queries pin them
/// (core/paged_min_sig_tree.h owns one). The packer drives the write side
/// once — Allocate, WritePage in any order, Finalize — and queries then use
/// only the pin side. Pin/Unpin must be safe to call concurrently (cursors
/// from different query workers share the store); the write side is
/// single-threaded and happens strictly before any pin *on this store*.
/// (Readers may concurrently pin an older snapshot's store over the same
/// shared disk/pool while this one packs — SimDisk::Allocate is latched and
/// append-only, and the pool synchronizes frame ownership.)
///
/// Pin discipline (also DESIGN-paged-index.md): a tree cursor holds at most
/// ONE pin at a time and copies what it needs out of the frame before
/// pinning the next page. That bounds each cursor's footprint in a shared
/// pool to a single frame, so a pool also serving trace records can never
/// be exhausted by tree readers, and no lock order exists between tree and
/// trace pins (they are never held together by one thread).
class TreePageSource {
 public:
  virtual ~TreePageSource() = default;

  /// Reserves exactly `num_pages` pages, ids [0, num_pages). Called once,
  /// before any WritePage.
  virtual void Allocate(size_t num_pages) = 0;

  /// Writes page `index`. Packing emits the three page regions interleaved
  /// (a node page completes every 151 nodes, a blob page every 1024
  /// entries), hence writes arrive out of index order.
  virtual void WritePage(uint32_t index, const Page& page) = 0;

  /// Called once after the last WritePage; a disk-backed store sizes its
  /// buffer pool here (pool fractions resolve against the final page
  /// count). No pin may happen before this.
  virtual void Finalize() = 0;

  /// Overrides the page count pool_fraction resolves against at Finalize
  /// (0 = the packed page count). The packer passes the FIXED layout's
  /// page count, so a compressed pack keeps the same absolute pool bytes
  /// as the uncompressed one — the fixed-memory-budget comparison where
  /// compression shows up as hit rate, not as a smaller pool. No-op for
  /// stores without a pool.
  virtual void SetPoolSizingPages(size_t) {}

  virtual size_t num_pages() const = 0;

  /// Pins page `index` for reading and sets `*out` to the frame bytes;
  /// `outcome` (optional) reports the per-call page outcome — miss/hit plus
  /// retry/fault counts — same contract as BufferPool::Pin. On a non-ok
  /// return the page could not be loaded (fault schedule exhausted the
  /// pool's retries), nothing is pinned, and `*out` is untouched; callers
  /// surface the error instead of reading. Balanced by Unpin only on ok.
  virtual Status Pin(uint32_t index, const uint8_t** out,
                     BufferPool::PinOutcome* outcome) const = 0;
  virtual void Unpin(uint32_t index) const = 0;

  /// Modeled seconds a missed pin costs (0 for in-memory stores).
  virtual double read_latency_seconds() const = 0;

  /// The backing pool, when there is one (null for in-memory stores).
  virtual const BufferPool* pool() const { return nullptr; }

  /// Tells the store its backing disk/pool may no longer be alive, so its
  /// destructor must not reach into them (it leaks the pages instead of
  /// reclaiming). Called on the final published snapshot during index
  /// teardown, where a shared disk/pool's owner may legally have been
  /// destroyed first; every OTHER retirement path (repack, repair,
  /// re-enable) runs while the backing is alive and reclaims.
  /// No-op for stores that own their backing.
  virtual void AbandonBacking() const {}
};

/// Deterministic default: pages live in heap memory, every pin hits.
/// Queries through it charge tree_page_hits but never tree_pages_read —
/// the paged layout without the paging, the oracle for the disk-backed
/// configurations.
class InMemoryTreePageStore final : public TreePageSource {
 public:
  void Allocate(size_t num_pages) override;
  void WritePage(uint32_t index, const Page& page) override;
  void Finalize() override {}
  size_t num_pages() const override { return pages_.size(); }
  Status Pin(uint32_t index, const uint8_t** out,
             BufferPool::PinOutcome* outcome) const override;
  void Unpin(uint32_t) const override {}
  double read_latency_seconds() const override { return 0.0; }

 private:
  // unique_ptr per page: stable addresses and 16-byte heap alignment.
  std::vector<std::unique_ptr<Page>> pages_;
};

/// Scaling mode: pages live on a SimDisk and every pin goes through a
/// sharded BufferPool, tagged PoolClient::kTree. Two configurations:
///
///  - Private (default-constructible Options): the store owns its disk
///    (SimDisk's default HDD-class latencies) and its auto-sharded pool;
///    Options caps the pool below the packed size to make queries fault
///    tree pages in and out (the paged-index experiment).
///  - Shared: constructed over an existing disk + pool (e.g. a
///    PagedTraceSource's), so trace records and tree pages compete for the
///    same frames; BufferPool::Stats::client_* shows the split.
class SimDiskTreePageStore final : public TreePageSource {
 public:
  struct Options {
    /// Pool capacity in pages. 0 = every tree page fits.
    size_t pool_pages = 0;
    /// When > 0, overrides pool_pages with max(1, pool_fraction *
    /// num_pages()) — resolved at Finalize, so callers need not know the
    /// packed page count up front.
    double pool_fraction = 0.0;
    /// When set, the private disk is a FaultInjectingDisk with this plan.
    /// Packing runs disarmed (writes are clean); Finalize arms the disk so
    /// faults hit only the query-time pin path. Ignored in shared mode
    /// (the shared disk's owner decides).
    std::optional<FaultInjectionConfig> faults;
    /// Verify per-page checksums on every private-pool frame load. Ignored
    /// in shared mode (the shared pool's setting applies).
    bool verify_checksums = true;
  };

  explicit SimDiskTreePageStore(Options options);
  /// Shared mode: allocate on `disk` and pin through `pool`, both owned by
  /// someone else (and already usable — the trace source has serialized).
  /// Options' pool knobs are ignored; both pointers must outlive the store.
  SimDiskTreePageStore(SimDisk* disk, BufferPool* pool);

  /// Shared mode returns this store's pages to the shared disk's free list
  /// (discarding any resident pool frames first), so a retired snapshot's
  /// footprint is reclaimed when its refcount drains and a churn loop's
  /// disk size plateaus instead of growing per repack. Destruction happens
  /// strictly after the last pin (PagedMinSigTree is destroyed by the last
  /// shared_ptr holder), so no frame is pinned and none is dirty (tree
  /// pages are written pre-Finalize, never through the pool). Skipped
  /// after AbandonBacking (index teardown: the borrowed disk/pool may
  /// already be gone). Private mode owns its disk/pool outright and just
  /// drops them.
  ~SimDiskTreePageStore() override;

  void AbandonBacking() const override {
    abandoned_.store(true, std::memory_order_release);
  }

  void Allocate(size_t num_pages) override;
  void WritePage(uint32_t index, const Page& page) override;
  void Finalize() override;
  void SetPoolSizingPages(size_t pages) override {
    pool_sizing_pages_ = pages;
  }
  size_t num_pages() const override { return page_ids_.size(); }
  Status Pin(uint32_t index, const uint8_t** out,
             BufferPool::PinOutcome* outcome) const override;
  void Unpin(uint32_t index) const override;
  double read_latency_seconds() const override {
    return disk_->read_latency_seconds();
  }
  const BufferPool* pool() const override { return pool_; }

  const SimDisk& disk() const { return *disk_; }
  size_t pool_pages() const { return pool_->capacity(); }

  /// The backing disk as a fault injector, or nullptr when it is a plain
  /// SimDisk (covers both the private Options::faults disk and a shared
  /// fault-injecting disk borrowed from a PagedTraceSource).
  FaultInjectingDisk* fault_disk() const { return fault_disk_; }

 private:
  Options options_;
  // Private mode owns these; shared mode leaves them empty and uses the
  // borrowed pointers below.
  std::unique_ptr<SimDisk> owned_disk_;
  mutable std::optional<BufferPool> owned_pool_;
  SimDisk* disk_ = nullptr;
  BufferPool* pool_ = nullptr;  // null until Finalize in private mode
  FaultInjectingDisk* fault_disk_ = nullptr;  // disk_ downcast, or nullptr
  bool rearm_at_finalize_ = false;  // Allocate disarmed an armed fault disk
  size_t pool_sizing_pages_ = 0;  // pool_fraction basis; 0 = packed count
  std::vector<PageId> page_ids_;  // tree page index -> disk page id
  // Set by AbandonBacking (possibly via a const snapshot ref) and read by
  // the destructor: suppresses the shared-mode page reclaim.
  mutable std::atomic<bool> abandoned_{false};
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_TREE_PAGE_SOURCE_H_
