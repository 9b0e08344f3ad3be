#ifndef DTRACE_STORAGE_PAGED_TRACE_STORE_H_
#define DTRACE_STORAGE_PAGED_TRACE_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/sim_disk.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/status.h"

namespace dtrace {

/// Disk-resident copy of a TraceStore: every entity's per-level ST-cell sets
/// are serialized contiguously onto SimDisk pages, with an in-memory
/// directory of (byte offset, byte length) per entity. Reads go through a
/// BufferPool so the memory-size experiment (Sec. 7.6) can vary the fraction
/// of the data that fits in memory and charge modeled I/O for the rest.
///
/// On-disk entity layout: for each level l in 1..m, a uint32 count followed
/// by count uint32 cell ids. With `compress`, each level is instead one
/// delta-packed id-list blob (util/codec.h EncodeIdList, self-delimiting),
/// blobs back to back with no page-tail padding — encoded bytes may
/// straddle pages, so readers copy the record out before decoding.
class PagedTraceStore {
 public:
  /// Pool outcomes of one read, reported per call so concurrent readers can
  /// charge their own cursors exactly instead of diffing shared counters.
  struct ReadStats {
    uint64_t pages_read = 0;  // pool misses (real SimDisk page reads)
    uint64_t pages_hit = 0;   // pool hits
    // Fault accounting, straight from BufferPool::PinOutcome: load attempts
    // beyond the first, loads that failed page verification, and total
    // faults this reader's pins observed.
    uint64_t io_retries = 0;
    uint64_t checksum_failures = 0;
    uint64_t faults_injected = 0;

    void Charge(const BufferPool::PinOutcome& o) {
      if (o.missed) {
        ++pages_read;
      } else {
        ++pages_hit;
      }
      io_retries += o.io_retries;
      checksum_failures += o.checksum_failures;
      faults_injected += o.faults_injected;
    }
  };

  /// Serializes `store` onto `disk`.
  PagedTraceStore(const TraceStore& store, SimDisk* disk,
                  bool compress = false);

  /// Number of data pages used.
  size_t num_pages() const { return pages_.size(); }

  /// Total serialized bytes.
  uint64_t data_bytes() const { return data_bytes_; }

  bool compressed() const { return compressed_; }

  /// What the UNcompressed serialization of the same store occupies
  /// (data_bytes() when compression is off) — the denominator of the
  /// compression ratio the benches report.
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Serialized bytes of entity `e`'s record.
  uint64_t entity_bytes(EntityId e) const { return dir_[e].bytes; }

  /// Reads entity `e`'s full record through `pool` into `out` (resized to m
  /// levels; inner vectors are reused, so a caller cycling records through a
  /// bounded cache allocates nothing in steady state). Cell values are
  /// decoded straight out of the pinned frames — no intermediate byte-stream
  /// copy. Per-page pool outcomes are accumulated into `stats` when given.
  /// Safe to call concurrently (the pool is internally synchronized).
  ///
  /// On error (`*out` contents unspecified) the page walk stops at the
  /// failed pin — IoError/Corruption from the pool, or Corruption when a
  /// compressed record's blobs fail to decode cleanly.
  Status ReadEntity(BufferPool* pool, EntityId e,
                    std::vector<std::vector<CellId>>* out,
                    ReadStats* stats = nullptr) const;

  /// Convenience overload returning fresh vectors; aborts on a read error
  /// (tests, tooling — no fault source configured).
  std::vector<std::vector<CellId>> ReadEntity(BufferPool* pool,
                                              EntityId e) const;

  /// Compressed stores only: copies entity `e`'s raw encoded record (m
  /// concatenated id-list blobs) through `pool` into `out` (resized;
  /// capacity reused) WITHOUT decoding — the cursor keeps the packed form
  /// resident and decodes levels lazily, or intersects them block-wise
  /// without decoding at all. On error, `*out` contents are unspecified.
  Status ReadEntityPacked(BufferPool* pool, EntityId e,
                          std::vector<uint8_t>* out,
                          ReadStats* stats = nullptr) const;

 private:
  struct DirEntry {
    uint64_t offset;  // byte offset into the logical data area
    uint64_t bytes;
  };

  int m_;
  bool compressed_ = false;
  std::vector<PageId> pages_;
  std::vector<DirEntry> dir_;
  uint64_t data_bytes_ = 0;
  uint64_t raw_bytes_ = 0;
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_PAGED_TRACE_STORE_H_
