#ifndef DTRACE_CORE_PAGED_MIN_SIG_TREE_H_
#define DTRACE_CORE_PAGED_MIN_SIG_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/min_sig_tree.h"
#include "core/tree_source.h"
#include "storage/tree_page_source.h"
#include "trace/types.h"

namespace dtrace {

/// How DigitalTraceIndex::EnablePagedTree builds the paged snapshot.
struct PagedTreeOptions {
  enum class Backing {
    /// Deterministic in-memory page store (the default): the SoA layout
    /// without the paging. Pins always hit, so queries charge
    /// tree_page_hits but no tree_pages_read and no modeled latency.
    kInMemory,
    /// SimDisk + BufferPool behind the pages (the scaling mode): capping
    /// `disk.pool_pages` / `disk.pool_fraction` below the packed size makes
    /// queries fault tree pages in and out.
    kSimDisk,
  };
  Backing backing = Backing::kInMemory;
  /// Compress the packed snapshot (util/codec.h): node pages switch to the
  /// per-column frame-of-reference layout (variable capacity, resident
  /// first-node table), child/entity blobs to delta-packed id lists
  /// addressed by byte offset. Queries decode through the cursor's reused
  /// buffers; results and every search counter stay bit-identical — only
  /// page counts (hence tree_pages_read) shrink. Default off.
  bool compress = false;
  /// Keep resident zone maps — per node slot, its (level, routing) and a
  /// 1-byte quantized value floor (storage/tree_page.h) — so the search can
  /// reject a frontier entry from an admissible resident bound without
  /// faulting its page in. Off only for the ablation the zone-map test
  /// measures against.
  bool zone_maps = true;
  /// Knobs of the private SimDisk/pool (kSimDisk backing only).
  SimDiskTreePageStore::Options disk;
  /// When both are set, tree pages are allocated on this existing disk and
  /// pinned through this existing pool (e.g. a PagedTraceSource's), so
  /// trace records and tree pages compete for the same frames; overrides
  /// `backing`/`disk`. Both must outlive the paged tree.
  SimDisk* shared_disk = nullptr;
  BufferPool* shared_pool = nullptr;
};

/// An immutable packed snapshot of a MinSigTree: every node's
/// (level, routing, value, children, entities) in fixed-size SoA pages
/// (storage/tree_page.h) behind a TreePageSource, plus resident per-page
/// zone maps. Node ids equal the source tree's node indices, so a paged
/// search visits the same ids as the in-memory search — which is what the
/// differential harness leans on.
///
/// The snapshot is read-only by design: maintenance mutates variable-length
/// node state (child lists grow, leaf lists grow) that fixed pages cannot
/// absorb in place, so DigitalTraceIndex keeps the in-memory tree
/// authoritative and repacks a FRESH snapshot on the writer side of each
/// maintenance commit, publishing it atomically as the new head
/// (DESIGN-sharding.md "Concurrency model"). Immutability is what makes
/// that cheap: readers pin a snapshot via shared_ptr
/// (DigitalTraceIndex::PinForRead) and keep walking it after the head
/// moves on; a retired snapshot is destroyed when its last pin drops, at
/// which point its shared-disk pages are discarded from the pool and
/// returned to the disk's free list (~SimDiskTreePageStore), so a churn of
/// repacks reuses pages instead of growing the disk without bound.
/// Full-signature trees are rejected at Pack — the
/// ablation mode stores nh values per node, which the fixed slot layout
/// deliberately does not carry.
class PagedMinSigTree final : public TreeSource {
 public:
  /// Packs `tree` into `store` (two streaming passes: totals, then pages —
  /// transient memory is three page buffers regardless of tree size). With
  /// `compress`, both passes run the compressed layouts instead (the sizing
  /// pass simulates the page builder so every page index is still known
  /// before any write).
  static PagedMinSigTree Pack(const MinSigTree& tree,
                              std::unique_ptr<TreePageSource> store,
                              bool zone_maps = true, bool compress = false);
  /// Convenience: builds the store `options` describes, then packs.
  static PagedMinSigTree Pack(const MinSigTree& tree,
                              const PagedTreeOptions& options);

  // TreeSource.
  uint32_t root() const override { return 0; }
  int num_levels() const override { return m_; }
  int num_functions() const override { return nh_; }
  size_t num_entities() const override { return num_entities_; }
  bool Contains(EntityId e) const override {
    return (e >> 6) < contains_.size() &&
           ((contains_[e >> 6] >> (e & 63)) & 1) != 0;
  }
  std::unique_ptr<TreeNodeCursor> OpenNodeCursor() const override;

  size_t num_nodes() const { return num_nodes_; }
  size_t num_pages() const { return store_->num_pages(); }
  size_t node_pages() const { return node_pages_; }
  /// Total packed size — what a buffer pool capacity should be compared
  /// against to know whether the index fits.
  uint64_t PackedBytes() const { return num_pages() * kPageSize; }
  bool compressed() const { return compressed_; }
  /// What the UNcompressed layout of the same tree occupies — PackedBytes()
  /// when compression is off; the compressed_bytes/raw_bytes ratio the
  /// benches report is PackedBytes()/RawBytes().
  uint64_t RawBytes() const { return raw_bytes_; }
  bool zone_maps() const { return !zone_code_.empty(); }

  /// Number of unrecoverable-page observations (pins that exhausted the
  /// pool's retries, or blobs that failed decode) made by this snapshot's
  /// cursors so far. The quarantine path (core/index.cc) consults this
  /// after a failed query: a nonzero count means the snapshot itself is
  /// damaged and repacking it from the authoritative in-memory tree — onto
  /// fresh pages — repairs it. Never cleared: a damaged snapshot stays
  /// damaged, so every query that failed on it sees a nonzero count, in
  /// whatever order they ask. Thread-safe.
  uint64_t CorruptObserved() const {
    return corrupt_observed_->load(std::memory_order_relaxed);
  }
  /// Resident zone-map footprint (the 4 bytes/slot the search keeps in
  /// memory to avoid faults; compare against PackedBytes).
  uint64_t ZoneBytes() const {
    return zone_code_.size() + zone_routing_.size() * sizeof(uint16_t) +
           zone_node_level_.size();
  }
  const TreePageSource& page_store() const { return *store_; }

  /// Index teardown: the snapshot's shared disk/pool may already be
  /// destroyed, so tell the page store not to reclaim into them
  /// (TreePageSource::AbandonBacking).
  void AbandonBacking() const { store_->AbandonBacking(); }

 private:
  friend class PagedNodeCursor;
  PagedMinSigTree() = default;

  /// The compressed twin of Pack's two passes (sizing simulates the page
  /// builder so boundaries are known before any write).
  static void PackCompressed(const MinSigTree& tree, TreePageSource* store,
                             bool zone_maps, EntityId max_entity,
                             PagedMinSigTree* out);

  int m_ = 0;
  int nh_ = 0;
  size_t num_nodes_ = 0;
  size_t num_entities_ = 0;
  uint32_t node_pages_ = 0;
  uint32_t child_base_ = 0;   // first child-blob page index
  uint32_t entity_base_ = 0;  // first entity-blob page index
  bool compressed_ = false;
  uint64_t raw_bytes_ = 0;
  // Compressed mode only: first node id of each node page (+ a num_nodes_
  // sentinel) — variable page capacity needs a directory where the fixed
  // layout uses arithmetic. 4 bytes per ~page of nodes, resident.
  std::vector<uint32_t> node_page_first_;
  // Resident zone maps (empty = disabled). Per node SLOT: the exact level
  // and routing plus the quantized value floor — the summary Zone() serves
  // without faulting. Per-page aggregates alone cannot reject anything
  // (node values are column minima; one weak slot poisons a 151-node
  // aggregate — see DESIGN-paged-index.md), so the page headers' zone
  // fields stay on the page and have no resident copy.
  std::vector<uint8_t> zone_code_;      // EncodeZoneValue(node value)
  std::vector<uint16_t> zone_routing_;  // node routing index
  std::vector<uint8_t> zone_node_level_;
  std::vector<uint64_t> contains_;  // bitset over entity ids
  // Heap-held so the snapshot stays movable (Pack returns by value);
  // incremented by cursors on any unrecoverable page observation.
  std::unique_ptr<std::atomic<uint64_t>> corrupt_observed_ =
      std::make_unique<std::atomic<uint64_t>>(0);
  std::unique_ptr<TreePageSource> store_;
};

}  // namespace dtrace

#endif  // DTRACE_CORE_PAGED_MIN_SIG_TREE_H_
