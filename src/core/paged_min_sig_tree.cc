#include "core/paged_min_sig_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "storage/tree_page.h"
#include "util/check.h"
#include "util/codec.h"

namespace dtrace {

namespace {

// One blob region's streaming writer: fills a page buffer entry by entry
// and writes it out at its final index the moment it completes, so packing
// keeps one transient page per region no matter how large the tree is.
class BlobWriter {
 public:
  BlobWriter(TreePageSource* store, uint32_t base_page)
      : store_(store), next_page_(base_page) {
    buf_.data.fill(0);
  }

  void Put(uint32_t v) {
    std::memcpy(buf_.data.data() + sizeof(uint32_t) * fill_, &v,
                sizeof(uint32_t));
    if (++fill_ == kTreeBlobEntriesPerPage) Flush();
  }

  void Close() {
    if (fill_ > 0) Flush();
  }

 private:
  void Flush() {
    store_->WritePage(next_page_++, buf_);
    buf_.data.fill(0);
    fill_ = 0;
  }

  TreePageSource* store_;
  uint32_t next_page_;
  Page buf_;
  size_t fill_ = 0;
};

// The compressed twin of BlobWriter: blob regions hold encoded byte streams
// (EncodeIdList output back to back), so the writer fills pages with raw
// bytes instead of 4-byte elements.
class ByteBlobWriter {
 public:
  ByteBlobWriter(TreePageSource* store, uint32_t base_page)
      : store_(store), next_page_(base_page) {
    buf_.data.fill(0);
  }

  void Put(const uint8_t* data, size_t n) {
    while (n > 0) {
      const size_t take = std::min(n, kPageSize - fill_);
      std::memcpy(buf_.data.data() + fill_, data, take);
      fill_ += take;
      data += take;
      n -= take;
      if (fill_ == kPageSize) Flush();
    }
  }

  void Close() {
    if (fill_ > 0) Flush();
  }

 private:
  void Flush() {
    store_->WritePage(next_page_++, buf_);
    buf_.data.fill(0);
    fill_ = 0;
  }

  TreePageSource* store_;
  uint32_t next_page_;
  Page buf_;
  size_t fill_ = 0;
};

}  // namespace

// Per-query cursor over the packed pages. Holds at most one pin at a time:
// node scalars are copied out of the node page before the blob pages are
// touched, and blob spans are copied page by page into reusable buffers —
// so a cursor can never exhaust a shared pool, and the returned spans stay
// valid until the next Node() call, exactly the TreeNodeView contract.
class PagedNodeCursor final : public TreeNodeCursor {
 public:
  explicit PagedNodeCursor(const PagedMinSigTree* tree) : tree_(tree) {}

  TreeNodeView Node(uint32_t id) override {
    DT_CHECK(id < tree_->num_nodes_);
    // On any unrecoverable read the cursor latches status_ (inside the
    // helpers) and returns an EMPTY view — level 0, no children, no
    // entities — so a caller that misses the status poll expands nothing
    // rather than scoring garbage.
    TreeNodeRecord rec;
    if (tree_->compressed_) {
      // Variable page capacity: the resident first-node table replaces the
      // fixed layout's arithmetic addressing.
      const auto& first = tree_->node_page_first_;
      const uint32_t page = static_cast<uint32_t>(
          std::upper_bound(first.begin(), first.end(), id) - first.begin() -
          1);
      const uint8_t* p = nullptr;
      if (!PinCharged(page, &p)) return {};
      rec = LoadCompressedTreeNode(p, id - first[page]);
      tree_->store_->Unpin(page);
      // In compressed records (off, count) are encoded-blob byte spans;
      // element counts come out of the decode.
      if (!DecodeBlobList(tree_->child_base_, rec.child_off, rec.child_count,
                          &children_) ||
          !DecodeBlobList(tree_->entity_base_, rec.entity_off,
                          rec.entity_count, &entities_)) {
        return {};
      }
    } else {
      const uint32_t page = id / static_cast<uint32_t>(kTreeNodesPerPage);
      const size_t slot = id % kTreeNodesPerPage;
      const uint8_t* p = nullptr;
      if (!PinCharged(page, &p)) return {};
      rec = LoadTreeNode(p, slot);
      tree_->store_->Unpin(page);
      if (!CopyBlob(tree_->child_base_, rec.child_off, rec.child_count,
                    &children_) ||
          !CopyBlob(tree_->entity_base_, rec.entity_off, rec.entity_count,
                    &entities_)) {
        return {};
      }
    }
    return {static_cast<Level>(rec.level),
            static_cast<int>(rec.routing),
            rec.value,
            {children_.data(), children_.size()},
            {entities_.data(), entities_.size()},
            /*full_sig=*/{}};
  }

  std::optional<TreeNodeZone> Zone(uint32_t id) const override {
    if (tree_->zone_code_.empty()) return std::nullopt;
    return TreeNodeZone{static_cast<Level>(tree_->zone_node_level_[id]),
                        static_cast<int>(tree_->zone_routing_[id]),
                        DecodeZoneValueFloor(tree_->zone_code_[id])};
  }

  bool has_zone_maps() const override { return !tree_->zone_code_.empty(); }

 private:
  // Pins `page`, charges its per-call outcome to io_, and sets *out. On an
  // unrecoverable load: latches status_, bumps the tree's corrupt-observed
  // counter (the quarantine signal), and returns false with *out untouched.
  bool PinCharged(uint32_t page, const uint8_t** out) {
    BufferPool::PinOutcome o;
    const Status st = tree_->store_->Pin(page, out, &o);
    if (o.missed) {
      ++io_.tree_pages_read;
      io_.modeled_io_seconds += tree_->store_->read_latency_seconds();
    } else if (st.ok()) {
      ++io_.tree_page_hits;
    }
    io_.io_retries += o.io_retries;
    io_.checksum_failures += o.checksum_failures;
    io_.faults_injected += o.faults_injected;
    // Each retry is a real disk read; charge its modeled latency too.
    io_.modeled_io_seconds +=
        o.io_retries * tree_->store_->read_latency_seconds();
    if (!st.ok()) {
      status_.Update(st);
      tree_->corrupt_observed_->fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Copies blob elements [off, off + count) of the region starting at
  // `base_page` into `out`, one pinned page at a time. False (with status_
  // latched) when a page cannot be loaded.
  bool CopyBlob(uint32_t base_page, uint32_t off, uint32_t count,
                std::vector<uint32_t>* out) {
    out->resize(count);
    size_t copied = 0;
    while (copied < count) {
      const size_t elem = off + copied;
      const uint32_t page =
          base_page + static_cast<uint32_t>(elem / kTreeBlobEntriesPerPage);
      const size_t in_page = elem % kTreeBlobEntriesPerPage;
      const size_t take = std::min<size_t>(count - copied,
                                           kTreeBlobEntriesPerPage - in_page);
      const uint8_t* p = nullptr;
      if (!PinCharged(page, &p)) {
        out->clear();
        return false;
      }
      std::memcpy(out->data() + copied, p + sizeof(uint32_t) * in_page,
                  sizeof(uint32_t) * take);
      tree_->store_->Unpin(page);
      copied += take;
    }
    return true;
  }

  // Copies the encoded blob at byte span [off, off + len) of the region at
  // `base_page` into blob_buf_ page by page, then decodes it into `out`.
  // Compressed blobs may straddle pages, so the bit decoder never runs over
  // a pinned frame — only over the contiguous copy. False (with status_
  // latched) when a page cannot be loaded or the blob fails decode — the
  // latter counts as a corrupt observation even though every page passed
  // its checksum, because a malformed blob on a verified page means the
  // snapshot itself is damaged.
  bool DecodeBlobList(uint32_t base_page, uint32_t off, uint32_t len,
                      std::vector<uint32_t>* out) {
    out->clear();
    if (len == 0) return true;
    blob_buf_.resize(len);
    size_t copied = 0;
    while (copied < len) {
      const size_t byte = off + copied;
      const uint32_t page =
          base_page + static_cast<uint32_t>(byte / kPageSize);
      const size_t in_page = byte % kPageSize;
      const size_t take = std::min<size_t>(len - copied, kPageSize - in_page);
      const uint8_t* p = nullptr;
      if (!PinCharged(page, &p)) return false;
      std::memcpy(blob_buf_.data() + copied, p + in_page, take);
      tree_->store_->Unpin(page);
      copied += take;
    }
    if (DecodeIdList(blob_buf_.data(), blob_buf_.size(), out) == 0) {
      status_.Update(
          Status::Corruption("malformed id-list blob in packed tree node"));
      tree_->corrupt_observed_->fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  const PagedMinSigTree* tree_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> entities_;  // EntityId is uint32_t
  std::vector<uint8_t> blob_buf_;   // compressed mode: encoded-blob scratch
};

std::unique_ptr<TreeNodeCursor> PagedMinSigTree::OpenNodeCursor() const {
  return std::make_unique<PagedNodeCursor>(this);
}

PagedMinSigTree PagedMinSigTree::Pack(const MinSigTree& tree,
                                      std::unique_ptr<TreePageSource> store,
                                      bool zone_maps, bool compress) {
  DT_CHECK(store != nullptr);
  PagedMinSigTree out;
  out.m_ = tree.num_levels();
  out.nh_ = tree.num_functions();
  out.num_nodes_ = tree.num_nodes();
  out.num_entities_ = tree.num_entities();
  out.compressed_ = compress;
  DT_CHECK_MSG(out.nh_ <= std::numeric_limits<uint16_t>::max(),
               "routing index does not fit the packed u16 slot");
  DT_CHECK_MSG(out.m_ <= std::numeric_limits<uint8_t>::max(),
               "level does not fit the packed u8 slot");

  // Pass 1: region totals, so every page index is known before any write.
  uint64_t total_children = 0;
  uint64_t total_entities = 0;
  EntityId max_entity = 0;
  for (size_t i = 0; i < out.num_nodes_; ++i) {
    const MinSigTree::Node& n = tree.node(static_cast<uint32_t>(i));
    DT_CHECK_MSG(n.full_sig.empty(),
                 "paged tree does not support full-signature mode");
    total_children += n.children.size();
    total_entities += n.entities.size();
    for (EntityId e : n.entities) max_entity = std::max(max_entity, e);
  }
  DT_CHECK_MSG(total_children <= std::numeric_limits<uint32_t>::max() &&
                   total_entities <= std::numeric_limits<uint32_t>::max(),
               "blob offsets do not fit u32");
  const auto pages_for = [](uint64_t elems, size_t per_page) {
    return static_cast<uint32_t>((elems + per_page - 1) / per_page);
  };
  // What the fixed layout would occupy — the denominator of the
  // compressed_bytes/raw_bytes ratio the benches report.
  out.raw_bytes_ =
      static_cast<uint64_t>(pages_for(out.num_nodes_, kTreeNodesPerPage) +
                            pages_for(total_children, kTreeBlobEntriesPerPage) +
                            pages_for(total_entities, kTreeBlobEntriesPerPage)) *
      kPageSize;
  // Pool fractions resolve against the fixed layout's page count either
  // way, so compressed and uncompressed packs get the same absolute pool
  // bytes (fixed memory budget; a no-op for uncompressed packs).
  store->SetPoolSizingPages(out.raw_bytes_ / kPageSize);
  if (compress) {
    PackCompressed(tree, store.get(), zone_maps, max_entity, &out);
    out.store_ = std::move(store);
    return out;
  }
  out.node_pages_ = pages_for(out.num_nodes_, kTreeNodesPerPage);
  const uint32_t child_pages =
      pages_for(total_children, kTreeBlobEntriesPerPage);
  const uint32_t entity_pages =
      pages_for(total_entities, kTreeBlobEntriesPerPage);
  out.child_base_ = out.node_pages_;
  out.entity_base_ = out.node_pages_ + child_pages;
  store->Allocate(out.node_pages_ + child_pages + entity_pages);
  if (total_entities > 0) {
    out.contains_.assign(static_cast<size_t>(max_entity) / 64 + 1, 0);
  }
  if (zone_maps) {
    out.zone_code_.reserve(out.num_nodes_);
    out.zone_routing_.reserve(out.num_nodes_);
    out.zone_node_level_.reserve(out.num_nodes_);
  }

  // Pass 2: stream the three regions in node order.
  BlobWriter child_writer(store.get(), out.child_base_);
  BlobWriter entity_writer(store.get(), out.entity_base_);
  Page node_page;
  node_page.data.fill(0);
  uint32_t node_page_idx = 0;
  size_t slot = 0;
  uint64_t zone_min = ~uint64_t{0};
  Level zone_level = 0;
  uint32_t child_cursor = 0;
  uint32_t entity_cursor = 0;
  const auto flush_node_page = [&] {
    StoreTreePageHeader(node_page.data.data(),
                        {static_cast<uint32_t>(slot),
                         static_cast<uint16_t>(zone_level), zone_min});
    store->WritePage(node_page_idx, node_page);
    node_page.data.fill(0);
    ++node_page_idx;
    slot = 0;
    zone_min = ~uint64_t{0};
    zone_level = 0;
  };
  for (size_t i = 0; i < out.num_nodes_; ++i) {
    const MinSigTree::Node& n = tree.node(static_cast<uint32_t>(i));
    StoreTreeNode(node_page.data.data(), slot,
                  {n.value, child_cursor,
                   static_cast<uint32_t>(n.children.size()), entity_cursor,
                   static_cast<uint32_t>(n.entities.size()),
                   static_cast<uint16_t>(n.routing),
                   static_cast<uint8_t>(n.level)});
    zone_min = std::min(zone_min, n.value);
    zone_level = std::max(zone_level, n.level);
    if (zone_maps) {
      out.zone_code_.push_back(EncodeZoneValue(n.value));
      out.zone_routing_.push_back(static_cast<uint16_t>(n.routing));
      out.zone_node_level_.push_back(static_cast<uint8_t>(n.level));
    }
    for (uint32_t c : n.children) child_writer.Put(c);
    child_cursor += static_cast<uint32_t>(n.children.size());
    for (EntityId e : n.entities) {
      entity_writer.Put(e);
      out.contains_[e >> 6] |= uint64_t{1} << (e & 63);
    }
    entity_cursor += static_cast<uint32_t>(n.entities.size());
    if (++slot == kTreeNodesPerPage) flush_node_page();
  }
  if (slot > 0) flush_node_page();
  child_writer.Close();
  entity_writer.Close();
  store->Finalize();
  out.store_ = std::move(store);
  return out;
}

void PagedMinSigTree::PackCompressed(const MinSigTree& tree,
                                     TreePageSource* store, bool zone_maps,
                                     EntityId max_entity,
                                     PagedMinSigTree* outp) {
  PagedMinSigTree& out = *outp;
  const auto record_for = [](const MinSigTree::Node& n, uint64_t child_off,
                             uint32_t child_len, uint64_t entity_off,
                             uint32_t entity_len) {
    return TreeNodeRecord{n.value,
                          static_cast<uint32_t>(child_off),
                          child_len,
                          static_cast<uint32_t>(entity_off),
                          entity_len,
                          static_cast<uint16_t>(n.routing),
                          static_cast<uint8_t>(n.level)};
  };

  // Sizing pass: run the page builder over the exact records the write pass
  // will emit (same blob byte offsets, same encoded lengths) to learn the
  // page boundaries — the resident first-node table — and region totals.
  CompressedTreePageBuilder sizer;
  Page scratch;
  uint64_t child_bytes = 0;
  uint64_t entity_bytes = 0;
  bool any_entities = false;
  out.node_page_first_.clear();
  for (size_t i = 0; i < out.num_nodes_; ++i) {
    const MinSigTree::Node& n = tree.node(static_cast<uint32_t>(i));
    const uint32_t child_len =
        n.children.empty()
            ? 0
            : static_cast<uint32_t>(EncodedIdListBytes(n.children));
    const uint32_t entity_len =
        n.entities.empty()
            ? 0
            : static_cast<uint32_t>(EncodedIdListBytes(n.entities));
    any_entities |= !n.entities.empty();
    const TreeNodeRecord rec =
        record_for(n, child_bytes, child_len, entity_bytes, entity_len);
    if (!sizer.TryAdd(rec)) {
      sizer.FlushTo(scratch.data.data());
      DT_CHECK(sizer.TryAdd(rec));
    }
    if (sizer.count() == 1) {
      out.node_page_first_.push_back(static_cast<uint32_t>(i));
    }
    child_bytes += child_len;
    entity_bytes += entity_len;
    DT_CHECK_MSG(child_bytes <= std::numeric_limits<uint32_t>::max() &&
                     entity_bytes <= std::numeric_limits<uint32_t>::max(),
                 "compressed blob byte offsets do not fit u32");
  }
  if (!sizer.empty()) sizer.FlushTo(scratch.data.data());
  out.node_pages_ = static_cast<uint32_t>(out.node_page_first_.size());
  out.node_page_first_.push_back(static_cast<uint32_t>(out.num_nodes_));
  const auto pages_for_bytes = [](uint64_t bytes) {
    return static_cast<uint32_t>((bytes + kPageSize - 1) / kPageSize);
  };
  const uint32_t child_pages = pages_for_bytes(child_bytes);
  const uint32_t entity_pages = pages_for_bytes(entity_bytes);
  out.child_base_ = out.node_pages_;
  out.entity_base_ = out.node_pages_ + child_pages;
  store->Allocate(out.node_pages_ + child_pages + entity_pages);
  if (any_entities) {
    out.contains_.assign(static_cast<size_t>(max_entity) / 64 + 1, 0);
  }
  if (zone_maps) {
    out.zone_code_.reserve(out.num_nodes_);
    out.zone_routing_.reserve(out.num_nodes_);
    out.zone_node_level_.reserve(out.num_nodes_);
  }

  // Write pass: identical record sequence, now encoding the blobs for real
  // and emitting every completed page at its known index.
  ByteBlobWriter child_writer(store, out.child_base_);
  ByteBlobWriter entity_writer(store, out.entity_base_);
  CompressedTreePageBuilder builder;
  Page node_page;
  uint32_t node_page_idx = 0;
  child_bytes = 0;
  entity_bytes = 0;
  std::vector<uint8_t> enc;
  const auto flush_node_page = [&] {
    builder.FlushTo(node_page.data.data());
    store->WritePage(node_page_idx++, node_page);
  };
  for (size_t i = 0; i < out.num_nodes_; ++i) {
    const MinSigTree::Node& n = tree.node(static_cast<uint32_t>(i));
    uint32_t child_len = 0;
    if (!n.children.empty()) {
      enc.clear();
      child_len = static_cast<uint32_t>(EncodeIdList(n.children, &enc));
      child_writer.Put(enc.data(), enc.size());
    }
    uint32_t entity_len = 0;
    if (!n.entities.empty()) {
      enc.clear();
      entity_len = static_cast<uint32_t>(EncodeIdList(n.entities, &enc));
      entity_writer.Put(enc.data(), enc.size());
    }
    const TreeNodeRecord rec =
        record_for(n, child_bytes, child_len, entity_bytes, entity_len);
    if (!builder.TryAdd(rec)) {
      flush_node_page();
      DT_CHECK(builder.TryAdd(rec));
    }
    if (zone_maps) {
      out.zone_code_.push_back(EncodeZoneValue(n.value));
      out.zone_routing_.push_back(static_cast<uint16_t>(n.routing));
      out.zone_node_level_.push_back(static_cast<uint8_t>(n.level));
    }
    for (EntityId e : n.entities) {
      out.contains_[e >> 6] |= uint64_t{1} << (e & 63);
    }
    child_bytes += child_len;
    entity_bytes += entity_len;
  }
  if (!builder.empty()) flush_node_page();
  DT_CHECK(node_page_idx == out.node_pages_);
  child_writer.Close();
  entity_writer.Close();
  store->Finalize();
}

PagedMinSigTree PagedMinSigTree::Pack(const MinSigTree& tree,
                                      const PagedTreeOptions& options) {
  std::unique_ptr<TreePageSource> store;
  if (options.shared_disk != nullptr || options.shared_pool != nullptr) {
    DT_CHECK_MSG(options.shared_disk != nullptr &&
                     options.shared_pool != nullptr,
                 "shared-pool packing needs both the disk and the pool");
    store = std::make_unique<SimDiskTreePageStore>(options.shared_disk,
                                                   options.shared_pool);
  } else if (options.backing == PagedTreeOptions::Backing::kSimDisk) {
    store = std::make_unique<SimDiskTreePageStore>(options.disk);
  } else {
    store = std::make_unique<InMemoryTreePageStore>();
  }
  return Pack(tree, std::move(store), options.zone_maps, options.compress);
}

}  // namespace dtrace
