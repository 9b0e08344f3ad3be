#include "storage/paged_trace_store.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/codec.h"

namespace dtrace {

PagedTraceStore::PagedTraceStore(const TraceStore& store, SimDisk* disk,
                                 bool compress)
    : m_(store.hierarchy().num_levels()), compressed_(compress) {
  DT_CHECK(disk != nullptr);
  dir_.resize(store.num_entities());

  // Serialize into a flat byte stream, flushing page by page.
  Page page;
  size_t in_page = 0;
  auto flush = [&] {
    const PageId id = disk->Allocate();
    // Serialization runs against a fault-free (disarmed) disk; a failure
    // here is a bug, not an input condition.
    DT_CHECK(disk->Write(id, page).ok());
    pages_.push_back(id);
    in_page = 0;
  };
  auto put_u32 = [&](uint32_t v) {
    if (in_page + sizeof(uint32_t) > kPageSize) {
      // Pad the tail; values never straddle pages.
      std::memset(page.data.data() + in_page, 0, kPageSize - in_page);
      data_bytes_ += kPageSize - in_page;
      flush();
    }
    std::memcpy(page.data.data() + in_page, &v, sizeof(uint32_t));
    in_page += sizeof(uint32_t);
    data_bytes_ += sizeof(uint32_t);
  };
  auto put_bytes = [&](const uint8_t* data, size_t n) {
    while (n > 0) {
      const size_t take = std::min(n, kPageSize - in_page);
      std::memcpy(page.data.data() + in_page, data, take);
      in_page += take;
      data += take;
      n -= take;
      data_bytes_ += take;
      if (in_page == kPageSize) flush();
    }
  };

  // What the uncompressed writer would have occupied — simulated with its
  // exact padding rule so the compressed/raw ratio compares like for like.
  uint64_t raw_in_page = 0;
  auto raw_u32s = [&](uint64_t n) {
    while (n > 0) {
      if (raw_in_page + sizeof(uint32_t) > kPageSize) {
        raw_bytes_ += kPageSize - raw_in_page;
        raw_in_page = 0;
      }
      const uint64_t fit = (kPageSize - raw_in_page) / sizeof(uint32_t);
      const uint64_t take = std::min(n, fit);
      raw_in_page += take * sizeof(uint32_t);
      raw_bytes_ += take * sizeof(uint32_t);
      if (raw_in_page == kPageSize) raw_in_page = 0;
      n -= take;
    }
  };

  std::vector<uint8_t> enc;
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    // Align the next entity to a fresh offset; record the directory entry.
    const uint64_t start =
        static_cast<uint64_t>(pages_.size()) * kPageSize + in_page;
    for (Level l = 1; l <= m_; ++l) {
      const auto cells = store.cells(e, l);
      raw_u32s(1 + cells.size());
      if (compress) {
        enc.clear();
        EncodeIdList(cells, &enc);
        put_bytes(enc.data(), enc.size());
      } else {
        put_u32(static_cast<uint32_t>(cells.size()));
        for (CellId c : cells) put_u32(c);
      }
    }
    const uint64_t end =
        static_cast<uint64_t>(pages_.size()) * kPageSize + in_page;
    dir_[e] = {start, end - start};
  }
  if (in_page > 0) flush();
  if (!compress) raw_bytes_ = data_bytes_;
}

Status PagedTraceStore::ReadEntityPacked(BufferPool* pool, EntityId e,
                                         std::vector<uint8_t>* out,
                                         ReadStats* stats) const {
  DT_CHECK_MSG(compressed_, "ReadEntityPacked needs a compressed store");
  DT_CHECK(e < dir_.size());
  const DirEntry& d = dir_[e];
  out->resize(d.bytes);
  uint64_t copied = 0;
  while (copied < d.bytes) {
    const uint64_t abs = d.offset + copied;
    const size_t p = abs / kPageSize;
    const size_t in_page = abs % kPageSize;
    const uint64_t take =
        std::min<uint64_t>(d.bytes - copied, kPageSize - in_page);
    BufferPool::PinOutcome outcome;
    const uint8_t* data = nullptr;
    const Status st = pool->Pin(pages_[p], &data, &outcome);
    if (stats != nullptr) stats->Charge(outcome);
    if (!st.ok()) return st;
    std::memcpy(out->data() + copied, data + in_page, take);
    pool->Unpin(pages_[p]);
    copied += take;
  }
  return Status::Ok();
}

Status PagedTraceStore::ReadEntity(BufferPool* pool, EntityId e,
                                   std::vector<std::vector<CellId>>* out,
                                   ReadStats* stats) const {
  DT_CHECK(e < dir_.size());
  const DirEntry& d = dir_[e];
  out->resize(m_);
  if (compressed_) {
    // Convenience/tooling path (the paged cursor keeps the packed form and
    // decodes lazily instead): copy the record out, decode level by level.
    std::vector<uint8_t> packed;
    const Status st = ReadEntityPacked(pool, e, &packed, stats);
    if (!st.ok()) return st;
    size_t off = 0;
    for (int l = 0; l < m_; ++l) {
      const size_t used =
          DecodeIdList(packed.data() + off, packed.size() - off, &(*out)[l]);
      if (used == 0) {
        return Status::Corruption("malformed id-list blob in trace record");
      }
      off += used;
    }
    if (off != packed.size()) {
      return Status::Corruption("trace record length disagrees with blobs");
    }
    return Status::Ok();
  }

  // Walk the record with a one-page pinned window, decoding values straight
  // out of the frame. Values are 4-byte units written back-to-back from a
  // page-aligned start, so every value is contained in (and aligned within)
  // one page; the writer re-aligns to the next page where one would
  // straddle, leaving zero padding we must skip the same way.
  constexpr size_t kNoPage = static_cast<size_t>(-1);
  size_t cur_page = kNoPage;
  const uint8_t* data = nullptr;
  uint64_t off = d.offset;
  Status walk;  // first pin failure; the lambdas no-op once it is set
  auto pin_page_of = [&](uint64_t abs) -> size_t {
    const size_t p = abs / kPageSize;
    if (p != cur_page) {
      if (cur_page != kNoPage) pool->Unpin(pages_[cur_page]);
      cur_page = kNoPage;
      BufferPool::PinOutcome outcome;
      const Status st = pool->Pin(pages_[p], &data, &outcome);
      if (stats != nullptr) stats->Charge(outcome);
      if (!st.ok()) {
        walk = st;
        return 0;
      }
      cur_page = p;
    }
    return abs % kPageSize;
  };
  auto skip_padding = [&] {
    const size_t in_page = off % kPageSize;
    if (in_page + sizeof(uint32_t) > kPageSize) off += kPageSize - in_page;
  };
  auto get_u32 = [&]() -> uint32_t {
    skip_padding();
    const size_t in_page = pin_page_of(off);
    if (!walk.ok()) return 0;
    uint32_t v;
    std::memcpy(&v, data + in_page, sizeof(uint32_t));
    off += sizeof(uint32_t);
    return v;
  };

  for (int l = 0; l < m_ && walk.ok(); ++l) {
    const uint32_t n = get_u32();
    if (!walk.ok()) break;
    auto& level = (*out)[l];
    level.resize(n);
    uint32_t got = 0;
    while (got < n) {
      // Bulk-copy the run of values that lives in the current page.
      skip_padding();
      const size_t in_page = pin_page_of(off);
      if (!walk.ok()) break;
      const uint32_t fit =
          static_cast<uint32_t>((kPageSize - in_page) / sizeof(uint32_t));
      const uint32_t take = std::min(n - got, fit);
      std::memcpy(level.data() + got, data + in_page,
                  static_cast<size_t>(take) * sizeof(uint32_t));
      got += take;
      off += static_cast<uint64_t>(take) * sizeof(uint32_t);
    }
  }
  if (cur_page != kNoPage) pool->Unpin(pages_[cur_page]);
  return walk;
}

std::vector<std::vector<CellId>> PagedTraceStore::ReadEntity(
    BufferPool* pool, EntityId e) const {
  std::vector<std::vector<CellId>> out;
  DT_CHECK(ReadEntity(pool, e, &out, nullptr).ok());
  return out;
}

}  // namespace dtrace
