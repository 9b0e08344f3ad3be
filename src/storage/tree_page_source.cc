#include "storage/tree_page_source.h"

#include <algorithm>

#include "util/check.h"

namespace dtrace {

void InMemoryTreePageStore::Allocate(size_t num_pages) {
  DT_CHECK_MSG(pages_.empty(), "Allocate called twice");
  pages_.reserve(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    pages_.push_back(std::make_unique<Page>());
    pages_.back()->data.fill(0);
  }
}

void InMemoryTreePageStore::WritePage(uint32_t index, const Page& page) {
  DT_CHECK(index < pages_.size());
  *pages_[index] = page;
}

Status InMemoryTreePageStore::Pin(uint32_t index, const uint8_t** out,
                                  BufferPool::PinOutcome* outcome) const {
  DT_CHECK(index < pages_.size());
  if (outcome != nullptr) *outcome = {};
  *out = pages_[index]->data.data();
  return Status::Ok();
}

SimDiskTreePageStore::SimDiskTreePageStore(Options options)
    : options_(options) {
  if (options.faults.has_value()) {
    auto faulty = std::make_unique<FaultInjectingDisk>(*options.faults);
    fault_disk_ = faulty.get();
    owned_disk_ = std::move(faulty);
  } else {
    owned_disk_ = std::make_unique<SimDisk>();
  }
  disk_ = owned_disk_.get();
}

SimDiskTreePageStore::SimDiskTreePageStore(SimDisk* disk, BufferPool* pool)
    : disk_(disk), pool_(pool) {
  DT_CHECK(disk != nullptr && pool != nullptr);
  fault_disk_ = dynamic_cast<FaultInjectingDisk*>(disk);
}

SimDiskTreePageStore::~SimDiskTreePageStore() {
  // Shared mode: give the pages back. Drop any resident frame BEFORE the
  // disk-side Free, so a later reallocation's fresh bytes can never be
  // shadowed by a stale pool frame. Private mode owns disk and pool whole;
  // their destructors reclaim everything.
  if (owned_disk_ == nullptr && disk_ != nullptr && pool_ != nullptr &&
      !abandoned_.load(std::memory_order_acquire)) {
    for (PageId id : page_ids_) {
      pool_->Discard(id);
      disk_->Free(id);
    }
  }
}

void SimDiskTreePageStore::Allocate(size_t num_pages) {
  DT_CHECK_MSG(page_ids_.empty(), "Allocate called twice");
  // Packing must land clean pages (it is the recovery source of truth for
  // quarantined pages), so an armed shared fault disk is stood down for the
  // write phase and re-armed at Finalize. The private fault disk starts
  // disarmed and arms at Finalize regardless.
  if (fault_disk_ != nullptr) {
    rearm_at_finalize_ = fault_disk_->armed() || owned_disk_ != nullptr;
    fault_disk_->Disarm();
  }
  page_ids_.reserve(num_pages);
  // On a shared disk this draws from the disk's free list first (pages a
  // retired snapshot's destructor returned), then appends after whatever is
  // already there (the trace region, plus any still-live snapshot's tree
  // pages). SimDisk::Allocate is internally latched, and table growth is
  // append-only, so a writer-side snapshot repack may run this while
  // readers still pin the retiring snapshot's page ids — the repack
  // allocates while the retiring snapshot is still referenced, so its ids
  // are disjoint from any pinned ones, and the retiring pages are freed
  // only when the last pin drops (~SimDiskTreePageStore). Private mode
  // rebuilds the disk from scratch each pack.
  for (size_t i = 0; i < num_pages; ++i) page_ids_.push_back(disk_->Allocate());
}

void SimDiskTreePageStore::WritePage(uint32_t index, const Page& page) {
  DT_CHECK(index < page_ids_.size());
  // Straight to disk: packing precedes pool construction in private mode,
  // and in shared mode the pages are not resident yet (fresh allocations).
  // The disk is disarmed during packing (see Allocate), so this cannot fail.
  DT_CHECK_MSG(disk_->Write(page_ids_[index], page).ok(),
               "tree pack write failed");
}

void SimDiskTreePageStore::Finalize() {
  if (pool_ == nullptr) {  // private mode: size and build the pool
    size_t capacity = options_.pool_pages;
    if (options_.pool_fraction > 0.0) {
      const size_t basis =
          pool_sizing_pages_ > 0 ? pool_sizing_pages_ : page_ids_.size();
      capacity = std::max<size_t>(
          1, static_cast<size_t>(options_.pool_fraction *
                                 static_cast<double>(basis)));
    }
    if (capacity == 0) capacity = std::max<size_t>(1, page_ids_.size());
    owned_pool_.emplace(disk_, capacity, /*num_shards=*/0,
                        options_.verify_checksums);
    pool_ = &*owned_pool_;
  }
  if (rearm_at_finalize_) {
    fault_disk_->Arm();
    rearm_at_finalize_ = false;
  }
}

Status SimDiskTreePageStore::Pin(uint32_t index, const uint8_t** out,
                                 BufferPool::PinOutcome* outcome) const {
  DT_CHECK(index < page_ids_.size());
  DT_CHECK_MSG(pool_ != nullptr, "Pin before Finalize");
  return pool_->Pin(page_ids_[index], out, outcome, PoolClient::kTree);
}

void SimDiskTreePageStore::Unpin(uint32_t index) const {
  pool_->Unpin(page_ids_[index]);
}

}  // namespace dtrace
