#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/check.h"
#include "util/timer.h"

namespace dtrace {

namespace {

size_t ResolveShardCount(size_t requested, size_t capacity_pages) {
  // Auto = 16: shards are a few hundred bytes each, and over-sharding only
  // shortens critical sections (contention falls even when threads greatly
  // outnumber cores), so there is no reason to scale with the core count.
  // Every shard keeps >= 4 frames — starved shards (1-2 frames) turn
  // transient co-pinning by concurrent readers into exhaustion stalls.
  const size_t shards = requested == 0 ? 16 : requested;
  return std::max<size_t>(1, std::min(shards, capacity_pages / 4));
}

}  // namespace

BufferPool::BufferPool(SimDisk* disk, size_t capacity_pages, size_t num_shards,
                       bool verify_checksums)
    : disk_(disk), capacity_(capacity_pages),
      verify_checksums_(verify_checksums) {
  DT_CHECK(disk != nullptr);
  DT_CHECK(capacity_pages >= 1);
  const size_t shards = ResolveShardCount(num_shards, capacity_pages);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Distribute frames as evenly as possible; every shard gets >= 1.
    const size_t frames = capacity_pages / shards +
                          (s < capacity_pages % shards ? 1 : 0);
    shard->frames.resize(frames);
    shard->free_frames.reserve(frames);
    for (size_t i = 0; i < frames; ++i) shard->free_frames.push_back(i);
    // One slot per page this shard owns (ids with id % shards == s).
    shard->resident.assign(disk->num_pages() / shards + 1, -1);
    shards_.push_back(std::move(shard));
  }
}

// Returns the resident slot for `id` (the shard owns ids with
// id % num_shards == its index, so slots are indexed by id / num_shards),
// growing the table for pages allocated after pool construction. Caller
// holds the shard lock.
int32_t& BufferPool::ResidentSlot(Shard& s, PageId id) const {
  const size_t slot = id / shards_.size();
  if (slot >= s.resident.size()) s.resident.resize(slot + 1, -1);
  return s.resident[slot];
}

BufferPool::~BufferPool() { FlushAll(); }

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& s) {
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    Timer blocked;
    lock.lock();
    s.lock_wait_seconds += blocked.ElapsedSeconds();
  }
  return lock;
}

Status BufferPool::GetFrame(PageId id, bool mutate, PinOutcome* outcome,
                            PoolClient client, Frame** out) {
  const auto kind = static_cast<size_t>(client);
  *out = nullptr;
  Shard& s = ShardOf(id);
  auto lock = LockShard(s);
  for (;;) {
    const int32_t slot = ResidentSlot(s, id);
    if (slot >= 0) {
      Frame& f = s.frames[static_cast<size_t>(slot)];
      if (f.loading) {
        // Another pinner is reading this page from disk; share its I/O.
        // (If that load fails, the loader unwinds the claim and the slot
        // goes non-resident — this waiter then retries the load itself and
        // reports its own outcome, so no pinner inherits another's error.)
        s.cv.wait(lock);
        continue;
      }
      ++s.hits;
      ++s.client_hits[kind];
      if (f.pins == 0) {
        if (f.in_lru) {
          s.lru.erase(f.lru_pos);
          f.in_lru = false;
        }
        ++s.pinned_frames;
      }
      ++f.pins;
      f.dirty = f.dirty || mutate;
      *out = &f;
      return Status::Ok();
    }
    // A reload of a page whose dirty frame is still being written back must
    // wait for the write to land, or the read would race it on the disk.
    if (s.writing_back.count(id) != 0) {
      s.cv.wait(lock);
      continue;
    }
    // Miss: claim a frame.
    size_t frame_idx;
    bool evicting = false;
    if (!s.free_frames.empty()) {
      frame_idx = s.free_frames.back();
      s.free_frames.pop_back();
    } else if (!s.lru.empty()) {
      frame_idx = s.lru.front();
      s.lru.pop_front();
      s.frames[frame_idx].in_lru = false;
      ++s.evictions;
      evicting = true;
    } else {
      // Every frame is pinned or mid-I/O. If I/O is in flight, or another
      // pinner can still Unpin, a frame will free up — wait (bounded, so a
      // caller deadlocking against its own pins still aborts diagnosably
      // like the unsharded pool did). A shard with neither is a bug.
      DT_CHECK_MSG(s.io_in_flight > 0 || s.pinned_frames > 0,
                   "buffer pool shard exhausted: all pages pinned");
      const auto status = s.cv.wait_for(lock, std::chrono::seconds(10));
      DT_CHECK_MSG(status != std::cv_status::timeout,
                   "buffer pool shard stalled: pinned pages never released");
      continue;
    }
    ++s.misses;
    ++s.client_misses[kind];
    if (outcome != nullptr) outcome->missed = true;
    Frame& f = s.frames[frame_idx];
    const PageId old_id = f.id;
    const bool write_back = evicting && f.dirty;
    if (evicting) {
      ResidentSlot(s, old_id) = -1;
      if (write_back) s.writing_back.insert(old_id);
      --s.client_resident[f.client];
    }
    ResidentSlot(s, id) = static_cast<int32_t>(frame_idx);
    f.client = static_cast<uint8_t>(kind);
    ++s.client_resident[kind];
    f.id = id;
    f.pins = 1;
    ++s.pinned_frames;
    f.dirty = mutate;
    f.loading = true;
    f.in_lru = false;
    ++s.io_in_flight;
    lock.unlock();
    // Disk I/O outside the shard lock: misses on other pages — and all
    // traffic on other shards — proceed concurrently. The frame is
    // exclusively ours (loading=true keeps readers out, it is not in the
    // LRU, and its map entries route waiters to the cv).
    //
    // Transient faults are retried in place with exponential backoff; a
    // checksum mismatch counts as a failed attempt (the stored page may be
    // intact and the damage in flight — a re-read can come back clean).
    if (write_back) {
      // Dirty write-back gets the same bounded retry, but failure here is
      // fatal: the query path holds no dirty pages (mutable pins exist only
      // during build, against a disarmed disk), so a write that keeps
      // failing means lost committed data, not a degraded read.
      Status ws;
      for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
        if (attempt > 0) {
          if (outcome != nullptr) ++outcome->io_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(
              kRetryBackoffMicros << (attempt - 1)));
        }
        ws = disk_->Write(old_id, f.page);
        if (ws.ok()) break;
        if (outcome != nullptr) ++outcome->faults_injected;
      }
      DT_CHECK_MSG(ws.ok(), "dirty page write-back failed unrecoverably");
    }
    Status load;
    for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
      if (attempt > 0) {
        if (outcome != nullptr) ++outcome->io_retries;
        std::this_thread::sleep_for(
            std::chrono::microseconds(kRetryBackoffMicros << (attempt - 1)));
      }
      load = disk_->Read(id, &f.page);
      if (load.ok() && verify_checksums_ && !disk_->VerifyPage(id, f.page)) {
        if (outcome != nullptr) ++outcome->checksum_failures;
        load = Status::Corruption("page failed checksum verification");
      }
      if (load.ok()) break;
      if (outcome != nullptr) ++outcome->faults_injected;
    }
    lock.lock();
    --s.io_in_flight;
    f.loading = false;
    if (write_back) s.writing_back.erase(old_id);
    if (!load.ok()) {
      // Unwind the claim completely: the frame never held valid bytes, so
      // the pool must look exactly as if this Pin never happened (no Unpin
      // owed, the frame back on the free list, the slot non-resident so a
      // waiter re-attempts the load itself).
      ResidentSlot(s, id) = -1;
      --s.client_resident[kind];
      f.pins = 0;
      --s.pinned_frames;
      f.dirty = false;
      s.free_frames.push_back(frame_idx);
      s.cv.notify_all();
      return load;
    }
    s.cv.notify_all();
    *out = &f;
    return Status::Ok();
  }
}

Status BufferPool::Pin(PageId id, const uint8_t** out, PinOutcome* outcome,
                       PoolClient client) {
  if (outcome != nullptr) *outcome = {};
  Frame* f = nullptr;
  const Status st = GetFrame(id, /*mutate=*/false, outcome, client, &f);
  *out = st.ok() ? f->page.data.data() : nullptr;
  return st;
}

uint8_t* BufferPool::PinMutable(PageId id, PoolClient client) {
  Frame* f = nullptr;
  const Status st = GetFrame(id, /*mutate=*/true, /*outcome=*/nullptr, client,
                             &f);
  DT_CHECK_MSG(st.ok(), "unrecoverable page load on PinMutable");
  return f->page.data.data();
}

void BufferPool::Unpin(PageId id) {
  Shard& s = ShardOf(id);
  auto lock = LockShard(s);
  const int32_t slot = ResidentSlot(s, id);
  DT_CHECK_MSG(slot >= 0, "unpin of non-resident page");
  const size_t frame_idx = static_cast<size_t>(slot);
  Frame& f = s.frames[frame_idx];
  DT_CHECK_MSG(f.pins > 0, "unpin of unpinned page");
  if (--f.pins == 0) {
    --s.pinned_frames;
    s.lru.push_back(frame_idx);
    f.lru_pos = std::prev(s.lru.end());
    f.in_lru = true;
    // Wake waiters blocked on an exhausted shard.
    s.cv.notify_all();
  }
}

void BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    // Collect candidates under the lock, then write each outside it from a
    // stable copy (the no-I/O-under-lock rule; FlushAll is a cold path).
    // Only unpinned frames are flushed: a pins == 0 frame can have no legal
    // writer (mutation requires a live PinMutable), so the copy is a
    // consistent snapshot and clearing `dirty` loses nothing — a page still
    // pinned stays dirty and reaches the disk on its eviction or a later
    // flush. The frame is then pinned across the write, so no concurrent
    // dirty-eviction write-back (or reload read) of the same page can race
    // this write on the disk; a PinMutable arriving mid-write re-dirties
    // the frame and its bytes are written by that later write-back.
    std::vector<size_t> dirty_frames;
    {
      auto lock = LockShard(s);
      for (size_t idx = 0; idx < s.frames.size(); ++idx) {
        if (s.frames[idx].dirty && s.frames[idx].pins == 0) {
          dirty_frames.push_back(idx);
        }
      }
    }
    Page copy;
    for (size_t idx : dirty_frames) {
      Frame& f = s.frames[idx];
      PageId pid;
      {
        auto lock = LockShard(s);
        if (!f.dirty || f.loading || f.pins != 0) {
          continue;  // evicted/reloaded meanwhile, or pinned by a writer
        }
        pid = f.id;
        if (f.in_lru) {
          s.lru.erase(f.lru_pos);
          f.in_lru = false;
        }
        ++s.pinned_frames;
        f.pins = 1;
        copy = f.page;
        f.dirty = false;
      }
      Status ws;
      for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
        if (attempt > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              kRetryBackoffMicros << (attempt - 1)));
        }
        ws = disk_->Write(pid, copy);
        if (ws.ok()) break;
      }
      DT_CHECK_MSG(ws.ok(), "dirty page flush failed unrecoverably");
      Unpin(pid);
    }
  }
}

void BufferPool::Discard(PageId id) {
  Shard& s = ShardOf(id);
  auto lock = LockShard(s);
  for (;;) {
    const int32_t slot = ResidentSlot(s, id);
    if (slot < 0) {
      // Not resident — but a dirty victim's write-back may still be in
      // flight; wait it out so the disk-side Free that follows us cannot
      // race a straggling Write to the page.
      if (s.writing_back.count(id) != 0) {
        s.cv.wait(lock);
        continue;
      }
      return;
    }
    Frame& f = s.frames[static_cast<size_t>(slot)];
    if (f.loading) {
      s.cv.wait(lock);
      continue;
    }
    DT_CHECK_MSG(f.pins == 0, "Discard of a pinned page");
    DT_CHECK_MSG(!f.dirty, "Discard of a dirty page");
    ResidentSlot(s, id) = -1;
    --s.client_resident[f.client];
    if (f.in_lru) {
      s.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    s.free_frames.push_back(static_cast<size_t>(slot));
    s.cv.notify_all();
    return;
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.lock_wait_seconds += shard->lock_wait_seconds;
    for (size_t c = 0; c < kNumPoolClients; ++c) {
      out.client_hits[c] += shard->client_hits[c];
      out.client_misses[c] += shard->client_misses[c];
      out.client_resident[c] += shard->client_resident[c];
    }
  }
  return out;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
    shard->lock_wait_seconds = 0.0;
    for (size_t c = 0; c < kNumPoolClients; ++c) {
      shard->client_hits[c] = 0;
      shard->client_misses[c] = 0;
      // client_resident is occupancy state, not a counter: it must keep
      // matching the frames actually resident, so it survives a reset.
    }
  }
}

}  // namespace dtrace
