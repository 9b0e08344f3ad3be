#include "core/sharded_index.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dtrace {

uint32_t ShardOfEntity(EntityId e, uint32_t num_shards) {
  DT_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1");
  // splitmix64 finalizer: full-avalanche, so consecutive dense ids spread
  // evenly over shards instead of striping.
  uint64_t x = static_cast<uint64_t>(e) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_shards);
}

TopKResult MergeShardTopK(std::span<const TopKResult> shard_results, int k) {
  DT_CHECK_MSG(k >= 0, "k must be >= 0");
  TopKResult merged;
  size_t total = 0;
  for (const TopKResult& r : shard_results) {
    total += r.items.size();
    merged.stats.Add(r.stats);
    // First failing shard wins (shard order is deterministic); a merge over
    // any failed shard is itself failed — its candidate set is incomplete.
    merged.status.Update(r.status);
  }
  if (!merged.status.ok()) {
    // Same contract as TopKResult::status: an errored merge carries EMPTY
    // items, never a ranking missing a shard's candidates.
    return merged;
  }
  merged.items.reserve(total);
  for (const TopKResult& r : shard_results) {
    merged.items.insert(merged.items.end(), r.items.begin(), r.items.end());
  }
  // The single-tree result order: score descending, entity id ascending.
  // Ids are unique across shards (shards partition the entity space), so
  // this order is total and the merge is deterministic for any shard count.
  std::sort(merged.items.begin(), merged.items.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (merged.items.size() > static_cast<size_t>(k)) merged.items.resize(k);
  return merged;
}

ShardedIndex ShardedIndex::Build(std::shared_ptr<TraceStore> store,
                                 ShardedIndexOptions options,
                                 std::optional<std::vector<EntityId>> entities) {
  DT_CHECK(store != nullptr);
  DT_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  Timer timer;
  const auto num_shards = static_cast<uint32_t>(options.num_shards);
  std::vector<EntityId> ids;
  if (entities.has_value()) {
    ids = std::move(*entities);
  } else {
    ids.resize(store->num_entities());
    std::iota(ids.begin(), ids.end(), 0);
  }

  ShardedIndex sharded(store, options);
  sharded.shards_.resize(num_shards);

  std::vector<std::vector<EntityId>> parts(num_shards);
  for (EntityId e : ids) {
    parts[ShardOfEntity(e, num_shards)].push_back(e);
  }
  // Shard-parallel build. When shards build concurrently, each shard's
  // inner signature loop stays serial (shard-level parallelism replaces
  // entity-level); the per-shard build is deterministic across thread
  // counts, so either layout yields the same shards.
  const int workers = std::min<int>(ResolveThreadCount(options.build_threads),
                                    options.num_shards);
  IndexOptions shard_opts = options.index;
  if (workers > 1) shard_opts.num_threads = 1;
  ParallelForEach(workers, num_shards, [&](size_t s) {
    sharded.shards_[s] = std::make_unique<DigitalTraceIndex>(
        DigitalTraceIndex::Build(store, shard_opts, std::move(parts[s])));
    // Router slots are per shard, so extracting the coarse level here is
    // race-free and deterministic.
    sharded.RefreshRouterShard(static_cast<int>(s));
  });
  sharded.build_seconds_ = timer.ElapsedSeconds();
  return sharded;
}

TopKResult ShardedIndex::SearchLanes(EntityId q, int k,
                                     const AssociationMeasure& measure,
                                     const QueryOptions& options, int workers,
                                     uint64_t* quarantined) const {
  const size_t num_shards = shards_.size();
  const TraceSource& source = DigitalTraceIndex::PickSource(options, *store_);

  // One lane per shard: a ReadPin + a SnapshotSignature copy captured with
  // a version handshake — version -> signature -> pin, accepted only when
  // the pin still carries the pre-signature version. That pairing is what
  // keeps the coarse bound admissible for the pinned tree: every entity the
  // pin contains committed before the signature read (and its Absorb ran
  // even earlier), and any Refresh raise the signature reflects refers to a
  // tree state the pin includes. If a writer commits inside the handshake
  // we retry, and after a few spins fall back to an all-zero signature (no
  // pruning for that lane — always admissible) rather than spin against a
  // hot writer. Both schedules below search these same lanes.
  std::vector<DigitalTraceIndex::ReadPin> pins;
  pins.reserve(num_shards);
  std::vector<std::vector<uint64_t>> coarse(num_shards);
  std::vector<SearchLane> lanes(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const int sid = static_cast<int>(s);
    bool stable = false;
    for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
      // Drop the unstable pin before re-pinning: a second read acquisition
      // of an in-memory shard's latch would queue behind a waiting writer,
      // which in turn waits for the first one — a deadlock.
      if (s < pins.size()) pins.pop_back();
      const uint64_t v = shards_[s]->version();
      coarse[s] = router_.SnapshotSignature(sid);
      pins.push_back(shards_[s]->PinForRead());
      stable = pins[s].version() == v;
    }
    if (!stable) std::fill(coarse[s].begin(), coarse[s].end(), 0);
    // The lane reads candidate traces as of its own pin's version, so a
    // ReplaceEntity committing into one shard mid-search cannot leak its
    // new trace into a lane pinned before it.
    lanes[s] = {&pins[s].tree(), coarse[s], pins[s].version()};
  }

  // The lanes split into `workers` contiguous groups, and each worker
  // searches its group as ONE best-first expansion (core/query.h
  // ForestTopKQuery): a single frontier over the group's lanes, each root
  // capped by its coarse-signature bound, one heap. With one worker that is
  // the whole forest — it prunes exactly like the big single tree (late
  // lanes never re-check candidates the global k-th already beats), builds
  // the per-query filtering state once, and keeps result AND counter/io
  // accounting fully deterministic. With more, the groups overlap in wall
  // time and couple through a shared watermark: a lane whose capped root
  // the watermark already beats stops at its first pop (shards_pruned), and
  // as groups complete, their items accumulate into a running merged top-k
  // whose k-th entry certifies the strongest watermark available.
  CrossShardThreshold threshold;
  QueryOptions group_options = options;
  if (workers > 1) group_options.shared_threshold = &threshold;
  std::vector<TopKResult> per_group(num_shards);
  std::mutex merged_mu;
  std::vector<ScoredEntity> merged_topk;
  ParallelFor(workers, num_shards, [&](size_t begin, size_t end) {
    per_group[begin] =
        ForestTopKQuery({lanes.data() + begin, end - begin}, source,
                        shards_[0]->hasher(), measure, q, k, group_options);
    const std::vector<ScoredEntity>& items = per_group[begin].items;
    if (workers <= 1 || items.empty()) return;
    const std::lock_guard<std::mutex> lock(merged_mu);
    merged_topk.insert(merged_topk.end(), items.begin(), items.end());
    std::sort(merged_topk.begin(), merged_topk.end(),
              [](const ScoredEntity& a, const ScoredEntity& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.entity < b.entity;
              });
    if (merged_topk.size() > static_cast<size_t>(k)) {
      merged_topk.resize(static_cast<size_t>(k));
    }
    if (merged_topk.size() == static_cast<size_t>(k)) {
      threshold.Offer(merged_topk.back().score, merged_topk.back().entity);
    }
  });
  TopKResult result = MergeShardTopK(per_group, k);
  if (!result.status.ok()) {
    for (size_t s = 0; s < num_shards; ++s) {
      *quarantined += shards_[s]->QuarantineDamagedPages(pins[s]);
    }
  }
  return result;
}

TopKResult ShardedIndex::Query(EntityId q, int k,
                               const AssociationMeasure& measure,
                               const QueryOptions& options,
                               int shard_threads) const {
  // No settle step: paged snapshots are packed and published on the writer
  // side at commit time (DigitalTraceIndex::CommitMutation), so the query
  // path is read-only and safe against concurrent maintenance.
  Timer timer;
  const int workers = std::min<int>(ResolveThreadCount(shard_threads),
                                    num_shards());
  // Quarantine repair, as in DigitalTraceIndex::Query: a failed search
  // repacks every shard whose pin observed damaged tree pages, and the
  // query re-pins every lane and retries while the last pass repaired
  // something — one retry per shard at most, so a 1-shard index retries
  // once like a single index. (The serial schedule stops at the first
  // damaged page, so a retry may surface another shard's damage.) When the
  // budget runs out, the clean error surfaces.
  uint64_t total = 0;
  TopKResult result;
  for (int pass = 0; pass <= num_shards(); ++pass) {
    uint64_t quarantined = 0;
    result = SearchLanes(q, k, measure, options, workers, &quarantined);
    if (quarantined == 0) break;
    total += quarantined;
  }
  result.stats.pages_quarantined += total;
  // Wall time of the whole call; the summed lane work stays in
  // work_seconds.
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<TopKResult> ShardedIndex::QueryMany(
    std::span<const EntityId> queries, int k, const AssociationMeasure& measure,
    const QueryOptions& options, int num_threads) const {
  // Queries are the unit of parallelism: each runs the serial schedule, so
  // every per-query result AND its counter/io totals are deterministic for
  // any thread count.
  std::vector<TopKResult> results(queries.size());
  ParallelForEach(num_threads, queries.size(), [&](size_t i) {
    results[i] = Query(queries[i], k, measure, options, /*shard_threads=*/1);
  });
  return results;
}

void ShardedIndex::RefreshRouterShard(int s) {
  // Latched read: another writer may be committing into this shard's tree
  // while we extract the coarse level (concurrent writers serialize on the
  // shard's write latch, but this READ would otherwise race them).
  router_.SetShardSignature(s, shards_[s]->CoarseSignature(/*level=*/1));
}

void ShardedIndex::AbsorbIntoRouter(int s, EntityId e) {
  const SignatureComputer sigs(*store_, shards_[s]->hasher());
  std::vector<uint64_t> sig(router_.num_functions());
  std::vector<uint64_t> scratch(router_.num_functions());
  sigs.ComputeLevel(e, /*level=*/1, sig, scratch);
  router_.Absorb(s, sig);
}

void ShardedIndex::InsertEntity(EntityId e) {
  const int s = ShardOf(e);
  // Absorb BEFORE the tree commit: once a concurrent reader can see `e` in
  // the shard tree, the router slot already covers it. The window where the
  // slot is low but the entity not yet committed only loosens bounds.
  AbsorbIntoRouter(s, e);
  shards_[s]->InsertEntity(e);
}

void ShardedIndex::InsertEntities(std::span<const EntityId> entities) {
  std::vector<std::vector<EntityId>> parts(shards_.size());
  for (EntityId e : entities) {
    parts[ShardOf(e)].push_back(e);
  }
  // Same absorb-before-commit rule as InsertEntity, for the whole batch.
  for (EntityId e : entities) AbsorbIntoRouter(ShardOf(e), e);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!parts[s].empty()) shards_[s]->InsertEntities(parts[s]);
  }
}

void ShardedIndex::UpdateEntity(EntityId e) {
  const int s = ShardOf(e);
  // Min-merge the new trace's coarse signature in BEFORE the tree commit
  // (absorb-before-commit, as in InsertEntity); the old trace's
  // contribution may linger stale-low until Refresh — loose but admissible,
  // the same convention the shard trees follow.
  AbsorbIntoRouter(s, e);
  shards_[s]->UpdateEntity(e);
}

void ShardedIndex::ReplaceEntity(EntityId e,
                                 const std::vector<PresenceRecord>& records) {
  const int s = ShardOf(e);
  // Absorb-before-commit, like InsertEntity — but the signature must come
  // from the NEW trace, which the store does not serve yet (the override
  // lands inside the shard commit below). Derive the new level-1 cells from
  // the records directly and min-merge their signature in; the old trace's
  // contribution lingers stale-low until Refresh, same as UpdateEntity.
  const auto per_level = store_->CellsForRecords(records);
  const CellHasher& hasher = shards_[s]->hasher();
  const auto nh = static_cast<size_t>(router_.num_functions());
  std::vector<uint64_t> sig(nh, ~uint64_t{0});
  std::vector<uint64_t> row(nh);
  for (CellId c : per_level[0]) {
    hasher.HashAll(/*level=*/1, c, row.data());
    for (size_t u = 0; u < nh; ++u) sig[u] = std::min(sig[u], row[u]);
  }
  router_.Absorb(s, sig);
  shards_[s]->ReplaceEntity(e, records);
}

void ShardedIndex::RemoveEntity(EntityId e) {
  // Router values stay stale low (they only ever under-estimate member
  // signatures, which loosens bounds but keeps them admissible); Refresh
  // restores tightness.
  shards_[ShardOf(e)]->RemoveEntity(e);
}

void ShardedIndex::Refresh() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    // The router raise (SetShardSignature) is the ONE write that tightens
    // slots, and it must land strictly AFTER the refreshed tree commit:
    // a reader that observes the raised signature then pins a tree at
    // least as new as the refresh, so the tighter bound is admissible for
    // whatever it reads (the version handshake in SearchLanes enforces
    // the pairing).
    shards_[s]->Refresh();
    RefreshRouterShard(static_cast<int>(s));
  }
}

void ShardedIndex::EnablePagedTrees(const PagedTreeOptions& options) {
  for (auto& shard : shards_) shard->EnablePagedTree(options);
}

DigitalTraceIndex::ConcurrencyStats ShardedIndex::concurrency_stats() const {
  DigitalTraceIndex::ConcurrencyStats total;
  for (const auto& shard : shards_) {
    const auto s = shard->concurrency_stats();
    total.snapshot_publishes += s.snapshot_publishes;
    total.reader_blocked_ns += s.reader_blocked_ns;
    total.writer_blocked_ns += s.writer_blocked_ns;
  }
  return total;
}

size_t ShardedIndex::num_entities() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->tree().num_entities();
  return n;
}

uint64_t ShardedIndex::IndexMemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->IndexMemoryBytes();
  return bytes;
}

}  // namespace dtrace
