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

  // One lane per shard, each reading through its own pin. The lane reads
  // candidate traces as of that pin's version, so a ReplaceEntity
  // committing into one shard mid-search cannot leak its new trace into a
  // lane pinned before it. Both schedules below search these same lanes.
  std::vector<DigitalTraceIndex::ReadPin> pins;
  pins.reserve(num_shards);
  std::vector<SearchLane> lanes;
  lanes.reserve(num_shards);
  for (const auto& shard : shards_) {
    pins.push_back(shard->PinForRead());
    lanes.push_back({&pins.back().tree(), pins.back().version()});
  }

  // The lanes split into `workers` contiguous groups, and each worker
  // searches its group as ONE best-first expansion (core/query.h
  // ForestTopKQuery): a single frontier over the group's lanes, one heap.
  // With one worker that is the whole forest — late lanes never re-check
  // candidates the global k-th already beats, the per-query filtering state
  // is built once, and result AND counter/io accounting stay fully
  // deterministic. With more, the groups overlap in wall time and couple
  // through a shared watermark that tightens every group's termination and
  // child-push guard, and as groups complete, their items accumulate into a
  // running merged top-k whose k-th entry certifies the strongest watermark
  // available.
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

void ShardedIndex::InsertEntity(EntityId e) {
  shards_[ShardOf(e)]->InsertEntity(e);
}

void ShardedIndex::InsertEntities(std::span<const EntityId> entities) {
  std::vector<std::vector<EntityId>> parts(shards_.size());
  for (EntityId e : entities) {
    parts[ShardOf(e)].push_back(e);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!parts[s].empty()) shards_[s]->InsertEntities(parts[s]);
  }
}

void ShardedIndex::UpdateEntity(EntityId e) {
  shards_[ShardOf(e)]->UpdateEntity(e);
}

void ShardedIndex::ReplaceEntity(EntityId e,
                                 const std::vector<PresenceRecord>& records) {
  shards_[ShardOf(e)]->ReplaceEntity(e, records);
}

void ShardedIndex::RemoveEntity(EntityId e) {
  shards_[ShardOf(e)]->RemoveEntity(e);
}

void ShardedIndex::Refresh() {
  for (auto& shard : shards_) shard->Refresh();
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
