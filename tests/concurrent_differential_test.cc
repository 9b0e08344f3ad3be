// Concurrent differential harness for reads-during-writes (`ctest -L
// concurrent`, and under the TSan CI leg via the "concurrency" label):
// reader threads race a writer stream over a ShardedIndex and every
// observed result must be BIT-IDENTICAL to a single-threaded oracle that
// replayed some committed prefix of the same deterministic schedule.
//
// The protocol leans on DigitalTraceIndex's epoch versioning: every
// committed mutation bumps the shard's version(), and a pinned read
// reflects exactly one version. A reader brackets each query with version
// reads [v0, v1]; the result must equal the oracle's answer at some
// version v in that window — per shard for single-shard queries, and for
// some per-shard version VECTOR inside the window product for full
// fan-outs (enumeration capped; the check is skipped when a hot writer
// widens the window past the cap). The writer schedule is a pure function
// of the seed (raw mt19937_64 values only — no distributions, whose
// mappings are implementation-defined), so the oracle replay and the live
// run apply identical operations: Remove of a present entity, re-Insert
// of a removed one, Update with the trace unchanged (exercises the commit
// path deterministically), Replace with a freshly generated trace (the
// MVCC path: ShardedIndex::ReplaceEntity commits the store override and
// the tree update as one per-shard epoch, and pinned readers resolve
// overrides by version), and Refresh. Because oracle and live now mutate
// trace bytes, each replays against its OWN store (two identical builds
// of the same synthetic dataset). Replaces skip the query entities: a
// query's trace is read at the pinned version of EVERY shard it fans out
// to, and override stamps are per-shard counters — cross-shard version
// comparison is only meaningful for each shard's own members.
//
// The grid crosses shard counts {1, 2, 4} with the tree backings — plain
// in-memory MinSigTree (latched pins), paged SimDisk snapshots, and
// compressed paged snapshots (pinned shared_ptr snapshots; writers repack
// and publish at commit). No fault injection here: quarantine repair has
// its own harness, and a fault-free run must be fault-free concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/harness.h"
#include "exp/presets.h"

namespace dtrace {
namespace {

constexpr int kReaderThreads = 3;
constexpr int kNumOps = 24;
constexpr int kTopK = 5;
// Full-fan-out version-vector enumerations above this are skipped (the
// per-shard checks still ran; a wider window just means the writer was
// mid-burst).
constexpr uint64_t kMaxVersionCombos = 512;

enum class OpKind { kRemove, kReinsert, kUpdate, kReplace, kRefresh };
struct Op {
  OpKind kind;
  EntityId e = 0;
  std::vector<PresenceRecord> records;  // kReplace: the new trace
};

// Pure function of the seed: raw engine values reduced by modulo only.
// `queries` are the entities the readers will query; Replace skips them
// (see the header comment on cross-shard version stamps).
std::vector<Op> MakeSchedule(uint64_t seed, uint32_t num_entities,
                             uint32_t num_base_units, TimeStep horizon,
                             const std::vector<EntityId>& queries) {
  std::mt19937_64 rng(seed);
  std::vector<EntityId> present(num_entities);
  std::iota(present.begin(), present.end(), 0);
  std::vector<EntityId> removed;
  const size_t floor = num_entities / 2;
  std::vector<Op> ops;
  const auto is_query = [&queries](EntityId e) {
    return std::find(queries.begin(), queries.end(), e) != queries.end();
  };
  for (int i = 0; i < kNumOps; ++i) {
    const uint64_t pick = rng() % 100;
    if (pick < 25 && present.size() > floor) {
      const size_t j = static_cast<size_t>(rng() % present.size());
      ops.push_back({OpKind::kRemove, present[j], {}});
      removed.push_back(present[j]);
      present.erase(present.begin() + static_cast<ptrdiff_t>(j));
    } else if (pick < 45 && !removed.empty()) {
      const size_t j = static_cast<size_t>(rng() % removed.size());
      ops.push_back({OpKind::kReinsert, removed[j], {}});
      present.push_back(removed[j]);
      removed.erase(removed.begin() + static_cast<ptrdiff_t>(j));
    } else if (pick < 75 && !present.empty()) {
      ops.push_back({OpKind::kUpdate,
                     present[static_cast<size_t>(rng() % present.size())],
                     {}});
    } else if (pick < 92) {
      // Replace a present non-query entity's trace with a freshly drawn
      // one. Draw the records unconditionally so the rng stream does not
      // depend on whether a candidate exists.
      const EntityId e = present[static_cast<size_t>(rng() % present.size())];
      const size_t n = 2 + static_cast<size_t>(rng() % 6);
      std::vector<PresenceRecord> records;
      records.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        const auto unit = static_cast<UnitId>(rng() % num_base_units);
        const auto t = static_cast<TimeStep>(
            rng() % static_cast<uint64_t>(horizon - 1));
        records.push_back({e, unit, t, t + 1});
      }
      if (is_query(e)) {
        ops.push_back({OpKind::kRefresh, 0, {}});
      } else {
        ops.push_back({OpKind::kReplace, e, std::move(records)});
      }
    } else {
      ops.push_back({OpKind::kRefresh, 0, {}});
    }
  }
  return ops;
}

void ApplyOp(ShardedIndex& index, const Op& op) {
  switch (op.kind) {
    case OpKind::kRemove:
      index.RemoveEntity(op.e);
      break;
    case OpKind::kReinsert:
      index.InsertEntity(op.e);
      break;
    case OpKind::kUpdate:
      index.UpdateEntity(op.e);
      break;
    case OpKind::kReplace:
      index.ReplaceEntity(op.e, op.records);
      break;
    case OpKind::kRefresh:
      index.Refresh();
      break;
  }
}

// oracle items[s][v][qi]: shard s's exact per-shard top-k items for query
// qi at shard version v (v commits applied to that shard).
struct VersionedOracle {
  std::vector<std::vector<std::vector<std::vector<ScoredEntity>>>> items;
};

bool SameItems(const std::vector<ScoredEntity>& a,
               const std::vector<ScoredEntity>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity || a[i].score != b[i].score) return false;
  }
  return true;
}

std::string DescribeItems(const std::vector<ScoredEntity>& items) {
  std::ostringstream os;
  for (const auto& it : items) os << " (" << it.entity << "," << it.score << ")";
  return os.str();
}

void CaptureShard(const ShardedIndex& oracle, int s,
                  const std::vector<EntityId>& queries,
                  const AssociationMeasure& measure, VersionedOracle* out) {
  std::vector<std::vector<ScoredEntity>> per_query;
  per_query.reserve(queries.size());
  for (EntityId q : queries) {
    per_query.push_back(oracle.shard(s).Query(q, kTopK, measure).items);
  }
  out->items[static_cast<size_t>(s)].push_back(std::move(per_query));
  ASSERT_EQ(oracle.shard(s).version() + 1,
            out->items[static_cast<size_t>(s)].size())
      << "oracle capture out of step with shard " << s << "'s version";
}

// One reader: loops the per-shard version-window protocol and the full
// fan-out version-vector protocol until the writer finishes. Failures are
// reported through `error` (gtest assertions are not thread-safe off the
// main thread).
void ReaderLoop(const ShardedIndex& live, const VersionedOracle& oracle,
                const std::vector<EntityId>& queries,
                const AssociationMeasure& measure,
                const std::atomic<bool>& stop, int reader_id,
                std::string* error) {
  const int num_shards = live.num_shards();
  uint64_t iter = static_cast<uint64_t>(reader_id);  // decorrelate phases
  while (!stop.load(std::memory_order_acquire)) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      // Per-shard protocol: the result must be the oracle's answer at SOME
      // version the pin could have observed.
      for (int s = 0; s < num_shards; ++s) {
        const DigitalTraceIndex& shard = live.shard(s);
        const uint64_t v0 = shard.version();
        const TopKResult r = shard.Query(queries[qi], kTopK, measure);
        const uint64_t v1 = shard.version();
        if (!r.status.ok()) {
          *error = std::string("per-shard query failed: ") + r.status.message();
          return;
        }
        const auto& versions = oracle.items[static_cast<size_t>(s)];
        bool matched = false;
        for (uint64_t v = v0; v <= v1 && v < versions.size() && !matched; ++v) {
          matched = SameItems(versions[v][qi], r.items);
        }
        if (!matched) {
          std::ostringstream os;
          os << "reader " << reader_id << " shard " << s << " query " << qi
             << ": no oracle version in [" << v0 << "," << v1 << "] matches"
             << DescribeItems(r.items);
          *error = os.str();
          return;
        }
      }
      // Full fan-out protocol: some version VECTOR inside the per-shard
      // windows must reproduce the merged result. Alternates the lane
      // schedules so both (one frontier over every lane, concurrent lane
      // groups) race the writer.
      const int shard_threads = (iter % 2 == 0) ? 1 : 2;
      std::vector<uint64_t> v0(static_cast<size_t>(num_shards));
      std::vector<uint64_t> v1(static_cast<size_t>(num_shards));
      for (int s = 0; s < num_shards; ++s) {
        v0[static_cast<size_t>(s)] = live.shard(s).version();
      }
      const TopKResult r =
          live.Query(queries[qi], kTopK, measure, {}, shard_threads);
      for (int s = 0; s < num_shards; ++s) {
        v1[static_cast<size_t>(s)] = live.shard(s).version();
      }
      if (!r.status.ok()) {
        *error = std::string("fan-out query failed: ") + r.status.message();
        return;
      }
      uint64_t combos = 1;
      bool capped = false;
      for (int s = 0; s < num_shards && !capped; ++s) {
        combos *= v1[static_cast<size_t>(s)] - v0[static_cast<size_t>(s)] + 1;
        capped = combos > kMaxVersionCombos;
      }
      if (!capped) {
        std::vector<uint64_t> vv = v0;
        bool matched = false;
        while (!matched) {
          std::vector<TopKResult> parts(static_cast<size_t>(num_shards));
          for (int s = 0; s < num_shards; ++s) {
            const auto& versions = oracle.items[static_cast<size_t>(s)];
            const uint64_t v =
                std::min<uint64_t>(vv[static_cast<size_t>(s)],
                                   versions.size() - 1);
            parts[static_cast<size_t>(s)].items = versions[v][qi];
          }
          matched = SameItems(MergeShardTopK(parts, kTopK).items, r.items);
          if (matched) break;
          int s = 0;
          while (s < num_shards &&
                 vv[static_cast<size_t>(s)] == v1[static_cast<size_t>(s)]) {
            vv[static_cast<size_t>(s)] = v0[static_cast<size_t>(s)];
            ++s;
          }
          if (s == num_shards) break;
          ++vv[static_cast<size_t>(s)];
        }
        if (!matched) {
          std::ostringstream os;
          os << "reader " << reader_id << " query " << qi << " (threads="
             << shard_threads << "): no version vector in window reproduces"
             << DescribeItems(r.items);
          *error = os.str();
          return;
        }
      }
      ++iter;
    }
  }
}

void RunCell(int num_shards, const std::optional<PagedTreeOptions>& paged,
             uint64_t seed) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards) +
               " paged=" + std::to_string(paged.has_value()) +
               " seed=" + std::to_string(seed));
  constexpr uint32_t kEntities = 240;
  Dataset dataset = MakeSynDataset(kEntities, /*data_seed=*/101);
  const IndexOptions iopts{.num_functions = 48, .seed = 17};
  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset.store, 5, seed ^ 0xABCDull);
  const ShardedIndexOptions sopts{.num_shards = num_shards, .index = iopts};

  // Replace mutates trace bytes, so oracle and live each get their OWN
  // store: two builds of the same deterministic dataset are identical, and
  // each replay applies the same overrides to its own copy.
  Dataset live_dataset = MakeSynDataset(kEntities, /*data_seed=*/101);
  ShardedIndex oracle = ShardedIndex::Build(dataset.store, sopts);
  ShardedIndex live = ShardedIndex::Build(live_dataset.store, sopts);
  if (paged.has_value()) {
    oracle.EnablePagedTrees(*paged);
    live.EnablePagedTrees(*paged);
  }

  const auto ops =
      MakeSchedule(seed, kEntities, dataset.hierarchy->num_base_units(),
                   dataset.store->horizon(), queries);

  // Single-threaded oracle replay: capture every shard's exact per-shard
  // answers at every version its commit sequence passes through.
  VersionedOracle vo;
  vo.items.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    CaptureShard(oracle, s, queries, measure, &vo);
  }
  for (const Op& op : ops) {
    ApplyOp(oracle, op);
    if (op.kind == OpKind::kRefresh) {
      for (int s = 0; s < num_shards; ++s) {
        CaptureShard(oracle, s, queries, measure, &vo);
      }
    } else {
      CaptureShard(oracle, oracle.ShardOf(op.e), queries, measure, &vo);
    }
  }
  if (::testing::Test::HasFatalFailure()) return;

  // The race: readers check the version-window protocol while the writer
  // replays the identical schedule.
  std::atomic<bool> stop{false};
  std::vector<std::string> errors(kReaderThreads);
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int rid = 0; rid < kReaderThreads; ++rid) {
    readers.emplace_back([&, rid] {
      ReaderLoop(live, vo, queries, measure, stop, rid, &errors[rid]);
    });
  }
  std::thread writer([&] {
    for (const Op& op : ops) {
      ApplyOp(live, op);
      // Let readers sample several windows per committed version.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& err : errors) EXPECT_TRUE(err.empty()) << err;

  // Settled check: the drained live index must sit exactly at the oracle's
  // final version, and answer exactly like it — through the per-shard path
  // and both lane schedules.
  for (int s = 0; s < num_shards; ++s) {
    ASSERT_EQ(live.shard(s).version() + 1, vo.items[static_cast<size_t>(s)].size());
    const auto& finals = vo.items[static_cast<size_t>(s)].back();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_TRUE(SameItems(
          finals[qi], live.shard(s).Query(queries[qi], kTopK, measure).items))
          << "settled shard " << s << " query " << qi;
    }
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<TopKResult> parts(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      parts[static_cast<size_t>(s)].items =
          vo.items[static_cast<size_t>(s)].back()[qi];
    }
    const auto expected = MergeShardTopK(parts, kTopK).items;
    for (const int shard_threads : {1, 2}) {
      EXPECT_TRUE(SameItems(
          expected,
          live.Query(queries[qi], kTopK, measure, {}, shard_threads).items))
          << "settled fan-out query " << qi << " threads " << shard_threads;
    }
  }
}

TEST(ConcurrentDifferentialTest, InMemoryTreesAcrossShardCounts) {
  // Latched pins: readers hold the shard's read latch across each query,
  // writers commit between drains (writer-preference latch).
  for (int shards : {1, 2, 4}) {
    RunCell(shards, std::nullopt, /*seed=*/0x51ull + static_cast<uint64_t>(shards));
  }
}

TEST(ConcurrentDifferentialTest, PagedSimDiskTreesAcrossShardCounts) {
  // Snapshot pins: readers never block; every commit packs and publishes a
  // fresh SimDisk-backed snapshot while readers drain on the old one.
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = 0.5;
  for (int shards : {1, 2, 4}) {
    RunCell(shards, popts, /*seed=*/0x52ull + static_cast<uint64_t>(shards));
  }
}

TEST(ConcurrentDifferentialTest, CompressedPagedTreesAcrossShardCounts) {
  // Same, with FoR-packed node pages + delta-packed blobs underneath.
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = 0.5;
  popts.compress = true;
  for (int shards : {1, 2, 4}) {
    RunCell(shards, popts, /*seed=*/0x53ull + static_cast<uint64_t>(shards));
  }
}

}  // namespace
}  // namespace dtrace
