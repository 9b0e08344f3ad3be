// Snapshot persistence differential harness (`ctest -L persistence`):
// a loaded snapshot must be BIT-IDENTICAL to the index it was saved from —
// same items, same scores, same search counters — across the full grid of
// {single index, sharded} × {compressed, raw sections} × {in-memory,
// paged trees}, and the crash harness sweeps every write-boundary class of
// a commit asserting recovery always lands on the previous epoch or a
// clean kCorruption, never on wrong data.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/association.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/snapshot.h"
#include "trace/dataset.h"

namespace dtrace {
namespace {

constexpr int kTopK = 8;

// Deterministic replacement trace for entity `e` (raw engine values only).
std::vector<PresenceRecord> MakeReplacementTrace(EntityId e,
                                                 uint32_t num_base_units,
                                                 TimeStep horizon,
                                                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t n = 3 + static_cast<size_t>(rng() % 5);
  std::vector<PresenceRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto unit = static_cast<UnitId>(rng() % num_base_units);
    const auto t =
        static_cast<TimeStep>(rng() % static_cast<uint64_t>(horizon - 1));
    records.push_back({e, unit, t, t + 1});
  }
  return records;
}

bool SameItems(const std::vector<ScoredEntity>& a,
               const std::vector<ScoredEntity>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity || a[i].score != b[i].score) return false;
  }
  return true;
}

std::string DescribeItems(const std::vector<ScoredEntity>& items) {
  std::string out;
  for (const auto& it : items) {
    out += " (" + std::to_string(it.entity) + "," +
           std::to_string(it.score) + ")";
  }
  return out;
}

// Asserts query-for-query bit identity between two indexes: items AND the
// deterministic search counters (same tree bytes => same traversal).
template <typename QueryFnA, typename QueryFnB>
void ExpectBitIdentical(const std::vector<EntityId>& queries, QueryFnA&& a,
                        QueryFnB&& b, const char* what) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const TopKResult ra = a(queries[qi]);
    const TopKResult rb = b(queries[qi]);
    ASSERT_TRUE(ra.status.ok()) << what << ": " << ra.status.message();
    ASSERT_TRUE(rb.status.ok()) << what << ": " << rb.status.message();
    EXPECT_TRUE(SameItems(ra.items, rb.items))
        << what << " query " << qi << ": original" << DescribeItems(ra.items)
        << " vs loaded" << DescribeItems(rb.items);
    EXPECT_EQ(ra.stats.nodes_visited, rb.stats.nodes_visited)
        << what << " query " << qi;
    EXPECT_EQ(ra.stats.entities_checked, rb.stats.entities_checked)
        << what << " query " << qi;
    EXPECT_EQ(ra.stats.heap_pushes, rb.stats.heap_pushes)
        << what << " query " << qi;
    EXPECT_EQ(ra.stats.shards_pruned, rb.stats.shards_pruned)
        << what << " query " << qi;
  }
}

// --- Round-trip bit identity: single index --------------------------------

void RunSingleCell(bool compress, bool paged) {
  SCOPED_TRACE("compress=" + std::to_string(compress) +
               " paged=" + std::to_string(paged));
  Dataset dataset = MakeSynDataset(220, /*seed=*/301);
  const uint32_t base_units = dataset.hierarchy->num_base_units();
  const TimeStep horizon = dataset.store->horizon();
  DigitalTraceIndex index = DigitalTraceIndex::Build(
      dataset.store, IndexOptions{.num_functions = 48, .seed = 17});

  // Pre-save churn: the save path must capture MVCC-resolved traces (two
  // replaced entities), a removed entity, and a remove+reinsert cycle.
  index.ReplaceEntity(3, MakeReplacementTrace(3, base_units, horizon, 0xA1));
  index.ReplaceEntity(57, MakeReplacementTrace(57, base_units, horizon, 0xA2));
  index.RemoveEntity(11);
  index.RemoveEntity(12);
  index.InsertEntity(12);

  MemSnapshotEnv env;
  Status s = index.SaveSnapshot(&env, compress);
  ASSERT_TRUE(s.ok()) << s.message();
  LoadedIndex loaded;
  s = DigitalTraceIndex::LoadSnapshot(env, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_NE(loaded.index, nullptr);
  EXPECT_EQ(loaded.store->num_entities(), dataset.store->num_entities());

  if (paged) {
    PagedTreeOptions popts;
    popts.backing = PagedTreeOptions::Backing::kSimDisk;
    popts.disk.pool_fraction = 0.5;
    index.EnablePagedTree(popts);
    loaded.index->EnablePagedTree(popts);
  }

  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset.store, 4, 0xBEEF);
  ExpectBitIdentical(
      queries,
      [&](EntityId q) { return index.Query(q, kTopK, measure); },
      [&](EntityId q) { return loaded.index->Query(q, kTopK, measure); },
      "round-trip");

  // The restart keeps serving writes: the same mutations applied to both
  // sides leave them bit-identical again.
  const auto patch = MakeReplacementTrace(29, base_units, horizon, 0xA3);
  index.ReplaceEntity(29, patch);
  loaded.index->ReplaceEntity(29, patch);
  index.RemoveEntity(41);
  loaded.index->RemoveEntity(41);
  index.InsertEntity(11);
  loaded.index->InsertEntity(11);
  ExpectBitIdentical(
      queries,
      [&](EntityId q) { return index.Query(q, kTopK, measure); },
      [&](EntityId q) { return loaded.index->Query(q, kTopK, measure); },
      "post-load writes");
}

TEST(SnapshotPersistenceTest, SingleIndexRoundTripGrid) {
  for (const bool compress : {false, true}) {
    for (const bool paged : {false, true}) {
      RunSingleCell(compress, paged);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Round-trip bit identity: sharded index -------------------------------

void RunShardedCell(int num_shards, bool compress, bool paged) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards) +
               " compress=" + std::to_string(compress) +
               " paged=" + std::to_string(paged));
  Dataset dataset = MakeSynDataset(260, /*seed=*/303);
  const uint32_t base_units = dataset.hierarchy->num_base_units();
  const TimeStep horizon = dataset.store->horizon();
  const ShardedIndexOptions sopts{
      .num_shards = num_shards,
      .index = IndexOptions{.num_functions = 48, .seed = 17}};
  ShardedIndex index = ShardedIndex::Build(dataset.store, sopts);

  index.ReplaceEntity(7, MakeReplacementTrace(7, base_units, horizon, 0xB1));
  index.ReplaceEntity(101,
                      MakeReplacementTrace(101, base_units, horizon, 0xB2));
  index.RemoveEntity(33);
  index.RemoveEntity(34);
  index.InsertEntity(34);

  MemSnapshotEnv env;
  Status s = index.SaveSnapshot(&env, compress);
  ASSERT_TRUE(s.ok()) << s.message();
  LoadedShardedIndex loaded;
  s = ShardedIndex::LoadSnapshot(env, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_NE(loaded.index, nullptr);
  EXPECT_EQ(loaded.index->num_shards(), num_shards);

  if (paged) {
    PagedTreeOptions popts;
    popts.backing = PagedTreeOptions::Backing::kSimDisk;
    popts.disk.pool_fraction = 0.5;
    index.EnablePagedTrees(popts);
    loaded.index->EnablePagedTrees(popts);
  }

  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset.store, 4, 0xCAFE);
  // Both lane schedules. The serial one (shard_threads = 1) compares
  // counters too, which additionally proves the coarse router state
  // survived (same shards pruned on both sides). The concurrent schedule's
  // counters depend on the order lanes raise the shared watermark, which
  // varies from run to run, so it is compared on items only.
  ExpectBitIdentical(
      queries,
      [&](EntityId q) { return index.Query(q, kTopK, measure); },
      [&](EntityId q) { return loaded.index->Query(q, kTopK, measure); },
      "sharded serial");
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const TopKResult ra = index.Query(queries[qi], kTopK, measure, {},
                                      /*shard_threads=*/4);
    const TopKResult rb = loaded.index->Query(queries[qi], kTopK, measure, {},
                                              /*shard_threads=*/4);
    ASSERT_TRUE(ra.status.ok()) << ra.status.message();
    ASSERT_TRUE(rb.status.ok()) << rb.status.message();
    EXPECT_TRUE(SameItems(ra.items, rb.items))
        << "sharded concurrent query " << qi << ": original"
        << DescribeItems(ra.items) << " vs loaded" << DescribeItems(rb.items);
  }
  // QueryMany batches through the same versioned pins.
  const auto batch_a = index.QueryMany(queries, kTopK, measure);
  const auto batch_b = loaded.index->QueryMany(queries, kTopK, measure);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (size_t i = 0; i < batch_a.size(); ++i) {
    ASSERT_TRUE(batch_a[i].status.ok());
    ASSERT_TRUE(batch_b[i].status.ok());
    EXPECT_TRUE(SameItems(batch_a[i].items, batch_b[i].items))
        << "QueryMany result " << i;
  }
}

TEST(SnapshotPersistenceTest, ShardedRoundTripGrid) {
  for (const bool compress : {false, true}) {
    for (const bool paged : {false, true}) {
      RunShardedCell(4, compress, paged);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Loader robustness ----------------------------------------------------

TEST(SnapshotPersistenceTest, EmptyEnvIsCleanCorruption) {
  MemSnapshotEnv env;
  LoadedIndex loaded;
  const Status s = DigitalTraceIndex::LoadSnapshot(env, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
}

TEST(SnapshotPersistenceTest, KindMismatchIsCorruption) {
  Dataset dataset = MakeSynDataset(120, /*seed=*/305);
  DigitalTraceIndex index = DigitalTraceIndex::Build(
      dataset.store, IndexOptions{.num_functions = 32, .seed = 17});
  MemSnapshotEnv env;
  ASSERT_TRUE(index.SaveSnapshot(&env).ok());
  LoadedShardedIndex loaded;
  const Status s = ShardedIndex::LoadSnapshot(env, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
  // The reverse direction: a sharded snapshot is never a single-index one,
  // not even with one shard (its kind and section names differ).
  for (const int num_shards : {1, 3}) {
    ShardedIndex sharded = ShardedIndex::Build(
        dataset.store,
        {.num_shards = num_shards,
         .index = IndexOptions{.num_functions = 32, .seed = 17}});
    MemSnapshotEnv sharded_env;
    ASSERT_TRUE(sharded.SaveSnapshot(&sharded_env).ok());
    LoadedIndex single;
    const Status r = DigitalTraceIndex::LoadSnapshot(sharded_env, &single);
    EXPECT_EQ(r.code(), StatusCode::kCorruption)
        << num_shards << " shards: " << r.message();
  }
}

// Pins the section layout both facades share: kind, names and order.
TEST(SnapshotPersistenceTest, ManifestSectionsPinTheFormat) {
  Dataset dataset = MakeSynDataset(120, /*seed=*/305);
  const IndexOptions opts{.num_functions = 32, .seed = 17};
  const auto newest_sections = [](const MemSnapshotEnv& env,
                                  uint64_t* kind) {
    SnapshotManifest manifest;
    EXPECT_TRUE(LoadNewestManifest(env, &manifest).ok());
    *kind = manifest.kind;
    std::vector<std::string> names;
    for (const auto& section : manifest.sections) {
      names.push_back(section.name);
    }
    return names;
  };
  uint64_t kind = 0;
  MemSnapshotEnv single_env;
  ASSERT_TRUE(DigitalTraceIndex::Build(dataset.store, opts)
                  .SaveSnapshot(&single_env)
                  .ok());
  EXPECT_EQ(newest_sections(single_env, &kind),
            (std::vector<std::string>{"config", "hierarchy", "traces",
                                      "tree"}));
  EXPECT_EQ(kind, kSnapshotKindIndex);
  MemSnapshotEnv sharded_env;
  ASSERT_TRUE(
      ShardedIndex::Build(dataset.store, {.num_shards = 2, .index = opts})
          .SaveSnapshot(&sharded_env, /*compress=*/true)
          .ok());
  EXPECT_EQ(newest_sections(sharded_env, &kind),
            (std::vector<std::string>{"config", "hierarchy", "traces_0",
                                      "tree_0", "traces_1", "tree_1",
                                      "router"}));
  EXPECT_EQ(kind, kSnapshotKindSharded);
}

// Returns the (lexicographically newest == numerically newest, the epoch
// suffix is fixed-width hex) file name with the given prefix.
std::string NewestFile(MemSnapshotEnv& env, const std::string& prefix) {
  std::string newest;
  for (const auto& [name, bytes] : env.files()) {
    if (name.rfind(prefix, 0) == 0 && name > newest) newest = name;
  }
  return newest;
}

// Builds one index, saves epoch 1, mutates, saves epoch 2, and returns the
// env plus the per-epoch expected answers.
struct TwoEpochFixture {
  MemSnapshotEnv env;
  std::vector<EntityId> queries;
  std::vector<std::vector<ScoredEntity>> epoch1;
  std::vector<std::vector<ScoredEntity>> epoch2;
};

TwoEpochFixture MakeTwoEpochs(bool sharded_second_epoch_mutations = true) {
  TwoEpochFixture fx;
  Dataset dataset = MakeSynDataset(200, /*seed=*/307);
  const uint32_t base_units = dataset.hierarchy->num_base_units();
  const TimeStep horizon = dataset.store->horizon();
  const ShardedIndexOptions sopts{
      .num_shards = 2, .index = IndexOptions{.num_functions = 32, .seed = 17}};
  ShardedIndex index = ShardedIndex::Build(dataset.store, sopts);
  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  fx.queries = SampleQueries(*dataset.store, 3, 0x77);

  EXPECT_TRUE(index.SaveSnapshot(&fx.env).ok());
  for (EntityId q : fx.queries) {
    fx.epoch1.push_back(index.Query(q, kTopK, measure).items);
  }
  if (sharded_second_epoch_mutations) {
    // Remove the top answer of query 0 so the two epochs provably answer
    // differently, plus a trace replacement for the MVCC path.
    const EntityId victim = fx.epoch1[0][0].entity;
    index.RemoveEntity(victim);
    index.ReplaceEntity(
        5, MakeReplacementTrace(5, base_units, horizon, 0xC1));
  }
  EXPECT_TRUE(index.SaveSnapshot(&fx.env).ok());
  for (EntityId q : fx.queries) {
    fx.epoch2.push_back(index.Query(q, kTopK, measure).items);
  }
  EXPECT_FALSE(SameItems(fx.epoch1[0], fx.epoch2[0]))
      << "fixture mutations did not change the answers";
  return fx;
}

// Which epoch a recovered env answers like: 1, 2, or 0 for neither.
int MatchEpoch(const MemSnapshotEnv& env, const TwoEpochFixture& fx) {
  LoadedShardedIndex loaded;
  const Status s = ShardedIndex::LoadSnapshot(env, &loaded);
  if (!s.ok()) return -1;
  // The loaded hierarchy backs the measure (same structural params).
  PolynomialLevelMeasure measure(loaded.hierarchy->num_levels());
  bool is1 = true;
  bool is2 = true;
  for (size_t qi = 0; qi < fx.queries.size(); ++qi) {
    const TopKResult r = loaded.index->Query(fx.queries[qi], kTopK, measure);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    is1 = is1 && SameItems(r.items, fx.epoch1[qi]);
    is2 = is2 && SameItems(r.items, fx.epoch2[qi]);
  }
  if (is2) return 2;
  if (is1) return 1;
  return 0;
}

TEST(SnapshotPersistenceTest, FallsBackWhenNewestManifestIsCorrupt) {
  TwoEpochFixture fx = MakeTwoEpochs();
  MemSnapshotEnv env = fx.env;
  const std::string manifest = NewestFile(env, "MANIFEST-");
  ASSERT_FALSE(manifest.empty());
  env.files()[manifest][5] ^= 0xFF;
  EXPECT_EQ(MatchEpoch(env, fx), 1);
}

TEST(SnapshotPersistenceTest, FallsBackWhenNewestSectionIsCorrupt) {
  TwoEpochFixture fx = MakeTwoEpochs();
  const std::string manifest = NewestFile(fx.env, "MANIFEST-");
  ASSERT_GE(manifest.size(), 16u);
  const std::string epoch_suffix = manifest.substr(manifest.size() - 16);
  // Scribble on one epoch-2 section; then delete another outright.
  std::vector<std::string> sections;
  for (const auto& [name, bytes] : fx.env.files()) {
    if (name.rfind("MANIFEST-", 0) != 0 &&
        name.size() > 17 && name.substr(name.size() - 16) == epoch_suffix) {
      sections.push_back(name);
    }
  }
  ASSERT_GE(sections.size(), 2u);
  {
    MemSnapshotEnv env = fx.env;
    auto& bytes = env.files()[sections[0]];
    bytes[bytes.size() / 2] ^= 0x01;
    EXPECT_EQ(MatchEpoch(env, fx), 1) << "bit flip in " << sections[0];
  }
  {
    MemSnapshotEnv env = fx.env;
    env.files().erase(sections[1]);
    EXPECT_EQ(MatchEpoch(env, fx), 1) << "dropped " << sections[1];
  }
}

TEST(SnapshotPersistenceTest, PruneKeepsNewestEpochLoadable) {
  TwoEpochFixture fx = MakeTwoEpochs();
  SnapshotManifest newest;
  ASSERT_TRUE(LoadNewestManifest(fx.env, &newest).ok());
  ASSERT_TRUE(PruneSnapshots(&fx.env, newest.epoch).ok());
  const std::string manifest = NewestFile(fx.env, "MANIFEST-");
  const std::string suffix = manifest.substr(manifest.size() - 16);
  for (const auto& [name, bytes] : fx.env.files()) {
    EXPECT_EQ(name.substr(name.size() - 16), suffix)
        << "stale epoch file survived pruning: " << name;
  }
  EXPECT_EQ(MatchEpoch(fx.env, fx), 2);
}

TEST(SnapshotPersistenceTest, DirEnvRoundTrip) {
  Dataset dataset = MakeSynDataset(140, /*seed=*/311);
  DigitalTraceIndex index = DigitalTraceIndex::Build(
      dataset.store, IndexOptions{.num_functions = 32, .seed = 17});
  DirSnapshotEnv env(::testing::TempDir() + "dtrace_snapshot_rt");
  Status s = index.SaveSnapshot(&env, /*compress=*/true);
  ASSERT_TRUE(s.ok()) << s.message();
  LoadedIndex loaded;
  s = DigitalTraceIndex::LoadSnapshot(env, &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset.store, 3, 0x13);
  ExpectBitIdentical(
      queries,
      [&](EntityId q) { return index.Query(q, kTopK, measure); },
      [&](EntityId q) { return loaded.index->Query(q, kTopK, measure); },
      "dir env");
}

// --- Crash harness --------------------------------------------------------

// Records the byte size of every WriteFile, so the sweep can place crash
// points exactly on (and adjacent to) each write boundary of a commit.
class RecordingEnv final : public SnapshotEnv {
 public:
  explicit RecordingEnv(SnapshotEnv* base) : base_(base) {}
  Status WriteFile(std::string_view name,
                   std::span<const uint8_t> bytes) override {
    sizes_.push_back(bytes.size());
    return base_->WriteFile(name, bytes);
  }
  Status ReadFile(std::string_view name,
                  std::vector<uint8_t>* out) const override {
    return base_->ReadFile(name, out);
  }
  Status ListFiles(std::vector<std::string>* names) const override {
    return base_->ListFiles(names);
  }
  Status DeleteFile(std::string_view name) override {
    return base_->DeleteFile(name);
  }
  const std::vector<size_t>& sizes() const { return sizes_; }

 private:
  SnapshotEnv* base_;
  std::vector<size_t> sizes_;
};

TEST(SnapshotCrashHarness, RecoveryIsPreviousEpochOrNewEpochNeverGarbage) {
  TwoEpochFixture fx = MakeTwoEpochs();
  // Rebuild the live index at epoch-2 state by loading it back — the sweep
  // re-saves the same state through crash wrappers over the epoch-1 base.
  LoadedShardedIndex live;
  ASSERT_TRUE(ShardedIndex::LoadSnapshot(fx.env, &live).ok());

  // The epoch-1-only base env: epoch 2's files pruned away.
  MemSnapshotEnv base = fx.env;
  {
    const std::string newest = NewestFile(base, "MANIFEST-");
    const std::string suffix = newest.substr(newest.size() - 16);
    std::vector<std::string> drop;
    for (const auto& [name, bytes] : base.files()) {
      if (name.substr(name.size() - 16) == suffix) drop.push_back(name);
    }
    for (const auto& name : drop) base.files().erase(name);
  }
  ASSERT_EQ(MatchEpoch(base, fx), 1);

  // Byte boundaries of the commit the sweep will crash.
  uint64_t total = 0;
  std::vector<uint64_t> boundaries;
  {
    MemSnapshotEnv scratch = base;
    RecordingEnv rec(&scratch);
    ASSERT_TRUE(live.index->SaveSnapshot(&rec).ok());
    for (const size_t s : rec.sizes()) {
      total += s;
      boundaries.push_back(total);
    }
  }
  ASSERT_GE(boundaries.size(), 7u);  // config..router sections + manifest

  std::set<uint64_t> points{0, total, total + 1};
  for (const uint64_t b : boundaries) {
    points.insert(b > 0 ? b - 1 : 0);
    points.insert(b);
    points.insert(b + 1);
  }
  for (uint64_t i = 1; i < 16; ++i) points.insert(total * i / 16);

  using Mode = CrashSnapshotEnv::Mode;
  for (const Mode mode : {Mode::kTruncate, Mode::kTornTail, Mode::kDropFile}) {
    for (const uint64_t point : points) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " crash_after=" + std::to_string(point) + "/" +
                   std::to_string(total));
      MemSnapshotEnv crashed = base;
      CrashSnapshotEnv crash(&crashed, point, mode,
                             /*seed=*/0x51Dull ^ (point * 2654435761ull));
      ASSERT_TRUE(live.index->SaveSnapshot(&crash).ok())
          << "a dying writer never learns its bytes were lost";
      const int epoch = MatchEpoch(crashed, fx);
      EXPECT_TRUE(epoch == 1 || epoch == 2)
          << "recovered state matches neither epoch (" << epoch << ")";
      if (point > total) {
        EXPECT_EQ(epoch, 2) << "no byte was lost; epoch 2 must be live";
      }
      if (point == 0) {
        EXPECT_EQ(epoch, 1) << "nothing landed; epoch 1 must still serve";
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SnapshotCrashHarness, CrashDuringFirstCommitIsCleanCorruption) {
  Dataset dataset = MakeSynDataset(120, /*seed=*/313);
  DigitalTraceIndex index = DigitalTraceIndex::Build(
      dataset.store, IndexOptions{.num_functions = 32, .seed = 17});
  uint64_t total = 0;
  {
    MemSnapshotEnv scratch;
    RecordingEnv rec(&scratch);
    ASSERT_TRUE(index.SaveSnapshot(&rec).ok());
    for (const size_t s : rec.sizes()) total += s;
  }
  using Mode = CrashSnapshotEnv::Mode;
  for (const Mode mode : {Mode::kTruncate, Mode::kTornTail, Mode::kDropFile}) {
    for (const uint64_t point : {uint64_t{1}, total / 2, total - 1}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " crash_after=" + std::to_string(point));
      MemSnapshotEnv env;
      CrashSnapshotEnv crash(&env, point, mode, /*seed=*/point + 9);
      ASSERT_TRUE(index.SaveSnapshot(&crash).ok());
      LoadedIndex loaded;
      const Status s = DigitalTraceIndex::LoadSnapshot(env, &loaded);
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
    }
  }
}

}  // namespace
}  // namespace dtrace
