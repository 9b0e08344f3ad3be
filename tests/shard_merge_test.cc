// Unit tests for the deterministic top-k shard merge (MergeShardTopK):
// cross-shard score ties, k exceeding per-shard candidate counts, empty
// shards, k = 0 / k = |E| edge cases, and stats aggregation.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/sharded_index.h"

namespace dtrace {
namespace {

TopKResult MakeShard(std::vector<ScoredEntity> items) {
  TopKResult r;
  r.items = std::move(items);
  return r;
}

void ExpectItems(const TopKResult& r,
                 const std::vector<ScoredEntity>& expected) {
  ASSERT_EQ(r.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.items[i].entity, expected[i].entity) << "rank " << i;
    EXPECT_DOUBLE_EQ(r.items[i].score, expected[i].score) << "rank " << i;
  }
}

TEST(ShardMergeTest, MergesByScoreThenEntityId) {
  // Ties across shards must resolve exactly like the single-tree heap:
  // higher score first, then lower entity id — regardless of which shard
  // contributed which item or of shard order.
  const std::vector<TopKResult> shards = {
      MakeShard({{7, 0.9}, {3, 0.5}}),
      MakeShard({{1, 0.9}, {8, 0.5}, {2, 0.1}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 4);
  ExpectItems(merged, {{1, 0.9}, {7, 0.9}, {3, 0.5}, {8, 0.5}});
}

TEST(ShardMergeTest, ShardOrderDoesNotMatter) {
  const std::vector<TopKResult> ab = {
      MakeShard({{4, 0.7}, {6, 0.3}}),
      MakeShard({{5, 0.7}, {2, 0.2}}),
  };
  const std::vector<TopKResult> ba = {ab[1], ab[0]};
  const TopKResult m1 = MergeShardTopK(ab, 3);
  const TopKResult m2 = MergeShardTopK(ba, 3);
  ASSERT_EQ(m1.items.size(), m2.items.size());
  for (size_t i = 0; i < m1.items.size(); ++i) {
    EXPECT_EQ(m1.items[i].entity, m2.items[i].entity);
    EXPECT_DOUBLE_EQ(m1.items[i].score, m2.items[i].score);
  }
}

TEST(ShardMergeTest, KLargerThanEveryShardKeepsEverything) {
  // Each shard holds fewer than k candidates; the union is still below k,
  // so the merge returns all of them, fully sorted (the k = |E| edge case).
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.4}}),
      MakeShard({{1, 0.8}}),
      MakeShard({{2, 0.6}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 10);
  ExpectItems(merged, {{1, 0.8}, {2, 0.6}, {0, 0.4}});
}

TEST(ShardMergeTest, TruncatesToK) {
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.9}, {2, 0.7}}),
      MakeShard({{1, 0.8}, {3, 0.6}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 2);
  ExpectItems(merged, {{0, 0.9}, {1, 0.8}});
}

TEST(ShardMergeTest, EmptyShardsContributeNothing) {
  const std::vector<TopKResult> shards = {
      MakeShard({}),
      MakeShard({{5, 0.5}}),
      MakeShard({}),
  };
  const TopKResult merged = MergeShardTopK(shards, 3);
  ExpectItems(merged, {{5, 0.5}});
}

TEST(ShardMergeTest, AllShardsEmptyYieldsEmpty) {
  const std::vector<TopKResult> shards = {MakeShard({}), MakeShard({})};
  EXPECT_TRUE(MergeShardTopK(shards, 5).items.empty());
  EXPECT_TRUE(MergeShardTopK({}, 5).items.empty());
}

TEST(ShardMergeTest, KZeroYieldsEmpty) {
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.9}}),
      MakeShard({{1, 0.8}}),
  };
  EXPECT_TRUE(MergeShardTopK(shards, 0).items.empty());
}

// Sets every listed counter of `stats` (QueryStats::Fields, then
// TraceIoStats::Fields) to a distinct value: first, first + 1, ...
void FillCounters(QueryStats& stats, double first) {
  double v = first;
  const auto fill = [&v](auto& s) {
    std::remove_reference_t<decltype(s)>::Fields(
        [&](const char*, auto field) {
          s.*field =
              static_cast<std::remove_reference_t<decltype(s.*field)>>(v++);
        });
  };
  fill(stats);
  fill(stats.io);
}

std::map<std::string, double> CountersByName(const QueryStats& stats) {
  std::map<std::string, double> out;
  stats.ForEachCounter([&out](const char* name, double v) {
    EXPECT_TRUE(out.emplace(name, v).second) << "duplicate name " << name;
  });
  return out;
}

// Every listed counter of `merged` is the sum of a's and b's, by name.
void ExpectEveryCounterSums(const QueryStats& a, const QueryStats& b,
                            const QueryStats& merged) {
  const auto ca = CountersByName(a);
  const auto cb = CountersByName(b);
  const auto cm = CountersByName(merged);
  ASSERT_EQ(cm.size(), NumFields<QueryStats>() + NumFields<TraceIoStats>());
  for (const auto& [name, value] : cm) {
    EXPECT_EQ(value, ca.at(name) + cb.at(name)) << name;
  }
}

TEST(ShardMergeTest, SumsEveryListedCounter) {
  TopKResult a = MakeShard({{0, 0.9}});
  FillCounters(a.stats, 1);
  TopKResult b = MakeShard({{1, 0.8}});
  FillCounters(b.stats, 101);
  const TopKResult merged = MergeShardTopK(std::vector{a, b}, 2);
  ASSERT_TRUE(merged.status.ok());
  ExpectItems(merged, {{0, 0.9}, {1, 0.8}});
  ExpectEveryCounterSums(a.stats, b.stats, merged.stats);
}

TEST(ShardMergeTest, ErroredMergeStillSumsEveryListedCounter) {
  // A failed shard empties the merged items, but the stats still report
  // the work every shard performed.
  TopKResult a = MakeShard({{0, 0.9}});
  FillCounters(a.stats, 1);
  TopKResult b = MakeShard({});
  b.status = Status::Corruption("damaged page");
  FillCounters(b.stats, 101);
  const TopKResult merged = MergeShardTopK(std::vector{a, b}, 2);
  EXPECT_FALSE(merged.status.ok());
  EXPECT_TRUE(merged.items.empty());
  ExpectEveryCounterSums(a.stats, b.stats, merged.stats);
}

}  // namespace
}  // namespace dtrace
