// The shard map must be a pure function of (entity id, num_shards):
// independent of thread counts, insertion order, build mode, and process
// state. These tests pin the map for fixed inputs — if ShardOfEntity ever
// changes, every persisted shard layout would silently re-partition, so a
// change here must be a deliberate, breaking decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/sharded_index.h"
#include "exp/presets.h"

namespace dtrace {
namespace {

TEST(ShardMapTest, PinsShardAssignmentForFixedInputs) {
  // Golden values for the splitmix64-based map. A failure means the map
  // changed and existing shard layouts would no longer be readable.
  const uint32_t expected4[16] = {3, 1, 2, 1, 2, 2, 0, 3,
                                  2, 0, 2, 1, 3, 3, 2, 1};
  const uint32_t expected7[16] = {2, 2, 4, 2, 6, 3, 3, 2,
                                  4, 2, 1, 1, 1, 2, 5, 0};
  const uint32_t expected2[16] = {1, 1, 0, 1, 0, 0, 0, 1,
                                  0, 0, 0, 1, 1, 1, 0, 1};
  for (EntityId e = 0; e < 16; ++e) {
    EXPECT_EQ(ShardOfEntity(e, 4), expected4[e]) << "entity " << e;
    EXPECT_EQ(ShardOfEntity(e, 7), expected7[e]) << "entity " << e;
    EXPECT_EQ(ShardOfEntity(e, 2), expected2[e]) << "entity " << e;
  }
  EXPECT_EQ(ShardOfEntity(4294967295u, 4), 0u);
  EXPECT_EQ(ShardOfEntity(123456u, 7), 4u);
}

TEST(ShardMapTest, SingleShardMapsEverythingToZero) {
  for (EntityId e : {0u, 1u, 999u, 4294967295u}) {
    EXPECT_EQ(ShardOfEntity(e, 1), 0u);
  }
}

TEST(ShardMapTest, AlwaysBelowNumShards) {
  for (uint32_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
    for (EntityId e = 0; e < 1000; ++e) {
      EXPECT_LT(ShardOfEntity(e, n), n);
    }
  }
}

TEST(ShardMapTest, DenseIdsSpreadEvenly) {
  // The finalizer avalanches, so dense id ranges must not stripe: over 10K
  // consecutive ids each of 7 shards should hold close to 1/7th.
  const uint32_t n = 7;
  std::vector<uint32_t> counts(n, 0);
  for (EntityId e = 0; e < 10000; ++e) ++counts[ShardOfEntity(e, n)];
  for (uint32_t s = 0; s < n; ++s) {
    EXPECT_GT(counts[s], 1200u) << "shard " << s;
    EXPECT_LT(counts[s], 1700u) << "shard " << s;
  }
}

TEST(ShardMapTest, ShardMembershipIndependentOfBuildConfiguration) {
  // The same population must land in the same shards whether the build is
  // serial or shard-parallel, and regardless of the order the entity ids
  // were presented in.
  const Dataset d = MakeSynDataset(300, /*seed=*/55);
  std::vector<EntityId> forward(d.num_entities());
  std::iota(forward.begin(), forward.end(), 0);
  std::vector<EntityId> shuffled = forward;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(99));

  const ShardedIndexOptions base{.num_shards = 4,
                                 .index = {.num_functions = 64, .seed = 5}};
  ShardedIndexOptions serial = base;
  serial.build_threads = 1;
  ShardedIndexOptions parallel = base;
  parallel.build_threads = 4;

  const ShardedIndex a = ShardedIndex::Build(d.store, serial, forward);
  const ShardedIndex b = ShardedIndex::Build(d.store, parallel, forward);
  const ShardedIndex s = ShardedIndex::Build(d.store, serial, shuffled);
  for (EntityId e = 0; e < d.num_entities(); ++e) {
    const uint32_t expected = ShardOfEntity(e, 4);
    for (const ShardedIndex* idx : {&a, &b, &s}) {
      for (int sh = 0; sh < idx->num_shards(); ++sh) {
        EXPECT_EQ(idx->shard(sh).tree().Contains(e),
                  sh == static_cast<int>(expected))
            << "entity " << e << " shard " << sh;
      }
    }
  }
}

}  // namespace
}  // namespace dtrace
