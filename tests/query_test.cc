// Exactness of Algorithm 2 against brute force across random datasets,
// measures, k values, seeds, and index configurations.
#include "core/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "mobility/hierarchy_generator.h"
#include "trace/trace_store.h"
#include "util/rng.h"

namespace dtrace {
namespace {

std::shared_ptr<TraceStore> RandomStore(uint32_t entities, TimeStep horizon,
                                        const SpatialHierarchy& h,
                                        uint64_t seed, int max_cells = 12) {
  Rng rng(seed);
  std::vector<PresenceRecord> records;
  for (EntityId e = 0; e < entities; ++e) {
    const int n = 1 + static_cast<int>(rng.NextBelow(max_cells));
    for (int i = 0; i < n; ++i) {
      const auto unit = static_cast<UnitId>(rng.NextBelow(h.num_base_units()));
      const auto t = static_cast<TimeStep>(rng.NextBelow(horizon - 1));
      records.push_back({e, unit, t, t + 1});
    }
  }
  return std::make_shared<TraceStore>(h, entities, horizon, records);
}

void ExpectSameScores(const TopKResult& fast, const TopKResult& slow) {
  ASSERT_EQ(fast.items.size(), slow.items.size());
  for (size_t i = 0; i < fast.items.size(); ++i) {
    ASSERT_NEAR(fast.items[i].score, slow.items[i].score, 1e-12)
        << "rank " << i;
  }
}

struct ExactnessCase {
  std::string name;
  uint64_t seed;
  int nh;
  bool full_signatures;
  IndexOptions::Hasher hasher;
};

class QueryExactnessTest : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(QueryExactnessTest, MatchesBruteForce) {
  const auto& param = GetParam();
  const auto hierarchy =
      GenerateGridHierarchy(8, {.m = 3, .a = 1.5, .b = 1.5});
  auto store = RandomStore(80, 24, *hierarchy, param.seed);
  IndexOptions opts;
  opts.num_functions = param.nh;
  opts.seed = param.seed * 31 + 1;
  opts.store_full_signatures = param.full_signatures;
  opts.hasher = param.hasher;
  const auto index = DigitalTraceIndex::Build(store, opts);

  PolynomialLevelMeasure poly(hierarchy->num_levels());
  WeightedDiceMeasure dice(UniformLevelWeights(hierarchy->num_levels()));
  WeightedJaccardMeasure jacc(UniformLevelWeights(hierarchy->num_levels()));
  const AssociationMeasure* measures[] = {&poly, &dice, &jacc};

  for (const auto* measure : measures) {
    for (int k : {1, 3, 10}) {
      for (EntityId q = 0; q < 80; q += 13) {
        const TopKResult fast = index.Query(q, k, *measure);
        const TopKResult slow = index.BruteForce(q, k, *measure);
        ExpectSameScores(fast, slow);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, QueryExactnessTest,
    ::testing::Values(
        ExactnessCase{"small_nh", 1, 4, false,
                      IndexOptions::Hasher::kHierarchical},
        ExactnessCase{"mid_nh", 2, 16, false,
                      IndexOptions::Hasher::kHierarchical},
        ExactnessCase{"large_nh", 3, 64, false,
                      IndexOptions::Hasher::kHierarchical},
        ExactnessCase{"full_sig", 4, 16, true,
                      IndexOptions::Hasher::kHierarchical},
        ExactnessCase{"exact_hasher", 5, 16, false,
                      IndexOptions::Hasher::kExact},
        ExactnessCase{"seed_sweep_a", 6, 8, false,
                      IndexOptions::Hasher::kHierarchical},
        ExactnessCase{"seed_sweep_b", 7, 8, false,
                      IndexOptions::Hasher::kHierarchical}),
    [](const auto& info) { return info.param.name; });

TEST(QueryTest, KLargerThanPopulationReturnsEveryone) {
  const auto hierarchy = GenerateGridHierarchy(4, {.m = 2, .a = 1.0, .b = 1.0});
  auto store = RandomStore(10, 10, *hierarchy, 9);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 8});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  const TopKResult r = index.Query(0, 50, measure);
  EXPECT_EQ(r.items.size(), 9u);  // everyone but the query entity
}

TEST(QueryTest, ResultsSortedByScoreThenId) {
  const auto hierarchy = GenerateGridHierarchy(4, {.m = 2, .a = 1.0, .b = 1.0});
  auto store = RandomStore(40, 12, *hierarchy, 10);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 8});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  const TopKResult r = index.Query(1, 10, measure);
  for (size_t i = 1; i < r.items.size(); ++i) {
    const auto& prev = r.items[i - 1];
    const auto& cur = r.items[i];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.entity < cur.entity));
  }
}

TEST(QueryTest, StatsArepopulated) {
  const auto hierarchy = GenerateGridHierarchy(8, {.m = 3, .a = 1.5, .b = 1.5});
  auto store = RandomStore(100, 24, *hierarchy, 11);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 32});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  const TopKResult r = index.Query(3, 5, measure);
  EXPECT_GT(r.stats.nodes_visited, 0u);
  EXPECT_GE(r.stats.entities_checked, r.items.size());
  EXPECT_GT(r.stats.heap_pushes, 0u);
  EXPECT_GE(r.stats.elapsed_seconds, 0.0);
  const double pe = r.stats.pruning_effectiveness(100, 5);
  EXPECT_GE(pe, 0.0);
  EXPECT_LE(pe, 1.0);
}

TEST(QueryTest, PruningEffectivenessGuardsDegenerateInputs) {
  QueryStats stats;
  stats.entities_checked = 50;
  // Empty population: the naive (checked - k) / |E| would divide by zero.
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(0, 10), 0.0);
  // k covers (or exceeds) the whole population: nothing to prune.
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(100, 500), 0.0);
  // Fewer checked than k (tiny leaves): clamps to 0, never negative.
  stats.entities_checked = 3;
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(100, 10), 0.0);
  // Normal case: (50 - 10) / 100.
  stats.entities_checked = 50;
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(100, 10), 0.4);
  // Never exceeds 1 even if instrumentation over-counts.
  stats.entities_checked = 1000;
  EXPECT_DOUBLE_EQ(stats.pruning_effectiveness(100, 10), 1.0);
  // Every value above is finite and in [0, 1] — no NaN leaks into PE
  // aggregation.
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}}) {
    for (int k : {-1, 0, 1, 100, 1000}) {
      const double pe = stats.pruning_effectiveness(n, k);
      EXPECT_TRUE(std::isfinite(pe));
      EXPECT_GE(pe, 0.0);
      EXPECT_LE(pe, 1.0);
    }
  }
}

TEST(QueryTest, PruningActuallySkipsEntities) {
  // With enough hash functions the search should not touch everyone.
  const auto hierarchy = GenerateGridHierarchy(8, {.m = 3, .a = 1.5, .b = 1.5});
  auto store = RandomStore(300, 48, *hierarchy, 12, /*max_cells=*/8);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 128});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  uint64_t total_checked = 0;
  int queries = 0;
  for (EntityId q = 0; q < 300; q += 23) {
    total_checked += index.Query(q, 1, measure).stats.entities_checked;
    ++queries;
  }
  EXPECT_LT(total_checked, static_cast<uint64_t>(queries) * 299)
      << "no pruning happened at all";
}

TEST(QueryTest, AccessHookSeesEveryCheckedEntity) {
  const auto hierarchy = GenerateGridHierarchy(4, {.m = 2, .a = 1.0, .b = 1.0});
  auto store = RandomStore(50, 12, *hierarchy, 13);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 16});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  uint64_t hook_calls = 0;
  QueryOptions qopts;
  qopts.access_hook = [&](EntityId) { ++hook_calls; };
  const TopKResult r = index.Query(2, 5, measure, qopts);
  EXPECT_EQ(hook_calls, r.stats.entities_checked);
}

TEST(QueryTest, EagerChildBoundsKeepTheVisitSequence) {
  // Pins the best-first walk on a seeded preset. The summed totals were
  // recorded from the search that pushed each child with its parent's bound
  // and tightened it on pop; bounding children when their parent expands
  // must visit the same nodes and check the same entities, while pushing
  // only children whose own bound survives.
  constexpr uint64_t kVisited = 27696;
  constexpr uint64_t kChecked = 15416;
  constexpr uint64_t kLazyPushes = 56690;
  const Dataset d = MakeSynDataset(1500, /*seed=*/61);
  const auto index =
      DigitalTraceIndex::Build(d.store, {.num_functions = 64, .seed = 17});
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  uint64_t visited = 0, checked = 0, pushes = 0;
  for (EntityId q : SampleQueries(*d.store, 20, /*seed=*/0x5EED)) {
    const TopKResult fast = index.Query(q, 10, measure);
    const TopKResult slow = index.BruteForce(q, 10, measure);
    ASSERT_EQ(fast.items.size(), slow.items.size()) << "query " << q;
    for (size_t i = 0; i < fast.items.size(); ++i) {
      EXPECT_EQ(fast.items[i].entity, slow.items[i].entity) << "query " << q;
      EXPECT_EQ(fast.items[i].score, slow.items[i].score) << "query " << q;
    }
    visited += fast.stats.nodes_visited;
    checked += fast.stats.entities_checked;
    pushes += fast.stats.heap_pushes;
  }
  EXPECT_EQ(visited, kVisited);
  EXPECT_EQ(checked, kChecked);
  EXPECT_LT(pushes, kLazyPushes);
}

TEST(QueryTest, EmptyTraceQueryScoresZero) {
  const auto hierarchy = GenerateGridHierarchy(4, {.m = 2, .a = 1.0, .b = 1.0});
  Rng rng(14);
  std::vector<PresenceRecord> records;
  for (EntityId e = 1; e < 20; ++e) {
    records.push_back(
        {e, static_cast<UnitId>(rng.NextBelow(16)), 0, 1});
  }
  auto store = std::make_shared<TraceStore>(*hierarchy, 20, 4, records);
  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 8});
  PolynomialLevelMeasure measure(hierarchy->num_levels());
  const TopKResult r = index.Query(0, 3, measure);  // entity 0 has no trace
  for (const auto& item : r.items) EXPECT_DOUBLE_EQ(item.score, 0.0);
}

}  // namespace
}  // namespace dtrace
