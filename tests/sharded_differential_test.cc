// Differential/property harness for the sharded index (in the spirit of
// black-box consistency checking of concurrent databases): a seeded
// randomized workload — build, Query / QueryMany / windowed queries,
// InsertBatch, ReplaceEntity + UpdateEntity + RemoveEntity + Refresh — runs
// against ShardedIndex instances at {1, 2, 4, 7} shards, over both storage
// backends (in-memory TraceStore and one PagedTraceSource shared by every
// lane), and under both lane schedules (one frontier over every shard, or
// concurrent lane groups coupled through a shared watermark) — and
// every configuration must return results bit-identical to the single-tree
// DigitalTraceIndex oracle. Approximate queries must keep the (1 + epsilon)
// guarantee against the brute-force scan.
// Aggregated QueryStats::io must also be consistent: per-query access
// totals are deterministic across thread counts for a fixed configuration,
// and the 1-shard sharded instance charges exactly the oracle's I/O.
// The paged-MinSigTree legs re-run the same grids with every shard's tree
// served from SoA node pages (in-memory and SimDisk backings), which must
// change neither answers nor search counters — and whose tree-page I/O
// totals must themselves be thread-count-deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"
#include "util/rng.h"

namespace dtrace {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 7};

struct World {
  static constexpr IndexOptions kIndexOptions{.num_functions = 96,
                                              .seed = 17};
  Dataset dataset;
  std::vector<EntityId> initial;
  std::unique_ptr<DigitalTraceIndex> oracle;
  std::vector<std::unique_ptr<ShardedIndex>> sharded;  // one per kShardCounts

  explicit World(uint32_t num_entities, uint64_t data_seed,
                 std::vector<EntityId> initial_entities)
      : dataset(MakeSynDataset(num_entities, data_seed)),
        initial(std::move(initial_entities)) {
    oracle = FreshOracle();
    for (int shards : kShardCounts) {
      sharded.push_back(std::make_unique<ShardedIndex>(ShardedIndex::Build(
          dataset.store, {.num_shards = shards, .index = kIndexOptions},
          initial)));
    }
  }

  // A second index built exactly like `oracle` (hence the same answers),
  // for tests that page one index while `oracle` stays in memory as the
  // reference.
  std::unique_ptr<DigitalTraceIndex> FreshOracle() const {
    return std::make_unique<DigitalTraceIndex>(
        DigitalTraceIndex::Build(dataset.store, kIndexOptions, initial));
  }
};

std::vector<EntityId> Range(EntityId begin, EntityId end) {
  std::vector<EntityId> ids;
  for (EntityId e = begin; e < end; ++e) ids.push_back(e);
  return ids;
}

void ExpectIdentical(const TopKResult& expected, const TopKResult& actual,
                     const char* what) {
  ASSERT_EQ(expected.items.size(), actual.items.size()) << what;
  for (size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].entity, actual.items[i].entity)
        << what << " rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score)
        << what << " rank " << i;
  }
}

// One randomized query plan: entity, k, and an optional time window.
struct QueryPlan {
  EntityId q;
  int k;
  QueryOptions options;  // window only; backends fill in trace_source
};

std::vector<QueryPlan> MakePlans(const World& w, size_t count, uint64_t seed) {
  const auto pool = SampleQueries(*w.dataset.store, count, seed);
  Rng rng(seed ^ 0xD1FFull);
  std::vector<QueryPlan> plans;
  for (EntityId q : pool) {
    QueryPlan plan;
    plan.q = q;
    plan.k = 1 + static_cast<int>(rng.NextBelow(25));
    if (rng.NextBelow(2) == 0) {
      const TimeStep horizon = w.dataset.horizon;
      const TimeStep begin = static_cast<TimeStep>(rng.NextBelow(horizon / 2));
      const TimeStep end =
          begin + 1 +
          static_cast<TimeStep>(rng.NextBelow(horizon - begin - 1));
      plan.options.time_window = TimeWindow{begin, end};
    }
    plans.push_back(plan);
  }
  return plans;
}

// Every sharded configuration must reproduce the oracle bit for bit, for
// every shard count and under both lane schedules: shard_threads == 1
// searches every lane in one frontier, 3 splits the lanes into up to three
// concurrent groups (several lanes per group at 4 and 7 shards) coupled
// through the shared watermark.
void CheckAgainstOracle(const World& w, const std::vector<QueryPlan>& plans) {
  for (const QueryPlan& plan : plans) {
    const TopKResult expected =
        w.oracle->Query(plan.q, plan.k, PolynomialLevelMeasure(
            w.dataset.hierarchy->num_levels()), plan.options);
    for (size_t si = 0; si < w.sharded.size(); ++si) {
      for (int shard_threads : {1, 3}) {
        const TopKResult actual = w.sharded[si]->Query(
            plan.q, plan.k,
            PolynomialLevelMeasure(w.dataset.hierarchy->num_levels()),
            plan.options, shard_threads);
        ExpectIdentical(expected, actual, "sharded");
        // PE inputs must agree too: the merged stats cover the whole
        // population's worth of exact evaluations.
        EXPECT_GE(actual.stats.entities_checked,
                  static_cast<uint64_t>(actual.items.size()));
      }
    }
  }
}

TEST(ShardedDifferentialTest, RandomizedQueriesMatchOracleInMemory) {
  World w(500, /*data_seed=*/97, Range(0, 500));
  CheckAgainstOracle(w, MakePlans(w, 8, /*seed=*/301));
}

TEST(ShardedDifferentialTest, PagedBackendMatchesOracleAcrossThreadCounts) {
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 6, /*seed=*/302);
  std::vector<EntityId> queries;
  for (const auto& p : plans) queries.push_back(p.q);
  const int k = 10;

  // In-memory oracle reference (the storage path must not change answers).
  std::vector<TopKResult> expected;
  for (EntityId q : queries) {
    expected.push_back(w.oracle->Query(q, k, measure));
  }

  PagedTraceSource::Options popts;
  popts.pool_fraction = 0.4;  // partial pool: real miss/eviction traffic
  const PagedTraceSource shared(*w.dataset.store, popts);
  QueryOptions qopts;
  qopts.trace_source = &shared;

  for (size_t si = 0; si < w.sharded.size(); ++si) {
    // Per-query I/O *totals* (accesses, records, bytes) and search counters
    // are deterministic for a fixed shard count: every query runs its own
    // serial forest walk, which issues the same access sequence no matter
    // how queries interleave. Only the read/hit split may shift with pool
    // state, so compare their sum.
    std::vector<uint64_t> ref_touched, ref_fetched, ref_bytes, ref_checked;
    for (int num_threads : {1, 4}) {
      const auto results =
          w.sharded[si]->QueryMany(queries, k, measure, qopts, num_threads);
      ASSERT_EQ(results.size(), queries.size());
      std::vector<uint64_t> touched, fetched, bytes, checked;
      for (size_t i = 0; i < results.size(); ++i) {
        ExpectIdentical(expected[i], results[i], "paged");
        touched.push_back(results[i].stats.io.pages_read +
                          results[i].stats.io.pages_hit);
        fetched.push_back(results[i].stats.io.entities_fetched);
        bytes.push_back(results[i].stats.io.bytes_read);
        checked.push_back(results[i].stats.entities_checked);
        EXPECT_GT(fetched.back(), 0u) << "paged backend did no I/O?";
      }
      if (ref_touched.empty()) {
        ref_touched = touched;
        ref_fetched = fetched;
        ref_bytes = bytes;
        ref_checked = checked;
        continue;
      }
      EXPECT_EQ(ref_touched, touched) << "shards " << kShardCounts[si]
                                      << " threads " << num_threads;
      EXPECT_EQ(ref_fetched, fetched);
      EXPECT_EQ(ref_bytes, bytes);
      EXPECT_EQ(ref_checked, checked)
          << "per-query counters must not depend on thread count";
    }
  }
}

TEST(ShardedDifferentialTest, OneShardChargesExactlyTheOracleIo) {
  World w(400, /*data_seed=*/89, Range(0, 400));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*w.dataset.store, 4, 51);
  PagedTraceSource::Options popts;
  popts.pool_fraction = 0.4;
  for (EntityId q : queries) {
    // Fresh cold source per side: serial runs are fully deterministic, so
    // a 1-shard ShardedIndex must reproduce the oracle's accounting to the
    // page, and every other listed counter too. Only the timings differ.
    PagedTraceSource oracle_src(*w.dataset.store, popts);
    PagedTraceSource sharded_src(*w.dataset.store, popts);
    QueryOptions oracle_opts;
    oracle_opts.trace_source = &oracle_src;
    QueryOptions sharded_opts;
    sharded_opts.trace_source = &sharded_src;
    const TopKResult a = w.oracle->Query(q, 10, measure, oracle_opts);
    const TopKResult b =
        w.sharded[0]->Query(q, 10, measure, sharded_opts, /*shard_threads=*/1);
    ExpectIdentical(a, b, "1-shard");
    std::map<std::string, double> oracle_counters;
    a.stats.ForEachCounter([&](const char* name, double v) {
      oracle_counters[name] = v;
    });
    size_t compared = 0;
    b.stats.ForEachCounter([&](const char* name, double v) {
      const std::string n = name;
      if (n == "elapsed_seconds" || n == "work_seconds" ||
          n == "modeled_io_seconds") {
        return;
      }
      EXPECT_EQ(oracle_counters.at(n), v) << n << ", query " << q;
      ++compared;
    });
    EXPECT_EQ(compared,
              NumFields<QueryStats>() + NumFields<TraceIoStats>() - 3);
  }
}

TEST(ShardedDifferentialTest, SharedPagedSourceComposesWithLaneGroups) {
  // One paged source — raw or compressed — shared by every lane through
  // QueryOptions::trace_source, under both lane schedules: with 4 lane
  // groups the groups' cursors read one pool concurrently. Every
  // configuration must stay bit-identical to the in-memory oracle.
  World w(400, /*data_seed=*/89, Range(0, 400));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*w.dataset.store, 4, 52);
  for (const bool compress : {false, true}) {
    PagedTraceSource::Options popts;
    popts.pool_fraction = 0.4;
    popts.compress = compress;
    const PagedTraceSource shared(*w.dataset.store, popts);
    QueryOptions qopts;
    qopts.trace_source = &shared;
    for (EntityId q : queries) {
      const TopKResult expected = w.oracle->Query(q, 10, measure);
      for (size_t si = 0; si < w.sharded.size(); ++si) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(testing::Message()
                       << "compress " << compress << " shards "
                       << kShardCounts[si] << " threads " << threads);
          const TopKResult actual =
              w.sharded[si]->Query(q, 10, measure, qopts, threads);
          ExpectIdentical(expected, actual, "shared paged source");
          EXPECT_GT(actual.stats.io.entities_fetched, 0u);
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, InsertBatchRoutesThroughShardMap) {
  // Build over the first 400 entities, then batch-insert the remaining 100
  // everywhere; results must stay aligned with the oracle.
  World w(500, /*data_seed=*/97, Range(0, 400));
  w.oracle->InsertEntities(Range(400, 500));
  for (auto& sharded : w.sharded) {
    sharded->InsertEntities(Range(400, 500));
    EXPECT_EQ(sharded->num_entities(), 500u);
  }
  CheckAgainstOracle(w, MakePlans(w, 6, /*seed=*/303));
}

TEST(ShardedDifferentialTest, UpdatesRemovalsAndRefreshStayAligned) {
  World w(400, /*data_seed=*/89, Range(0, 400));
  Rng rng(777);
  // Replace a few random traces with fresh random ones, re-index on both
  // sides, remove a couple of entities, then Refresh to restore tightness.
  const uint32_t base_units = w.dataset.hierarchy->num_base_units();
  for (int round = 0; round < 5; ++round) {
    const EntityId e = static_cast<EntityId>(rng.NextBelow(400));
    std::vector<PresenceRecord> records;
    const int n = 3 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      const auto t =
          static_cast<TimeStep>(rng.NextBelow(w.dataset.horizon - 1));
      records.push_back({e, static_cast<UnitId>(rng.NextBelow(base_units)), t,
                         t + 1});
    }
    w.dataset.store->ReplaceEntity(e, records);
    w.oracle->UpdateEntity(e);
    for (auto& sharded : w.sharded) sharded->UpdateEntity(e);
  }
  const EntityId gone1 = 42, gone2 = 137;
  w.oracle->RemoveEntity(gone1);
  w.oracle->RemoveEntity(gone2);
  for (auto& sharded : w.sharded) {
    sharded->RemoveEntity(gone1);
    sharded->RemoveEntity(gone2);
    EXPECT_EQ(sharded->num_entities(), 398u);
  }
  w.oracle->Refresh();
  for (auto& sharded : w.sharded) sharded->Refresh();

  const auto plans = MakePlans(w, 6, /*seed=*/304);
  CheckAgainstOracle(w, plans);

  // The paged backend snapshots at construction, so a fresh source over the
  // mutated store must agree too.
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  PagedTraceSource::Options popts;
  popts.pool_fraction = 0.5;
  const PagedTraceSource src(*w.dataset.store, popts);
  for (const auto& plan : plans) {
    QueryOptions paged = plan.options;
    paged.trace_source = &src;
    const TopKResult expected =
        w.oracle->Query(plan.q, plan.k, measure, paged);
    for (auto& sharded : w.sharded) {
      ExpectIdentical(expected,
                      sharded->Query(plan.q, plan.k, measure, paged),
                      "paged after updates");
    }
  }
}

TEST(ShardedDifferentialTest, ApproximateQueriesKeepTheEpsilonGuarantee) {
  // With approximation slack the answer is no longer canonical, but the
  // guarantee is, under both lane schedules: every returned score is the
  // entity's exact degree, and every entity left out scores below
  // (1 + epsilon) x the returned k-th score (or ties it — an evaluated
  // entity can lose on id). The serial schedule is also run-deterministic.
  constexpr double kEpsilon = 0.25;
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 8, /*seed=*/307);
  for (const QueryPlan& plan : plans) {
    const TopKResult scan = w.oracle->BruteForce(plan.q, 500, measure,
                                                 plan.options);
    std::vector<double> exact(500, -1.0);
    for (const ScoredEntity& item : scan.items) exact[item.entity] = item.score;
    QueryOptions approx = plan.options;
    approx.approximation_epsilon = kEpsilon;
    for (size_t si = 0; si < w.sharded.size(); ++si) {
      for (int shard_threads : {1, 4}) {
        const TopKResult r = w.sharded[si]->Query(plan.q, plan.k, measure,
                                                  approx, shard_threads);
        ASSERT_TRUE(r.status.ok());
        ASSERT_EQ(r.items.size(), static_cast<size_t>(plan.k));
        std::vector<char> returned(500, 0);
        for (const ScoredEntity& item : r.items) {
          EXPECT_EQ(item.score, exact[item.entity]) << "inexact score";
          returned[item.entity] = 1;
        }
        const double kth = r.items.back().score;
        for (const ScoredEntity& item : scan.items) {
          if (returned[item.entity]) continue;
          EXPECT_TRUE(item.score <= kth ||
                      item.score < (1.0 + kEpsilon) * kth)
              << "missed entity " << item.entity << " scores " << item.score
              << " vs k-th " << kth << " (shards " << kShardCounts[si]
              << " threads " << shard_threads << ")";
        }
        if (shard_threads == 1) {
          const TopKResult again =
              w.sharded[si]->Query(plan.q, plan.k, measure, approx, 1);
          ExpectIdentical(r, again, "approximate repeat");
          EXPECT_EQ(r.stats.entities_checked, again.stats.entities_checked);
          EXPECT_EQ(r.stats.nodes_visited, again.stats.nodes_visited);
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, PagedTreesMatchOracleAcrossConfigurations) {
  // The paged MinSigTree snapshot (SoA node pages + resident zone maps,
  // core/paged_min_sig_tree.h) slots in underneath every sharded
  // configuration: with each shard's tree served from pages, the whole
  // CheckAgainstOracle grid — shard counts and both lane schedules — must
  // still reproduce the in-memory-tree oracle bit for bit.
  World w(500, /*data_seed=*/97, Range(0, 500));
  for (auto& sharded : w.sharded) sharded->EnablePagedTrees();
  CheckAgainstOracle(w, MakePlans(w, 8, /*seed=*/301));
}

TEST(ShardedDifferentialTest, PagedOracleKeepsSearchCountersExact) {
  // Paging the single-tree oracle itself must be invisible to the search
  // proper: answers, entities_checked, nodes_visited and heap_pushes all
  // match the in-memory tree exactly, for both page-store backings. (The
  // zone-map gate only ever rejects children the in-memory walk would drop
  // from their true bound at the same expansion — the admissibility
  // argument in DESIGN-paged-index.md — so the visit sequence and the
  // pushed set are unchanged.)
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 8, /*seed=*/305);
  std::vector<TopKResult> expected;
  for (const auto& plan : plans) {
    expected.push_back(w.oracle->Query(plan.q, plan.k, measure, plan.options));
  }

  PagedTreeOptions sim;
  sim.backing = PagedTreeOptions::Backing::kSimDisk;
  sim.disk.pool_fraction = 0.25;
  for (const PagedTreeOptions& popts : {PagedTreeOptions{}, sim}) {
    w.oracle->EnablePagedTree(popts);
    for (size_t i = 0; i < plans.size(); ++i) {
      const TopKResult actual =
          w.oracle->Query(plans[i].q, plans[i].k, measure, plans[i].options);
      ExpectIdentical(expected[i], actual, "paged oracle");
      EXPECT_EQ(expected[i].stats.entities_checked,
                actual.stats.entities_checked);
      EXPECT_EQ(expected[i].stats.nodes_visited, actual.stats.nodes_visited);
      EXPECT_EQ(expected[i].stats.heap_pushes, actual.stats.heap_pushes);
      EXPECT_GT(actual.stats.io.tree_pages_read + actual.stats.io.tree_page_hits,
                0u)
          << "paged tree charged no pins?";
    }
  }
}

TEST(ShardedDifferentialTest, PagedTreeSimDiskIoDeterministicAcrossThreads) {
  // SimDisk backing with a partial pool: tree pages genuinely fault in and
  // out during the batch. The read/hit split may shift with pool state,
  // but per-query *pin totals* are fixed by the (deterministic) visit
  // sequence, so they must not depend on the QueryMany thread count —
  // the same guarantee the trace-side paged backend already gives.
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 6, /*seed=*/308);
  std::vector<EntityId> queries;
  for (const auto& p : plans) queries.push_back(p.q);
  const int k = 10;
  std::vector<TopKResult> expected;
  for (EntityId q : queries) {
    expected.push_back(w.oracle->Query(q, k, measure));
  }

  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = 0.25;
  for (size_t si = 0; si < w.sharded.size(); ++si) {
    w.sharded[si]->EnablePagedTrees(popts);
    std::vector<uint64_t> ref_pins;
    for (int num_threads : {1, 4}) {
      const auto results =
          w.sharded[si]->QueryMany(queries, k, measure, {}, num_threads);
      ASSERT_EQ(results.size(), queries.size());
      std::vector<uint64_t> pins;
      for (size_t i = 0; i < results.size(); ++i) {
        ExpectIdentical(expected[i], results[i], "paged-tree sim-disk");
        pins.push_back(results[i].stats.io.tree_pages_read +
                       results[i].stats.io.tree_page_hits);
        EXPECT_GT(pins.back(), 0u);
      }
      if (ref_pins.empty()) {
        ref_pins = pins;
        continue;
      }
      EXPECT_EQ(ref_pins, pins)
          << "shards " << kShardCounts[si] << " threads " << num_threads;
    }
  }
}

TEST(ShardedDifferentialTest, MaintenanceRepacksPagedTreesAndStaysAligned) {
  // The whole maintenance surface with paged trees enabled on BOTH sides:
  // replacements, removals and Refresh dirty the snapshots, the next query
  // (or the pre-fan-out settle) repacks them, and every configuration must
  // still agree with the (equally paged) oracle across the full grid.
  World w(400, /*data_seed=*/89, Range(0, 400));
  w.oracle->EnablePagedTree();
  for (auto& sharded : w.sharded) sharded->EnablePagedTrees();

  Rng rng(778);
  const uint32_t base_units = w.dataset.hierarchy->num_base_units();
  for (int round = 0; round < 5; ++round) {
    const EntityId e = static_cast<EntityId>(rng.NextBelow(400));
    std::vector<PresenceRecord> records;
    const int n = 3 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      const auto t =
          static_cast<TimeStep>(rng.NextBelow(w.dataset.horizon - 1));
      records.push_back({e, static_cast<UnitId>(rng.NextBelow(base_units)), t,
                         t + 1});
    }
    w.dataset.store->ReplaceEntity(e, records);
    w.oracle->UpdateEntity(e);
    for (auto& sharded : w.sharded) sharded->UpdateEntity(e);
  }
  const EntityId gone = 99;
  w.oracle->RemoveEntity(gone);
  for (auto& sharded : w.sharded) sharded->RemoveEntity(gone);
  w.oracle->Refresh();
  for (auto& sharded : w.sharded) sharded->Refresh();

  CheckAgainstOracle(w, MakePlans(w, 6, /*seed=*/309));
}

TEST(ShardedDifferentialTest, CompressedTracePagesMatchOracleAcrossThreadCounts) {
  // Options::compress on the paged trace source: delta-packed per-level
  // blobs, lazy cursor-side decode, and the packed-direct intersection path
  // in EvalCandidates. Everything the uncompressed grid guarantees must
  // hold unchanged — oracle bit-identity, exact entities_checked /
  // nodes_visited, per-query I/O totals deterministic across thread counts
  // — while the compressed source serves the same records from fewer pages.
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 6, /*seed=*/311);
  std::vector<EntityId> queries;
  for (const auto& p : plans) queries.push_back(p.q);
  const int k = 10;
  std::vector<TopKResult> expected;
  for (EntityId q : queries) {
    expected.push_back(w.oracle->Query(q, k, measure));
  }

  PagedTraceSource::Options uopts;
  uopts.pool_fraction = 0.4;
  PagedTraceSource::Options copts = uopts;
  copts.compress = true;
  const PagedTraceSource uncompressed(*w.dataset.store, uopts);
  const PagedTraceSource compressed(*w.dataset.store, copts);
  ASSERT_TRUE(compressed.compressed());
  EXPECT_LT(compressed.num_pages(), uncompressed.num_pages());
  EXPECT_EQ(compressed.raw_bytes(), uncompressed.data_bytes());

  QueryOptions uncompressed_opts;
  uncompressed_opts.trace_source = &uncompressed;
  QueryOptions compressed_opts;
  compressed_opts.trace_source = &compressed;

  for (size_t si = 0; si < w.sharded.size(); ++si) {
    // Uncompressed reference for the page-traffic comparison (thread count
    // 1; its own grid already proved thread-count determinism).
    const auto ref =
        w.sharded[si]->QueryMany(queries, k, measure, uncompressed_opts, 1);
    std::vector<uint64_t> ref_touched, ref_fetched;
    for (int num_threads : {1, 4}) {
      const auto results = w.sharded[si]->QueryMany(queries, k, measure,
                                                    compressed_opts,
                                                    num_threads);
      ASSERT_EQ(results.size(), queries.size());
      std::vector<uint64_t> touched, fetched;
      uint64_t total = 0, ref_total = 0;
      for (size_t i = 0; i < results.size(); ++i) {
        ExpectIdentical(expected[i], results[i], "compressed paged");
        // The search proper must not notice the storage format.
        EXPECT_EQ(results[i].stats.entities_checked,
                  ref[i].stats.entities_checked);
        EXPECT_EQ(results[i].stats.nodes_visited, ref[i].stats.nodes_visited);
        touched.push_back(results[i].stats.io.pages_read +
                          results[i].stats.io.pages_hit);
        fetched.push_back(results[i].stats.io.entities_fetched);
        EXPECT_EQ(fetched.back(), ref[i].stats.io.entities_fetched);
        // Per query, a compressed record never spans more pages than its
        // uncompressed serialization.
        const uint64_t ref_pages =
            ref[i].stats.io.pages_read + ref[i].stats.io.pages_hit;
        EXPECT_LE(touched.back(), ref_pages) << "query " << i;
        total += touched.back();
        ref_total += ref_pages;
      }
      EXPECT_LT(total, ref_total)
          << "compression must reduce total page traffic";
      if (ref_touched.empty()) {
        ref_touched = touched;
        ref_fetched = fetched;
        continue;
      }
      EXPECT_EQ(ref_touched, touched) << "shards " << kShardCounts[si]
                                      << " threads " << num_threads;
      EXPECT_EQ(ref_fetched, fetched);
    }
  }
}

TEST(ShardedDifferentialTest, CompressedPagedTreesKeepSearchCountersExact) {
  // PagedTreeOptions::compress: FoR node pages + delta-packed blobs under
  // the identical search. Results, entities_checked and nodes_visited must
  // match the in-memory tree exactly for both page-store backings — the
  // same contract the uncompressed snapshot holds — and the whole sharded
  // grid must stay aligned with compressed trees under every shard.
  World w(500, /*data_seed=*/97, Range(0, 500));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto plans = MakePlans(w, 8, /*seed=*/312);
  std::vector<TopKResult> expected;
  for (const auto& plan : plans) {
    expected.push_back(w.oracle->Query(plan.q, plan.k, measure, plan.options));
  }

  PagedTreeOptions mem;
  mem.compress = true;
  PagedTreeOptions sim = mem;
  sim.backing = PagedTreeOptions::Backing::kSimDisk;
  sim.disk.pool_fraction = 0.25;
  // Page a separate, identically built index: w.oracle stays in memory as
  // the reference for the sharded grid below.
  const auto paged = w.FreshOracle();
  for (const PagedTreeOptions& popts : {mem, sim}) {
    paged->EnablePagedTree(popts);
    for (size_t i = 0; i < plans.size(); ++i) {
      const TopKResult actual =
          paged->Query(plans[i].q, plans[i].k, measure, plans[i].options);
      ExpectIdentical(expected[i], actual, "compressed paged tree");
      EXPECT_EQ(expected[i].stats.entities_checked,
                actual.stats.entities_checked);
      EXPECT_EQ(expected[i].stats.nodes_visited, actual.stats.nodes_visited);
      EXPECT_EQ(expected[i].stats.heap_pushes, actual.stats.heap_pushes);
      EXPECT_GT(actual.stats.io.tree_pages_read + actual.stats.io.tree_page_hits,
                0u);
    }
  }

  ASSERT_FALSE(w.oracle->paged_tree_enabled());
  for (auto& sharded : w.sharded) sharded->EnablePagedTrees(mem);
  CheckAgainstOracle(w, MakePlans(w, 6, /*seed=*/313));
}

TEST(ShardedDifferentialTest, ManyShardsOnTinyPopulations) {
  // More shards than "natural" group sizes: some shards end up tiny or
  // empty, k routinely exceeds per-shard candidate counts, and the merge
  // must still reproduce the oracle (including k near |E|).
  World w(500, /*data_seed=*/97, Range(0, 30));
  PolynomialLevelMeasure measure(w.dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*w.dataset.store, 4, 54);
  for (EntityId q : queries) {
    for (int k : {1, 5, 29, 30, 100}) {
      const TopKResult expected = w.oracle->Query(q, k, measure);
      for (auto& sharded : w.sharded) {
        ExpectIdentical(expected, sharded->Query(q, k, measure),
                        "tiny population");
      }
    }
  }
}

}  // namespace
}  // namespace dtrace
