// The leaf-prefetch pipeline must be outcome-neutral: storage-backed Query /
// BruteForce / QueryMany return bit-identical results AND identical
// QueryStats::io page accounting for every prefetch_depth, because the
// pipeline worker performs exactly the pool accesses the synchronous path
// would have performed, in the same order (DESIGN-storage.md). Across
// QueryMany worker counts, per-query accounting totals stay deterministic on
// a full-capacity pool (first-touch misses race only in *attribution*).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"

namespace dtrace {
namespace {

class PrefetchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(MakeSynDataset(400, /*seed=*/73));
    index_ = new DigitalTraceIndex(
        DigitalTraceIndex::Build(dataset_->store, {.num_functions = 128}));
    queries_ = new std::vector<EntityId>(
        SampleQueries(*dataset_->store, 6, 71));
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete index_;
    delete dataset_;
    queries_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static void ExpectIdentical(const TopKResult& a, const TopKResult& b) {
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].entity, b.items[i].entity) << "rank " << i;
      EXPECT_EQ(a.items[i].score, b.items[i].score) << "rank " << i;
    }
  }

  static Dataset* dataset_;
  static DigitalTraceIndex* index_;
  static std::vector<EntityId>* queries_;
};

Dataset* PrefetchDeterminismTest::dataset_ = nullptr;
DigitalTraceIndex* PrefetchDeterminismTest::index_ = nullptr;
std::vector<EntityId>* PrefetchDeterminismTest::queries_ = nullptr;

TEST_F(PrefetchDeterminismTest, QueryIoPageCountsIdenticalAcrossDepths) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  // Reference: the synchronous path on a fresh cold source.
  std::vector<TopKResult> reference;
  {
    PagedTraceSource::Options opts;
    opts.pool_fraction = 0.3;  // real eviction traffic
    PagedTraceSource src(*dataset_->store, opts);
    QueryOptions qopts;
    qopts.trace_source = &src;
    for (EntityId q : *queries_) {
      reference.push_back(index_->Query(q, 10, measure, qopts));
    }
  }
  for (int depth : {1, 4}) {
    PagedTraceSource::Options opts;
    opts.pool_fraction = 0.3;
    PagedTraceSource src(*dataset_->store, opts);
    QueryOptions qopts;
    qopts.trace_source = &src;
    qopts.prefetch_depth = depth;
    for (size_t i = 0; i < queries_->size(); ++i) {
      const TopKResult r = index_->Query((*queries_)[i], 10, measure, qopts);
      ExpectIdentical(reference[i], r);
      // Identical page accounting, not just identical answers: the pipeline
      // replays the synchronous pool access sequence exactly.
      EXPECT_EQ(reference[i].stats.io.pages_read, r.stats.io.pages_read)
          << "depth " << depth << " query " << i;
      EXPECT_EQ(reference[i].stats.io.pages_hit, r.stats.io.pages_hit)
          << "depth " << depth << " query " << i;
      EXPECT_EQ(reference[i].stats.io.entities_fetched,
                r.stats.io.entities_fetched);
      EXPECT_EQ(reference[i].stats.io.bytes_read, r.stats.io.bytes_read);
      EXPECT_DOUBLE_EQ(reference[i].stats.io.modeled_io_seconds,
                       r.stats.io.modeled_io_seconds);
    }
  }
}

TEST_F(PrefetchDeterminismTest, BruteForcePipelinesAndStaysIdentical) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  PagedTraceSource::Options opts;
  opts.pool_fraction = 0.3;
  PagedTraceSource sync_src(*dataset_->store, opts);
  PagedTraceSource pre_src(*dataset_->store, opts);
  QueryOptions sync_opts;
  sync_opts.trace_source = &sync_src;
  QueryOptions pre_opts;
  pre_opts.trace_source = &pre_src;
  pre_opts.prefetch_depth = 4;
  for (EntityId q : {(*queries_)[0], (*queries_)[1]}) {
    const TopKResult a = index_->BruteForce(q, 10, measure, sync_opts);
    const TopKResult b = index_->BruteForce(q, 10, measure, pre_opts);
    ExpectIdentical(a, b);
    EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read);
    EXPECT_EQ(a.stats.io.pages_hit, b.stats.io.pages_hit);
    // The brute-force scan is one big batch, so the pipeline actually runs.
    EXPECT_GT(b.stats.io.prefetch_hits, 0u);
    EXPECT_EQ(a.stats.io.prefetch_hits, 0u);
  }
}

TEST_F(PrefetchDeterminismTest,
       QueryManyBitIdenticalAcrossThreadsAndDepths) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  // In-memory reference (the storage path must never change answers).
  std::vector<TopKResult> reference;
  for (EntityId q : *queries_) {
    reference.push_back(index_->Query(q, 10, measure));
  }
  for (int num_threads : {1, 4, 0}) {
    for (int depth : {0, 1, 4}) {
      PagedTraceSource::Options opts;
      opts.pool_fraction = 0.3;
      PagedTraceSource src(*dataset_->store, opts);
      QueryOptions qopts;
      qopts.trace_source = &src;
      qopts.prefetch_depth = depth;
      const auto results =
          index_->QueryMany(*queries_, 10, measure, qopts, num_threads);
      ASSERT_EQ(results.size(), queries_->size());
      for (size_t i = 0; i < results.size(); ++i) {
        ExpectIdentical(reference[i], results[i]);
      }
    }
  }
}

TEST_F(PrefetchDeterminismTest,
       QueryManyAggregateIoDeterministicOnFullPool) {
  // With every page resident (pool_pages = all), total accesses per query
  // and total misses across the batch are access-pattern properties, so the
  // aggregates must match across worker counts and prefetch depths even
  // though miss *attribution* races between workers.
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  std::vector<uint64_t> ref_touched;  // per query: pages_read + pages_hit
  uint64_t ref_total_read = 0;
  bool have_ref = false;
  for (int num_threads : {1, 4, 0}) {
    for (int depth : {0, 4}) {
      PagedTraceSource src(*dataset_->store, {});  // full-capacity pool
      QueryOptions qopts;
      qopts.trace_source = &src;
      qopts.prefetch_depth = depth;
      const auto results =
          index_->QueryMany(*queries_, 10, measure, qopts, num_threads);
      uint64_t total_read = 0;
      std::vector<uint64_t> touched;
      for (const auto& r : results) {
        total_read += r.stats.io.pages_read;
        touched.push_back(r.stats.io.pages_read + r.stats.io.pages_hit);
      }
      if (!have_ref) {
        ref_touched = touched;
        ref_total_read = total_read;
        have_ref = true;
        continue;
      }
      EXPECT_EQ(ref_total_read, total_read)
          << "threads " << num_threads << " depth " << depth;
      EXPECT_EQ(ref_touched, touched)
          << "threads " << num_threads << " depth " << depth;
    }
  }
}

TEST_F(PrefetchDeterminismTest, PrefetchKeepsQueryAndBruteForceIdentical) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  const EntityId q = (*queries_)[2];
  const TopKResult reference = index_->Query(q, 10, measure);
  for (int depth : {0, 2}) {
    PagedTraceSource::Options opts;
    opts.pool_fraction = 0.3;
    PagedTraceSource src(*dataset_->store, opts);
    QueryOptions qopts;
    qopts.trace_source = &src;
    qopts.prefetch_depth = depth;
    ExpectIdentical(reference, index_->Query(q, 10, measure, qopts));
    ExpectIdentical(reference, index_->BruteForce(q, 10, measure, qopts));
  }
}

TEST_F(PrefetchDeterminismTest, HarnessReportsPrefetchHits) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  PagedTraceSource src(*dataset_->store, {});
  QueryOptions qopts;
  qopts.trace_source = &src;
  qopts.prefetch_depth = 4;
  // BruteForce batches are big enough to engage the pipeline.
  const TopKResult r = index_->BruteForce((*queries_)[0], 5, measure, qopts);
  EXPECT_GT(r.stats.io.prefetch_hits, 0u);
  // Prefetch-served records are a subset of all materializations.
  EXPECT_LE(r.stats.io.prefetch_hits, r.stats.io.entities_fetched);
}

}  // namespace
}  // namespace dtrace
