// Storage-backed queries stay deterministic across QueryMany worker
// counts: a paged source returns results bit-identical to the in-memory
// path at 1, 4 and auto workers, and on a full-capacity pool the per-query
// page accounting totals do not depend on the worker count (first-touch
// misses race only in *attribution*). Query and BruteForce through a paged
// source also match the in-memory answer. (The file name is historical; it
// is also the ctest entry name.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"

namespace dtrace {
namespace {

class PagedDeterminismTest : public ::testing::Test {
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

Dataset* PagedDeterminismTest::dataset_ = nullptr;
DigitalTraceIndex* PagedDeterminismTest::index_ = nullptr;
std::vector<EntityId>* PagedDeterminismTest::queries_ = nullptr;

TEST_F(PagedDeterminismTest, QueryManyBitIdenticalAcrossThreads) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  // In-memory reference (the storage path must never change answers).
  std::vector<TopKResult> reference;
  for (EntityId q : *queries_) {
    reference.push_back(index_->Query(q, 10, measure));
  }
  for (int num_threads : {1, 4, 0}) {
    PagedTraceSource::Options opts;
    opts.pool_fraction = 0.3;  // real eviction traffic
    PagedTraceSource src(*dataset_->store, opts);
    QueryOptions qopts;
    qopts.trace_source = &src;
    const auto results =
        index_->QueryMany(*queries_, 10, measure, qopts, num_threads);
    ASSERT_EQ(results.size(), queries_->size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectIdentical(reference[i], results[i]);
    }
  }
}

TEST_F(PagedDeterminismTest,
       QueryManyAggregateIoDeterministicOnFullPool) {
  // With every page resident (pool_pages = all), total accesses per query
  // and total misses across the batch are access-pattern properties, so the
  // aggregates must match across worker counts even though miss
  // *attribution* races between workers.
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  std::vector<uint64_t> ref_touched;  // per query: pages_read + pages_hit
  uint64_t ref_total_read = 0;
  bool have_ref = false;
  for (int num_threads : {1, 4, 0}) {
    PagedTraceSource src(*dataset_->store, {});  // full-capacity pool
    QueryOptions qopts;
    qopts.trace_source = &src;
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
    EXPECT_EQ(ref_total_read, total_read) << "threads " << num_threads;
    EXPECT_EQ(ref_touched, touched) << "threads " << num_threads;
  }
}

TEST_F(PagedDeterminismTest, PagedQueryAndBruteForceMatchInMemory) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  const EntityId q = (*queries_)[2];
  const TopKResult reference = index_->Query(q, 10, measure);
  PagedTraceSource::Options opts;
  opts.pool_fraction = 0.3;
  PagedTraceSource src(*dataset_->store, opts);
  QueryOptions qopts;
  qopts.trace_source = &src;
  ExpectIdentical(reference, index_->Query(q, 10, measure, qopts));
  ExpectIdentical(reference, index_->BruteForce(q, 10, measure, qopts));
}

}  // namespace
}  // namespace dtrace
