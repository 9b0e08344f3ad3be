// Parallel batch queries (QueryMany): results must be bit-identical to the
// serial path for every thread count, in-memory and storage-backed — the
// paged leg runs concurrent cursors over one shared buffer pool (a TSan
// target, labeled "concurrency" in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <memory>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"

namespace dtrace {
namespace {

class QueryManyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(MakeSynDataset(500, /*seed=*/61));
    index_ = new DigitalTraceIndex(
        DigitalTraceIndex::Build(dataset_->store, {.num_functions = 128}));
    queries_ = new std::vector<EntityId>(
        SampleQueries(*dataset_->store, 10, 41));
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

Dataset* QueryManyTest::dataset_ = nullptr;
DigitalTraceIndex* QueryManyTest::index_ = nullptr;
std::vector<EntityId>* QueryManyTest::queries_ = nullptr;

TEST_F(QueryManyTest, DeterministicAcrossThreadCounts) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  // Per-query serial reference.
  std::vector<TopKResult> reference;
  for (EntityId q : *queries_) {
    reference.push_back(index_->Query(q, 10, measure));
  }
  for (int num_threads : {1, 4, 0}) {
    const auto results =
        index_->QueryMany(*queries_, 10, measure, {}, num_threads);
    ASSERT_EQ(results.size(), reference.size()) << "threads " << num_threads;
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectIdentical(results[i], reference[i]);
      EXPECT_EQ(results[i].stats.entities_checked,
                reference[i].stats.entities_checked);
    }
  }
}

TEST_F(QueryManyTest, DeterministicThroughPagedSourceAcrossThreadCounts) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  PagedTraceSource::Options options;
  options.pool_fraction = 0.3;
  const PagedTraceSource paged(*dataset_->store, options);
  QueryOptions qopts;
  qopts.trace_source = &paged;
  std::vector<TopKResult> reference;
  for (EntityId q : *queries_) {
    reference.push_back(index_->Query(q, 10, measure));
  }
  for (int num_threads : {1, 4, 0}) {
    const auto results =
        index_->QueryMany(*queries_, 10, measure, qopts, num_threads);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectIdentical(results[i], reference[i]);
    }
  }
}

TEST_F(QueryManyTest, WindowedEpsilonBatchesStayDeterministic) {
  // The satellite combination: time_window + approximation_epsilon, batched
  // on every thread count.
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  QueryOptions qopts;
  qopts.time_window = TimeWindow{120, 480};
  qopts.approximation_epsilon = 0.3;
  const auto reference = index_->QueryMany(*queries_, 5, measure, qopts, 1);
  for (int num_threads : {4, 0}) {
    const auto results =
        index_->QueryMany(*queries_, 5, measure, qopts, num_threads);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectIdentical(results[i], reference[i]);
    }
  }
}

TEST_F(QueryManyTest, EmptyBatchReturnsEmpty) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  const auto results =
      index_->QueryMany(std::vector<EntityId>{}, 10, measure, {}, 4);
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace dtrace
