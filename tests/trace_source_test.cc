// The storage-backed query path: a top-k query evaluated against a
// PagedTraceSource must return bit-identical results to the in-memory
// TraceStore path on the same dataset, while actually reading pages.
#include "trace/trace_source.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"

namespace dtrace {
namespace {

class TraceSourceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(MakeSynDataset(400, /*seed=*/51));
    index_ = new DigitalTraceIndex(
        DigitalTraceIndex::Build(dataset_->store, {.num_functions = 128}));
    PagedTraceSource::Options options;
    options.pool_fraction = 0.2;  // most reads miss: real page traffic
    paged_ = new PagedTraceSource(*dataset_->store, options);
  }
  static void TearDownTestSuite() {
    delete paged_;
    delete index_;
    delete dataset_;
    paged_ = nullptr;
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
  static PagedTraceSource* paged_;
};

Dataset* TraceSourceTest::dataset_ = nullptr;
DigitalTraceIndex* TraceSourceTest::index_ = nullptr;
PagedTraceSource* TraceSourceTest::paged_ = nullptr;

TEST_F(TraceSourceTest, PagedQueryBitIdenticalToInMemoryWithRealIo) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  uint64_t total_pages_read = 0;
  for (EntityId q : SampleQueries(*dataset_->store, 6, 31)) {
    const TopKResult mem = index_->Query(q, 10, measure);
    const TopKResult disk = index_->Query(q, 10, measure, via_disk);
    ExpectIdentical(mem, disk);
    // Pruning decisions are source-independent, so the instrumentation
    // other than I/O matches too.
    EXPECT_EQ(mem.stats.entities_checked, disk.stats.entities_checked);
    EXPECT_EQ(mem.stats.nodes_visited, disk.stats.nodes_visited);
    EXPECT_EQ(mem.stats.io.pages_read, 0u);
    EXPECT_GT(disk.stats.io.entities_fetched, 0u);
    EXPECT_GT(disk.stats.io.bytes_read, 0u);
    EXPECT_GT(disk.stats.io.modeled_io_seconds, 0.0);
    total_pages_read += disk.stats.io.pages_read;
  }
  EXPECT_GT(total_pages_read, 0u);
}

TEST_F(TraceSourceTest, PagedBruteForceMatchesInMemory) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  for (EntityId q : SampleQueries(*dataset_->store, 3, 32)) {
    ExpectIdentical(index_->BruteForce(q, 10, measure),
                    index_->BruteForce(q, 10, measure, via_disk));
  }
}

TEST_F(TraceSourceTest, WindowedAndApproximateQueriesMatchThroughStorage) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  for (double eps : {0.0, 0.5}) {
    QueryOptions mem_opts;
    mem_opts.time_window = TimeWindow{100, 400};
    mem_opts.approximation_epsilon = eps;
    QueryOptions disk_opts = mem_opts;
    disk_opts.trace_source = paged_;
    for (EntityId q : SampleQueries(*dataset_->store, 4, 33)) {
      ExpectIdentical(index_->Query(q, 5, measure, mem_opts),
                      index_->Query(q, 5, measure, disk_opts));
    }
  }
}

TEST_F(TraceSourceTest, CursorPrimitivesMatchStore) {
  const TraceStore& store = *dataset_->store;
  const auto cursor = paged_->OpenCursor();
  const int m = store.hierarchy().num_levels();
  for (EntityId e = 0; e < 40; e += 7) {
    for (Level l = 1; l <= m; ++l) {
      const auto expected = store.cells(e, l);
      const auto got = cursor->Cells(e, l);
      ASSERT_EQ(got.size(), expected.size()) << "e=" << e << " l=" << l;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]);
      }
      const auto win = cursor->CellsInWindow(e, l, 50, 300);
      const auto win_expected = store.CellsInWindow(e, l, 50, 300);
      EXPECT_EQ(win.size(), win_expected.size());
      EXPECT_EQ(cursor->IntersectionSize(e, (e + 1) % 40, l),
                store.IntersectionSize(e, (e + 1) % 40, l));
      EXPECT_EQ(cursor->WindowedIntersectionSize(e, (e + 1) % 40, l, 50, 300),
                store.WindowedIntersectionSize(e, (e + 1) % 40, l, 50, 300));
    }
  }
}

TEST_F(TraceSourceTest, CursorCacheAbsorbsRepeatedReads) {
  const auto cursor = paged_->OpenCursor();
  cursor->Cells(3, 1);
  const TraceIoStats after_first = cursor->io();
  EXPECT_EQ(after_first.entities_fetched, 1u);
  for (Level l = 1; l <= dataset_->hierarchy->num_levels(); ++l) {
    cursor->Cells(3, l);
  }
  const TraceIoStats after = cursor->io();
  EXPECT_EQ(after.entities_fetched, 1u);  // all further reads were cached
  EXPECT_EQ(after.pages_read + after.pages_hit, after_first.pages_read +
                                                    after_first.pages_hit);
  EXPECT_GT(after.cache_hits, 0u);
}

TEST_F(TraceSourceTest, ComputeDegreeAgreesAcrossSources) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  for (EntityId a = 0; a < 20; a += 3) {
    EXPECT_DOUBLE_EQ(ComputeDegree(measure, *dataset_->store, a, a + 1),
                     ComputeDegree(measure, *paged_, a, a + 1));
  }
}

TEST_F(TraceSourceTest, InMemoryCursorChargesNoIo) {
  const auto cursor = dataset_->store->OpenCursor();
  cursor->Cells(0, 1);
  cursor->IntersectionSize(0, 1, 1);
  EXPECT_EQ(cursor->io().entities_fetched, 0u);
  EXPECT_EQ(cursor->io().pages_read, 0u);
  EXPECT_EQ(cursor->io().bytes_read, 0u);
}

TEST_F(TraceSourceTest, HarnessMeasuresStoragePath) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset_->store, 4, 34);
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  const PeMeasurement pe =
      MeasurePe(*index_, measure, queries, 5, via_disk, /*num_threads=*/1);
  EXPECT_EQ(pe.num_queries, queries.size());
  EXPECT_GT(pe.total.io.pages_read, 0u);
  EXPECT_GT(pe.total.io.modeled_io_seconds, 0.0);
  EXPECT_TRUE(VerifyExactness(*index_, measure, queries, 5, via_disk));
}

}  // namespace
}  // namespace dtrace
