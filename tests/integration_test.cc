// End-to-end integration: generate the paper's two (scaled) datasets, build
// every index, run queries, cross-check exactness and PE plumbing.
#include <gtest/gtest.h>

#include "analytics/pe_model.h"
#include "baseline/cluster_index.h"
#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"

namespace dtrace {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    syn_ = new Dataset(MakeSynDataset(/*num_entities=*/400, /*seed=*/31));
    real_ = new Dataset(MakeRealDataset(/*num_entities=*/400, /*seed=*/32));
  }
  static void TearDownTestSuite() {
    delete syn_;
    delete real_;
    syn_ = nullptr;
    real_ = nullptr;
  }

  static Dataset* syn_;
  static Dataset* real_;
};

Dataset* IntegrationTest::syn_ = nullptr;
Dataset* IntegrationTest::real_ = nullptr;

TEST_F(IntegrationTest, SynEndToEndExactness) {
  const auto index =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 64});
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  const auto queries = SampleQueries(*syn_->store, 6, 7);
  EXPECT_TRUE(VerifyExactness(index, measure, queries, 10));
}

TEST_F(IntegrationTest, RealEndToEndExactness) {
  const auto index =
      DigitalTraceIndex::Build(real_->store, {.num_functions = 64});
  PolynomialLevelMeasure measure(real_->hierarchy->num_levels());
  const auto queries = SampleQueries(*real_->store, 6, 8);
  EXPECT_TRUE(VerifyExactness(index, measure, queries, 10));
}

TEST_F(IntegrationTest, BaselineAgreesWithMinSigTree) {
  const auto tree_index =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 64});
  const auto baseline = ClusterBitmapIndex::Build(*syn_->store, {});
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  for (EntityId q : SampleQueries(*syn_->store, 4, 11)) {
    const auto a = tree_index.Query(q, 5, measure);
    const auto b = baseline.Query(q, 5, measure);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_NEAR(a.items[i].score, b.items[i].score, 1e-12);
    }
  }
}

TEST_F(IntegrationTest, MorehashFunctionsNeverWorsenMeanPe) {
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  const auto queries = SampleQueries(*syn_->store, 10, 13);
  const auto few =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 8, .seed = 5});
  const auto many =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 256, .seed = 5});
  const auto pe_few = MeasurePe(few, measure, queries, 10);
  const auto pe_many = MeasurePe(many, measure, queries, 10);
  // Not guaranteed pointwise, but with 32x the functions the mean PE should
  // improve on any realistic dataset.
  EXPECT_LT(pe_many.mean_pe, pe_few.mean_pe + 0.05);
}

TEST_F(IntegrationTest, MeasurePeReportsSaneNumbers) {
  const auto index =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 64});
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  const auto queries = SampleQueries(*syn_->store, 8, 17);
  const auto pe = MeasurePe(index, measure, queries, 10);
  EXPECT_EQ(pe.num_queries, 8u);
  EXPECT_GE(pe.mean_pe, 0.0);
  EXPECT_LE(pe.mean_pe, 1.0);
  EXPECT_GT(pe.mean_entities_checked, 0.0);
  EXPECT_GT(pe.mean_nodes_visited, 0.0);
}

TEST_F(IntegrationTest, PagedStoreBacksQueriesWithIoAccounting) {
  const auto index =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 64});
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  PagedTraceSource::Options popts;
  popts.pool_fraction = 0.1;
  const PagedTraceSource paged(*syn_->store, popts);
  QueryOptions qopts;
  qopts.trace_source = &paged;
  TraceIoStats io;
  for (EntityId q : SampleQueries(*syn_->store, 5, 19)) {
    const TopKResult r = index.Query(q, 10, measure, qopts);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    io.Add(r.stats.io);
  }
  EXPECT_GT(io.pages_read, 0u);
  EXPECT_GT(io.modeled_io_seconds, 0.0);
}

TEST_F(IntegrationTest, AnalyticalModelProducesComparablePe) {
  PolynomialLevelMeasure measure(syn_->hierarchy->num_levels());
  const auto queries = SampleQueries(*syn_->store, 3, 23);
  const PePrediction pred =
      PredictPeForDataset(*syn_->store, measure, 256, 10, queries);
  const auto index =
      DigitalTraceIndex::Build(syn_->store, {.num_functions = 256});
  const auto measured = MeasurePe(index, measure, queries, 10);
  // The model idealizes (uniform hashes, rectangular units); require only
  // that both land in [0,1] and within a loose band of each other.
  EXPECT_GE(pred.pe, 0.0);
  EXPECT_LE(pred.pe, 1.0);
  EXPECT_NEAR(pred.pe, measured.mean_pe, 0.6);
}

}  // namespace
}  // namespace dtrace
