// Extension bench: the exact MinSigTree against classic MinHash + LSH
// banding (Sec. 2.3) and against epsilon-approximate MinSigTree queries —
// the recall / work trade-off the paper motivates generalizing away from
// Jaccard-bound approximate retrieval.
#include "bench/bench_util.h"
#include "hash/hierarchical_hasher.h"
#include "lsh/banding_index.h"

namespace dtrace::bench {
namespace {

double RecallVs(const TopKResult& approx, const TopKResult& truth) {
  int found = 0, total = 0;
  for (const auto& t : truth.items) {
    if (t.score <= 0.0) continue;
    ++total;
    for (const auto& a : approx.items) {
      if (a.entity == t.entity) { ++found; break; }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(found) / total;
}

void Run(const NamedDataset& nd) {
  const int m = nd.dataset.hierarchy->num_levels();
  PolynomialLevelMeasure measure(m);
  const auto queries = SampleQueries(*nd.dataset.store, 15, 404);
  const auto exact = DigitalTraceIndex::Build(nd.dataset.store,
                                              {.num_functions = 512, .seed = 1});

  PrintHeader("LSH / approximation comparison", "recall vs work (k=10)");
  PrintDatasetInfo(nd);
  TablePrinter t({"method", "recall", "mean checked", "PE"});
  const auto n = nd.dataset.num_entities();

  {  // exact reference
    const auto pe = MeasurePe(exact, measure, queries, 10);
    t.AddRow({"MinSigTree exact", "1.000",
              TablePrinter::Fmt(pe.PerQuery(pe.total.entities_checked), 1),
              TablePrinter::Fmt(pe.mean_pe, 4)});
  }
  for (double eps : {0.2, 1.0}) {
    QueryOptions opts;
    opts.approximation_epsilon = eps;
    double recall = 0, checked = 0, pe = 0;
    for (EntityId q : queries) {
      const auto a = exact.Query(q, 10, measure, opts);
      recall += RecallVs(a, exact.BruteForce(q, 10, measure));
      checked += static_cast<double>(a.stats.entities_checked);
      pe += a.stats.pruning_effectiveness(n, 10);
    }
    t.AddRow({"MinSigTree eps=" + TablePrinter::Fmt(eps, 1),
              TablePrinter::Fmt(recall / queries.size(), 3),
              TablePrinter::Fmt(checked / queries.size(), 1),
              TablePrinter::Fmt(pe / queries.size(), 4)});
  }
  for (auto [bands, rows] : {std::pair<int, int>{32, 4}, {16, 8}}) {
    HierarchicalMinHasher hasher(*nd.dataset.hierarchy, nd.dataset.horizon,
                                 bands * rows, /*seed=*/2);
    MinHashBandingIndex lsh(*nd.dataset.store, hasher,
                            {.bands = bands, .rows = rows});
    double recall = 0, checked = 0, pe = 0;
    for (EntityId q : queries) {
      const auto a = lsh.Query(q, 10, measure);
      recall += RecallVs(a, exact.BruteForce(q, 10, measure));
      checked += static_cast<double>(a.stats.entities_checked);
      pe += a.stats.pruning_effectiveness(n, 10);
    }
    t.AddRow({"LSH b=" + std::to_string(bands) + " r=" + std::to_string(rows),
              TablePrinter::Fmt(recall / queries.size(), 3),
              TablePrinter::Fmt(checked / queries.size(), 1),
              TablePrinter::Fmt(pe / queries.size(), 4)});
  }
  t.Print();
}

}  // namespace
}  // namespace dtrace::bench

int main() {
  for (const auto& nd : dtrace::bench::BothDatasets(2000)) {
    dtrace::bench::Run(nd);
  }
  return 0;
}
