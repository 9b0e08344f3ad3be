// Figure 7.3 — PE vs. the number of hash functions, measured against the
// analytical model of Sec. 6.3 (Eq. 6.12-6.15). Expected shape: PE (the
// fraction of entities checked; lower is better) drops as nh grows, with
// diminishing returns once entities become unique; the prediction tracks the
// measurement but is slightly optimistic (Sec. 7.3 discusses why).
#include "analytics/pe_model.h"
#include "bench/bench_util.h"

namespace dtrace::bench {
namespace {

void Run(const NamedDataset& nd) {
  const int m = nd.dataset.hierarchy->num_levels();
  PolynomialLevelMeasure measure(m);
  const auto queries = SampleQueries(*nd.dataset.store, 15, 303);
  const auto predict_queries = SampleQueries(*nd.dataset.store, 4, 304);
  constexpr int kK = 10;

  PrintHeader("Figure 7.3", "PE vs number of hash functions (k=10)");
  PrintDatasetInfo(nd);
  TablePrinter t({"nh", "PE measured", "PE predicted", "mean checked",
                  "build (s)"});
  for (int nh : {100, 200, 400, 600, 800, 1200, 1600, 2000}) {
    // num_threads = 1 keeps the reported build time machine-independent.
    const auto index = DigitalTraceIndex::Build(
        nd.dataset.store,
        {.num_functions = nh, .seed = 7, .num_threads = 1});
    const auto pe = MeasurePe(index, measure, queries, kK);
    const auto pred = PredictPeForDataset(*nd.dataset.store, measure, nh, kK,
                                          predict_queries);
    t.AddRow({std::to_string(nh), TablePrinter::Fmt(pe.mean_pe, 4),
              TablePrinter::Fmt(pred.pe, 4),
              TablePrinter::Fmt(pe.PerQuery(pe.total.entities_checked), 1),
              TablePrinter::Fmt(index.build_seconds(), 2)});
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
