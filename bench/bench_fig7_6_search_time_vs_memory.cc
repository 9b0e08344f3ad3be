// Figure 7.6 — search time vs. memory size. Raw traces live on the
// simulated disk (PagedTraceSource); every exact candidate evaluation
// materializes the candidate's record through the shared LRU buffer pool
// whose capacity is a fraction of the data size — the real storage-backed
// query path, not the old access-hook emulation. Reported modeled time =
// wall time + modeled HDD I/O latency charged to the queries
// (DESIGN-storage.md). Expected shape: super-linear drop with memory,
// flattening around 40-50% of the data size.
#include <algorithm>

#include "bench/bench_util.h"
#include "storage/paged_trace_source.h"

namespace dtrace::bench {
namespace {

void Run(const NamedDataset& nd, BenchJson& json) {
  const int m = nd.dataset.hierarchy->num_levels();
  PolynomialLevelMeasure measure(m);
  const auto index = DigitalTraceIndex::Build(nd.dataset.store,
                                              {.num_functions = 800, .seed = 9});
  const auto queries = SampleQueries(*nd.dataset.store, 20, 606);

  PrintHeader("Figure 7.6", "search time vs memory size");
  PrintDatasetInfo(nd);
  {
    const PagedTraceSource probe(*nd.dataset.store,
                                 PresetHddSourceOptions(1));
    std::printf("trace data: %zu pages (%.1f MB modeled)\n",
                probe.num_pages(), probe.data_bytes() / 1048576.0);
  }
  TablePrinter t({"mem fraction", "top-1 (ms)", "top-10 (ms)", "top-50 (ms)",
                  "pages/query", "hit rate"});
  for (double frac : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    std::vector<std::string> row = {TablePrinter::Fmt(frac, 1)};
    uint64_t pages_read = 0, pages_hit = 0;
    for (int k : {1, 10, 50}) {
      // Fresh source per cell: a cold pool at this capacity, as the
      // memory-size experiment prescribes.
      auto src_opts = PresetHddSourceOptions(0);
      src_opts.pool_fraction = frac;
      PagedTraceSource src(*nd.dataset.store, src_opts);
      QueryOptions qopts;
      qopts.trace_source = &src;
      Timer timer;
      QueryStats cell;  // this (frac, k) cell only
      for (EntityId q : queries) {
        cell.Add(index.Query(q, k, measure, qopts).stats);
      }
      const uint64_t cell_read = cell.io.pages_read;
      const uint64_t cell_hit = cell.io.pages_hit;
      const double io_seconds = cell.io.modeled_io_seconds;
      json.Counter("lock_wait_seconds", src.pool_stats().lock_wait_seconds);
      // Every QueryStats counter. The cross-shard ones are structurally zero
      // on this single-index bench; they keep one counters schema across
      // benches.
      json.Counters(cell);
      pages_read += cell_read;
      pages_hit += cell_hit;
      const double wall = timer.ElapsedSeconds();
      const double modeled = (wall + io_seconds) / queries.size();
      row.push_back(TablePrinter::Fmt(modeled * 1e3, 2));
      json.AddRow()
          .Str("dataset", nd.name)
          .Int("entities", nd.dataset.num_entities())
          .Num("mem_fraction", frac)
          .Int("k", static_cast<uint64_t>(k))
          .Num("modeled_ms_per_query", modeled * 1e3)
          .Num("queries_per_sec", queries.size() / (wall + io_seconds))
          .Int("pages_read", cell_read)
          .Num("hit_rate",
               cell_hit + cell_read == 0
                   ? 0.0
                   : static_cast<double>(cell_hit) /
                         static_cast<double>(cell_hit + cell_read));
    }
    const uint64_t touched = pages_hit + pages_read;
    row.push_back(TablePrinter::Fmt(
        static_cast<double>(pages_read) / (3.0 * queries.size()), 1));
    row.push_back(TablePrinter::Fmt(
        touched == 0 ? 0.0
                     : static_cast<double>(pages_hit) /
                           static_cast<double>(touched),
        3));
    t.AddRow(std::move(row));
  }
  t.Print();
}

}  // namespace
}  // namespace dtrace::bench

int main() {
  dtrace::bench::BenchJson json("fig7_6");
  for (const auto& nd : dtrace::bench::BothDatasets(2000)) {
    dtrace::bench::Run(nd, json);
  }
  json.Write();
  return 0;
}
