// Ablations of the design choices DESIGN.md calls out:
//   1. Hash family: structured HierarchicalMinHasher vs. the reference
//      ExactMinHasher — quantifies the PE cost of the O(1) structured
//      family's time-correlated values.
//   2. Node storage: routing-value-only (the paper's choice) vs. full group
//      signatures — pruning gain vs. index size and query-time hash work.
#include "bench/bench_util.h"

namespace dtrace::bench {
namespace {

void HashFamilyAblation() {
  // Small instance: the exact hasher evaluates upper-level cells in
  // O(#descendant bases).
  SynConfig config = PresetSyn(600, /*seed=*/51);
  config.grid_side = 16;
  config.hierarchy.m = 3;
  Dataset d = GenerateSyn(config);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 10, 111);

  PrintHeader("Ablation 1", "hash family: structured vs exact (nh=256, k=10)");
  TablePrinter t({"hasher", "PE", "mean checked", "build (s)",
                  "hash tables (MB)"});
  for (auto kind : {IndexOptions::Hasher::kHierarchical,
                    IndexOptions::Hasher::kExact}) {
    // num_threads = 1 keeps the reported build time machine-independent.
    const auto index = DigitalTraceIndex::Build(
        d.store,
        {.num_functions = 256, .seed = 52, .hasher = kind, .num_threads = 1});
    const auto pe = MeasurePe(index, measure, queries, 10);
    t.AddRow({kind == IndexOptions::Hasher::kHierarchical ? "hierarchical"
                                                          : "exact",
              TablePrinter::Fmt(pe.mean_pe, 4),
              TablePrinter::Fmt(pe.PerQuery(pe.total.entities_checked), 1),
              TablePrinter::Fmt(index.build_seconds(), 2),
              TablePrinter::Fmt(index.HasherMemoryBytes() / 1048576.0, 2)});
  }
  t.Print();
}

void NodeStorageAblation() {
  Dataset d = MakeSynDataset(2000, /*seed=*/53);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 10, 222);

  PrintHeader("Ablation 2",
              "node storage: routing value only vs full signature (nh=64)");
  TablePrinter t({"mode", "PE (k=10)", "mean checked", "tree size (KB)",
                  "mean query (ms)"});
  for (bool full : {false, true}) {
    const auto index = DigitalTraceIndex::Build(
        d.store,
        {.num_functions = 64, .seed = 54, .store_full_signatures = full});
    const auto pe = MeasurePe(index, measure, queries, 10);
    t.AddRow({full ? "full signature" : "routing value",
              TablePrinter::Fmt(pe.mean_pe, 4),
              TablePrinter::Fmt(pe.PerQuery(pe.total.entities_checked), 1),
              TablePrinter::Fmt(index.IndexMemoryBytes() / 1024.0, 1),
              TablePrinter::Fmt(
                  pe.PerQuery(pe.total.elapsed_seconds) * 1e3, 2)});
  }
  t.Print();
  std::printf(
      "(full signatures prune more per node but store nh values per node "
      "and hash every query cell nh times per visited node)\n");
}

}  // namespace
}  // namespace dtrace::bench

int main() {
  dtrace::bench::HashFamilyAblation();
  dtrace::bench::NodeStorageAblation();
  return 0;
}
