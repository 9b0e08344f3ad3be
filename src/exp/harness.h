#ifndef DTRACE_EXP_HARNESS_H_
#define DTRACE_EXP_HARNESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/association.h"
#include "core/index.h"
#include "trace/dataset.h"
#include "trace/types.h"

namespace dtrace {

/// Aggregated measurements over a batch of queries.
struct PeMeasurement {
  double mean_pe = 0.0;            ///< Definition 5, averaged
  double mean_entities_checked = 0.0;
  double mean_nodes_visited = 0.0;
  double mean_query_seconds = 0.0;
  /// Storage-path I/O, averaged per query (zero on the in-memory path).
  double mean_pages_read = 0.0;
  double mean_io_seconds = 0.0;
  /// Tree-page traffic of a paged MinSigTree, averaged per query (zero
  /// when every lane's tree is in-memory).
  double mean_tree_pages_read = 0.0;
  double mean_tree_page_hits = 0.0;
  /// Records served by the leaf-prefetch pipeline, averaged per query
  /// (zero with QueryOptions::prefetch_depth = 0).
  double mean_prefetch_hits = 0.0;
  /// Cross-shard pruning layer, averaged per query (all zero for
  /// single-index runs; watermark raises also stay zero under the serial
  /// lane schedule): shards skipped by the coarse router, watermark raises,
  /// and coarse-router bound evaluations.
  double mean_shards_pruned = 0.0;
  double mean_threshold_updates = 0.0;
  double mean_router_bound_evals = 0.0;
  /// Summed per-shard search work per query (QueryStats::work_seconds) —
  /// distinct from mean_query_seconds, which reflects elapsed_seconds and
  /// may be fan-out wall time.
  double mean_work_seconds = 0.0;
  /// Fault accounting, averaged per query (DESIGN-storage.md "Fault model
  /// and integrity"). All zero on a healthy disk; under an injected fault
  /// schedule these report the retries/verification failures/faults the
  /// batch absorbed and the tree pages the quarantine path replaced.
  double mean_io_retries = 0.0;
  double mean_checksum_failures = 0.0;
  double mean_faults_injected = 0.0;
  double mean_pages_quarantined = 0.0;
  size_t num_queries = 0;
};

/// Aggregates already-computed top-k results into a PeMeasurement, with PE
/// computed against a population of `num_entities`. The common core of
/// MeasurePe and of benches that run batches through other entry points
/// (e.g. ShardedIndex::QueryMany, whose per-result stats already aggregate
/// across shards).
PeMeasurement AggregatePe(std::span<const TopKResult> results,
                          size_t num_entities, int k);

/// Samples `count` query entities with at least `min_cells` base-level
/// cells (deterministic given `seed`), mirroring the paper's averaging of
/// PE over multiple query entities.
std::vector<EntityId> SampleQueries(const TraceStore& store, size_t count,
                                    uint64_t seed, uint32_t min_cells = 5);

/// Runs top-k queries through the index and aggregates PE/time/I-O.
/// `options` selects the evaluation path — in particular a storage-backed
/// `options.trace_source` (the real Sec. 7.6 regime, replacing the old
/// access-hook emulation) — and `num_threads` batches the queries through
/// QueryMany (1 = serial, 0 = auto).
PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k,
                        const QueryOptions& options, int num_threads = 1);

/// In-memory serial convenience overload.
PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k);

/// Returns true iff the index's answers match brute force on every query —
/// same score multiset (ties may permute entity ids). Used by integration
/// tests and by benches' self-checks. Both sides evaluate through
/// `options` (window, epsilon slack excluded — exactness needs epsilon 0,
/// and brute force ignores it anyway; trace_source applies to both).
bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k,
                     const QueryOptions& options);

bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k);

}  // namespace dtrace

#endif  // DTRACE_EXP_HARNESS_H_
