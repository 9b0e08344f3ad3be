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
  double mean_pe = 0.0;  ///< Definition 5, averaged
  size_t num_queries = 0;
  /// Every QueryStats counter summed over the batch (QueryStats::Add).
  /// `total.elapsed_seconds` sums each result's elapsed time, which may be
  /// fan-out wall time; `total.work_seconds` sums the per-shard search work.
  QueryStats total;

  /// A summed counter divided by num_queries (0 for an empty batch).
  double PerQuery(double summed) const {
    return num_queries > 0 ? summed / static_cast<double>(num_queries) : 0.0;
  }
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
