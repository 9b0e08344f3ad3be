#include "exp/harness.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace dtrace {

std::vector<EntityId> SampleQueries(const TraceStore& store, size_t count,
                                    uint64_t seed, uint32_t min_cells) {
  const int m = store.hierarchy().num_levels();
  std::vector<EntityId> eligible;
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    if (store.cell_count(e, m) >= min_cells) eligible.push_back(e);
  }
  DT_CHECK_MSG(!eligible.empty(), "no eligible query entities");
  Rng rng(seed);
  std::vector<EntityId> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(eligible[rng.NextBelow(eligible.size())]);
  }
  return out;
}

PeMeasurement AggregatePe(std::span<const TopKResult> results,
                          size_t num_entities, int k) {
  PeMeasurement agg;
  for (const TopKResult& r : results) {
    agg.mean_pe += r.stats.pruning_effectiveness(num_entities, k);
    agg.total.Add(r.stats);
    ++agg.num_queries;
  }
  agg.mean_pe = agg.PerQuery(agg.mean_pe);
  return agg;
}

PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k,
                        const QueryOptions& options, int num_threads) {
  const std::vector<TopKResult> results =
      index.QueryMany(queries, k, measure, options, num_threads);
  return AggregatePe(results, index.tree().num_entities(), k);
}

PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k) {
  return MeasurePe(index, measure, queries, k, QueryOptions{},
                   /*num_threads=*/1);
}

bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k,
                     const QueryOptions& options) {
  // Exactness is only meaningful with zero slack (brute force ignores
  // epsilon anyway), so strip it from whatever options the caller reuses.
  QueryOptions exact = options;
  exact.approximation_epsilon = 0.0;
  for (EntityId q : queries) {
    const TopKResult fast = index.Query(q, k, measure, exact);
    const TopKResult slow = index.BruteForce(q, k, measure, exact);
    if (fast.items.size() != slow.items.size()) return false;
    for (size_t i = 0; i < fast.items.size(); ++i) {
      if (std::abs(fast.items[i].score - slow.items[i].score) > 1e-12) {
        return false;
      }
    }
  }
  return true;
}

bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k) {
  return VerifyExactness(index, measure, queries, k, QueryOptions{});
}

}  // namespace dtrace
