#ifndef DTRACE_CORE_QUERY_H_
#define DTRACE_CORE_QUERY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/association.h"
#include "core/tree_source.h"
#include "hash/cell_hasher.h"
#include "trace/trace_source.h"
#include "trace/types.h"
#include "util/counters.h"

namespace dtrace {

/// Per-query instrumentation. `pruning_effectiveness` follows Definition 5:
/// PE = (|E'| - k) / |E| where |E'| is the number of entities whose exact
/// association degree was computed — lower is better. Degenerate inputs
/// (|E| = 0, k >= |E|) clamp to 0 instead of producing NaN/negative values.
struct QueryStats {
  /// Node expansions: every node whose children were bounded or whose
  /// members were evaluated, including the single-child descents the search
  /// takes without a frontier round-trip — so not the number of pops.
  uint64_t nodes_visited = 0;
  uint64_t entities_checked = 0;  // exact deg evaluations
  /// Frontier insertions: one per lane root plus one per child whose own
  /// tightened bound survived the certified k-th score. A node enters the
  /// frontier at most once, and no backend pushes a dominated child, so the
  /// count is the same over heap nodes and paged trees.
  uint64_t heap_pushes = 0;
  // Cell-hash evaluations performed for filtering. Since the per-query hash
  // table, these happen once up front (|query cells| * nh); node filtering
  // itself is table lookups and charges nothing here.
  uint64_t hash_evals = 0;
  /// Sharded search lanes (core/sharded_index.h): lanes whose root was
  /// never expanded (only approximation slack can dominate a lane root),
  /// and successful raises of the shared k-th-score watermark by this
  /// search (concurrent lane schedule only). Zero for single-index queries.
  /// router_bound_evals is always zero: nothing evaluates a per-lane bound
  /// any more, and the field stays only because perfbench/perfbench.cc
  /// reads it; the next change to the benchmark deletes it.
  uint64_t shards_pruned = 0;
  uint64_t router_bound_evals = 0;
  uint64_t threshold_updates = 0;
  /// Damage this query observed before its quarantine retry: the failed
  /// snapshot's unrecoverable-page observation count
  /// (PagedMinSigTree::CorruptObserved, core/index.cc's repair path;
  /// DESIGN-storage.md "Fault model and integrity"). Not a count of
  /// distinct pages: every query that failed on the same damaged snapshot
  /// reports that snapshot's running total, so sums over a concurrent batch
  /// can count the same pages more than once. Zero on a healthy disk.
  uint64_t pages_quarantined = 0;
  /// Wall time of the call that produced this result. For a parallel shard
  /// fan-out this is the fan-out wall time, NOT the summed per-shard work —
  /// that lives in `work_seconds`, so aggregating callers no longer
  /// overwrite one with the other.
  double elapsed_seconds = 0.0;
  /// Total search work: a single-tree search reports its own elapsed time
  /// here too, and MergeShardTopK sums it across shards. Unlike
  /// elapsed_seconds it survives the fan-out callers' wall-clock overwrite.
  double work_seconds = 0.0;
  /// I/O charged by the TraceSource the query evaluated candidates against
  /// (all-zero for the in-memory store).
  TraceIoStats io;

  /// The one list of this struct's own counters (util/counters.h); `io`
  /// carries its own list. Add, ForEachCounter, AggregatePe and the bench
  /// JSON all walk them.
  template <typename Visit>
  static constexpr void Fields(Visit&& visit) {
    visit("nodes_visited", &QueryStats::nodes_visited);
    visit("entities_checked", &QueryStats::entities_checked);
    visit("heap_pushes", &QueryStats::heap_pushes);
    visit("hash_evals", &QueryStats::hash_evals);
    visit("shards_pruned", &QueryStats::shards_pruned);
    visit("router_bound_evals", &QueryStats::router_bound_evals);
    visit("threshold_updates", &QueryStats::threshold_updates);
    visit("pages_quarantined", &QueryStats::pages_quarantined);
    visit("elapsed_seconds", &QueryStats::elapsed_seconds);
    visit("work_seconds", &QueryStats::work_seconds);
  }

  /// Sums every listed counter, io's included.
  void Add(const QueryStats& o) {
    AddFields(*this, o);
    io.Add(o.io);
  }

  /// Calls fn(name, value) for every listed counter, then for io's. Names
  /// are the field names and unique across both lists.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    ForEachField(*this, fn);
    ForEachField(io, fn);
  }

  double pruning_effectiveness(size_t num_entities, int k) const;
};
static_assert(NumFields<QueryStats>() * 8 + sizeof(TraceIoStats) ==
                  sizeof(QueryStats),
              "every QueryStats field needs an entry in Fields()");

struct ScoredEntity {
  EntityId entity;
  double score;
};

struct TopKResult {
  /// Sorted by descending score; ties by ascending entity id. With zero
  /// approximation slack the *selection* is canonical too: among candidates
  /// tying the k-th score, the lowest entity ids are kept (termination is
  /// strict on tied bounds, so every potential tie is evaluated). Exact
  /// results are therefore bit-identical across traversal orders, thread
  /// counts, and shard partitions (core/sharded_index.h relies on this).
  std::vector<ScoredEntity> items;
  QueryStats stats;
  /// Ok, or the FIRST unrecoverable storage error the search hit (a page
  /// that exhausted the buffer pool's read retries, or a malformed blob on
  /// a checksum-clean page). On error `items` is EMPTY — never a silently
  /// partial ranking — while `stats` still reports the work performed.
  /// Callers that ignore status see an empty result, not wrong answers.
  Status status;
};

/// Restricts a query to presence within [begin, end) time steps — the
/// paper's investigation use case (association before/after an event).
struct TimeWindow {
  TimeStep begin;
  TimeStep end;  // exclusive
};

/// Per-query shared watermark for concurrent (or sequential) shard
/// searches: the best *certified* k-th item seen so far across shards,
/// ordered exactly like MergeShardTopK / TopKHeap — (score descending,
/// entity id ascending). "Certified" means the offering search had k
/// exactly-evaluated entities at least as good as the offered item, so the
/// final global k-th item can only be better: any node whose upper bound is
/// *strictly* below score() can therefore never contribute to the merged
/// top-k, for any shard interleaving. Strictness is what preserves the
/// canonical tie set (DESIGN-sharding.md) — a node whose bound ties the
/// watermark may still hold tying candidates that win on entity id, so it
/// is never pruned by the watermark alone.
///
/// score() starts at 0.0, which is indistinguishable from a certified
/// 0-score watermark — harmless either way, since bounds are non-negative
/// and pruning is strict. Reads are a relaxed atomic load (hot path);
/// offers take a mutex (they happen at most once per leaf batch). The
/// tie entity is bookkeeping only: it totalizes the update order so
/// equal-score offers resolve deterministically.
class CrossShardThreshold {
 public:
  /// Offers a certified k-th (score, entity). Keeps the incumbent unless
  /// the offer is strictly better in (score desc, id asc) order; returns
  /// whether the watermark moved (QueryStats::threshold_updates).
  bool Offer(double score, EntityId entity) {
    if (score < score_.load(std::memory_order_relaxed)) return false;
    const std::lock_guard<std::mutex> lock(mu_);
    if (score > best_score_ ||
        (score == best_score_ && entity < best_entity_)) {
      best_score_ = score;
      best_entity_ = entity;
      score_.store(score, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Current certified k-th score (0.0 until the first offer). Safe to read
  /// concurrently with offers; a stale (lower) value only prunes less.
  /// Pruning reads only the score — the tie entity exists to make the
  /// update order (hence threshold_updates counting) total and
  /// deterministic when scores tie.
  double score() const { return score_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> score_{0.0};
  mutable std::mutex mu_;
  double best_score_ = 0.0;
  EntityId best_entity_ = kInvalidEntity;
};

/// Per-query knobs: time window, approximation slack, the trace source
/// candidates are read from, and the leaf-prefetch lookahead.
struct QueryOptions {
  /// When set, association degrees are computed over ST-cells inside the
  /// window only, for both the query and every candidate. Pruning stays
  /// exact: a node's pruned cells are absent from the candidates'
  /// *unrestricted* traces, hence also from the windowed ones.
  std::optional<TimeWindow> time_window;
  /// Approximation slack (the paper's future-work item 1): the search stops
  /// once the k-th best score is within a (1 + epsilon) factor of every
  /// remaining upper bound, trading a bounded score error for earlier
  /// termination. 0 (default) keeps queries exact. Every returned score is
  /// still the candidate's exact degree; only ranks can be off, and any
  /// missed entity's degree is < (1 + epsilon) * returned k-th score.
  double approximation_epsilon = 0.0;
  /// Evaluate the query and every candidate against this source instead of
  /// the index's in-memory store (e.g. a PagedTraceSource over the same
  /// dataset). Null = in-memory. Read by the DigitalTraceIndex and
  /// ShardedIndex query entry points; ForestTopKQuery and BruteForceTopK
  /// take their source as an argument instead.
  const TraceSource* trace_source = nullptr;
  /// Commit version the QUERY entity's trace (and, for single-lane
  /// searches, every candidate's) is read as of — the version the caller's
  /// read pin certifies (TraceSource::OpenCursorAt). DigitalTraceIndex sets
  /// this to its pin's version so a query races no ReplaceEntity commit:
  /// the tree it walks and the traces it scores belong to the same epoch.
  /// Ignored by unversioned sources. Default: latest.
  uint64_t trace_as_of = kLatestVersion;
  /// Storage-backed leaf-prefetch lookahead: while the current candidate is
  /// being scored, the cursor's pipeline worker materializes up to this many
  /// upcoming candidates of the leaf batch (0 = off, the synchronous path).
  /// Results are bit-identical and per-query I/O page accounting is
  /// unchanged — the pipeline performs exactly the page reads the
  /// synchronous path would, in the same order — only wall time improves.
  /// Ignored by in-memory sources.
  int prefetch_depth = 0;
  /// Selects nothing: every ShardedIndex query runs the forest-walk lanes,
  /// and no code reads this field. It is declared only because
  /// perfbench/perfbench.cc still assigns it; the next change to the
  /// benchmark deletes both.
  bool cross_shard_routing = false;
  /// Internal plumbing for ShardedIndex's concurrent lane schedule: when
  /// set, the search reads this watermark to tighten early termination and
  /// the child-push guard, and publishes its own k-th score after each leaf
  /// batch. Callers other than ShardedIndex leave it null.
  CrossShardThreshold* shared_threshold = nullptr;
};

/// One lane of a forest search (one shard of a ShardedIndex query): a tree
/// (an in-memory MinSigTree or its paged snapshot — any TreeSource) over a
/// slice of the entity population.
struct SearchLane {
  const TreeSource* tree = nullptr;
  /// Commit version this lane's candidate traces are read as of (the
  /// version of the lane's read pin, matching the pinned tree above).
  /// Ignored by unversioned sources. Default: latest.
  uint64_t as_of = kLatestVersion;
};

/// Exact top-k over a *forest* of MinSigTrees that partition the entity
/// population, searched as ONE best-first expansion: a single frontier
/// holds every lane's nodes (each lane's root enters at the query's root
/// bound), and a single global heap supplies the k-th score every pruning
/// decision compares against. Late lanes therefore never re-check
/// candidates the global k-th already beats — the recovery of the sharded
/// pruning loss (DESIGN-sharding.md) — and per-query state (the transposed
/// hash table, the intersection kernel, Remaining masks) is built once, not
/// once per lane.
///
/// Algorithm 2 is the one-lane case: best-first expansion, per-node upper
/// bounds from partial pruned sets, and early termination (DESIGN.md
/// Sec. 3.2 derives the bound). All trace reads — the query's own cells,
/// candidate sizes, intersections — go through cursors opened on `source`,
/// so the same search runs in-memory or storage-backed (DESIGN-storage.md).
///
/// Requirements: every lane's tree is built over the same hash family as
/// `hasher` (same seed and width) and the same hierarchy, lane populations
/// are disjoint, and `source` describes the union population. The query's
/// own cells are read as of options.trace_as_of; a lane's candidates as of
/// its own as_of (lanes at the query's version — every lane of an
/// unversioned source — share the query cursor, so I/O is charged once).
/// Results are bit-identical to the single-tree search over the union
/// population, by the same strict-termination tie canonicalization. With
/// approximation slack the approximation_epsilon guarantee holds, also
/// under a shared_threshold: every watermark offer is certified, so it
/// never exceeds the final merged k-th score.
/// QueryStats::shards_pruned counts lanes whose root was never expanded
/// (possible only with approximation slack).
TopKResult ForestTopKQuery(std::span<const SearchLane> lanes,
                           const TraceSource& source,
                           const CellHasher& hasher,
                           const AssociationMeasure& measure, EntityId q,
                           int k, const QueryOptions& options = {});

/// Oracle: exact scores for every entity `tree` contains, read from
/// `source` as of options.trace_as_of (the brute-force comparator).
TopKResult BruteForceTopK(const TreeSource& tree, const TraceSource& source,
                          const AssociationMeasure& measure, EntityId q,
                          int k, const QueryOptions& options = {});

}  // namespace dtrace

#endif  // DTRACE_CORE_QUERY_H_
