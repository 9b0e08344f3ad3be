#include "core/query.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/check.h"
#include "util/timer.h"

namespace dtrace {

namespace {

// Bounded top-k accumulator with deterministic tie-breaking (higher score
// first, then lower entity id).
class TopKHeap {
 public:
  explicit TopKHeap(int k) : k_(k) {}

  void Offer(EntityId e, double score) {
    if (static_cast<int>(items_.size()) < k_) {
      items_.push_back({e, score});
      std::push_heap(items_.begin(), items_.end(), Worse);
      return;
    }
    if (Better({e, score}, items_.front())) {
      std::pop_heap(items_.begin(), items_.end(), Worse);
      items_.back() = {e, score};
      std::push_heap(items_.begin(), items_.end(), Worse);
    }
  }

  bool Full() const { return static_cast<int>(items_.size()) >= k_; }
  double MinScore() const { return items_.front().score; }
  // The current k-th item (worst kept) — the pair a full heap certifies to
  // the cross-shard watermark.
  const ScoredEntity& Min() const { return items_.front(); }

  std::vector<ScoredEntity> Sorted() && {
    std::sort(items_.begin(), items_.end(), Better);
    return std::move(items_);
  }

 private:
  // Strict "is x better than y" order.
  static bool Better(const ScoredEntity& x, const ScoredEntity& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.entity < y.entity;
  }
  // Min-heap on Better: the root is the worst kept item.
  static bool Worse(const ScoredEntity& x, const ScoredEntity& y) {
    return Better(x, y);
  }

  int k_;
  std::vector<ScoredEntity> items_;
};

// Per-query arena of Remaining states: the query's unpruned cells per
// sp-index level as seen by one frontier entry. A slot is the entry's
// per-level counts (levels 1..m) plus a bitmask over ordinals into the
// query's root cell list for every level, at fixed offsets (a node at level
// i fills only levels i+1..m; filtering only ever needs a cell's hashes,
// indexed by ordinal in the per-query hash table, and counts fall out of
// popcounts). Every frontier entry owns exactly one slot, addressed by a
// uint32_t handle and recycled through a free list, so steady-state
// expansion allocates nothing.
class RemainingArena {
 public:
  // Drops every slot and sets the stride for this query's geometry. Storage
  // capacity survives, so a thread-local arena carries its high-water mark
  // from query to query. Safe because no handle outlives its query (this
  // also reclaims entries stranded in the frontier by early termination).
  void Reset(size_t num_levels, size_t num_words) {
    levels_ = num_levels;
    words_ = num_words;
    next_ = 0;
    free_.clear();
  }

  uint32_t Acquire() {
    if (!free_.empty()) {
      const uint32_t h = free_.back();
      free_.pop_back();
      return h;
    }
    const uint32_t h = next_++;
    if (counts_.size() < next_ * levels_) counts_.resize(next_ * levels_);
    if (masks_.size() < next_ * words_) masks_.resize(next_ * words_);
    return h;
  }
  void Release(uint32_t h) { free_.push_back(h); }

  // Valid until the next Acquire (which may grow the storage).
  uint32_t* counts(uint32_t h) { return counts_.data() + h * levels_; }
  uint64_t* masks(uint32_t h) { return masks_.data() + h * words_; }

 private:
  size_t levels_ = 0;
  size_t words_ = 0;
  uint32_t next_ = 0;
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> masks_;
  std::vector<uint32_t> free_;
};

// Frontier entries are bounded eagerly: a child enters the frontier only
// after its own (routing, value) has filtered its parent's remaining cells,
// carrying that tightened bound and its own Remaining slot, and only if the
// certified k-th score does not already dominate the bound. A popped entry
// is expanded directly, and the pop order is the order of true tightened
// bounds.
struct FrontierEntry {
  double ub;
  uint32_t node;
  uint32_t lane;       // which SearchLane's tree `node` indexes into
  uint32_t order;      // deterministic tie-break (FIFO among equal bounds);
                       // one per push, and a node is pushed at most once
  uint32_t remaining;  // RemainingArena handle, owned by this entry
};

struct EntryLess {
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    if (a.ub != b.ub) return a.ub < b.ub;
    return a.order > b.order;
  }
};

// Max-heap frontier specialized for the search loop: 4-ary layout (half the
// levels of a binary heap, children on one cache line) over a reusable
// vector, so steady-state queries allocate nothing for frontier storage.
// EntryLess is a total order (the FIFO `order` field breaks every ub tie),
// so the pop sequence — hence every traversal-dependent counter — is
// identical to std::priority_queue's.
class FrontierHeap {
 public:
  void Clear() { v_.clear(); }
  bool empty() const { return v_.empty(); }
  const FrontierEntry& top() const { return v_.front(); }

  void push(const FrontierEntry& e) {
    size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!less_(v_[parent], v_[i])) break;
      std::swap(v_[parent], v_[i]);
      i = parent;
    }
  }

  void pop() {
    v_.front() = v_.back();
    v_.pop_back();
    size_t i = 0;
    const size_t n = v_.size();
    while (true) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(v_[best], v_[c])) best = c;
      }
      if (!less_(v_[i], v_[best])) break;
      std::swap(v_[i], v_[best]);
      i = best;
    }
  }

 private:
  EntryLess less_;
  std::vector<FrontierEntry> v_;
};

// Per-query evaluation arena: every buffer the candidate-scoring loop needs,
// allocated once per query and reused across leaf batches so the hot loop is
// allocation-free (capacity stays at the high-water mark).
struct EvalScratch {
  std::vector<uint32_t> c_sizes, inter;
};

// Per-query intersection kernel: the query side of every candidate
// intersection, captured once. Per level it keeps the query's windowed cells
// and — when the level's cell space is small enough — a bitmap over it, so
// scoring a candidate is a single pass over the candidate's span with one
// bit probe per cell instead of re-fetching the query record and merging.
// Both paths count the same set, so scores are bit-identical to the
// cursor-merge formulation.
class QueryKernel {
 public:
  // Bitmap cap per level (bits): 2^23 bits = 1 MB. Above this the sorted
  // merge (with its galloping skew path) wins on memory traffic.
  static constexpr uint64_t kMaxBitmapBits = uint64_t{1} << 23;

  void Build(TraceCursor& cursor, EntityId q, const SpatialHierarchy& h,
             TimeStep horizon, TimeStep w0, TimeStep w1) {
    const int m = h.num_levels();
    q_cells_.resize(m);
    bits_.resize(m);
    for (Level l = 1; l <= m; ++l) {
      const auto cells = cursor.CellsInWindow(q, l, w0, w1);
      q_cells_[l - 1].assign(cells.begin(), cells.end());
      const uint64_t space =
          static_cast<uint64_t>(horizon) * h.units_at(l);
      auto& bits = bits_[l - 1];
      if (cells.empty() || space > kMaxBitmapBits) {
        bits.clear();
        continue;
      }
      bits.assign((space + 63) / 64, 0);
      for (CellId c : cells) bits[c >> 6] |= uint64_t{1} << (c & 63);
    }
  }

  uint32_t Intersect(int level0, std::span<const CellId> candidate) const {
    const auto& bits = bits_[level0];
    if (bits.empty()) {
      return IntersectSortedSize(
          {q_cells_[level0].data(), q_cells_[level0].size()}, candidate);
    }
    uint32_t n = 0;
    const uint64_t* b = bits.data();
    for (CellId c : candidate) {
      n += static_cast<uint32_t>((b[c >> 6] >> (c & 63)) & 1u);
    }
    return n;
  }

  // Compressed twin of Intersect: consumes the candidate's encoded id list
  // without a cursor-side decode. The merge path gallops across undecoded
  // blocks from their skip entries; the bitmap path expands one block at a
  // time into a stack buffer and probes bits. Both count exactly the set
  // Intersect would count over the decoded span, and neither allocates.
  uint32_t IntersectPacked(int level0, const PackedIdListView& packed) const {
    const auto& bits = bits_[level0];
    if (bits.empty()) {
      return IntersectPackedSorted(
          packed, {q_cells_[level0].data(), q_cells_[level0].size()});
    }
    uint32_t n = 0;
    const uint64_t* b = bits.data();
    uint32_t buf[kIdBlock];
    const uint32_t blocks = packed.num_blocks();
    for (uint32_t blk = 0; blk < blocks; ++blk) {
      const uint32_t count = packed.DecodeBlock(blk, buf);
      for (uint32_t i = 0; i < count; ++i) {
        n += static_cast<uint32_t>((b[buf[i] >> 6] >> (buf[i] & 63)) & 1u);
      }
    }
    return n;
  }

 private:
  std::vector<std::vector<CellId>> q_cells_;
  std::vector<std::vector<uint64_t>> bits_;
};

// Exact evaluation of a batch of candidates (one leaf's members, or the
// whole population in BruteForceTopK), streamed through `cursor` and offered
// to the heap in candidate order.
//
// The query side of every intersection comes from `kernel` (built once per
// query), so the inner loop touches the cursor exactly once per
// (candidate, level): one windowed span read, one kernel pass — no repeated
// query-record fetches, no per-candidate allocation.
// `status` latches the FIRST unrecoverable storage error the cursor hit;
// the caller stops scoring and surfaces it through TopKResult::status
// instead of trusting the scores.
void EvalCandidates(const AssociationMeasure& measure, EntityId q,
                    std::span<const uint32_t> q_sizes,
                    const QueryKernel& kernel, TimeStep w0, TimeStep w1,
                    std::span<const EntityId> candidates,
                    TraceCursor& cursor, TopKHeap& heap, QueryStats& stats,
                    EvalScratch& scratch, Status& status) {
  const int m = static_cast<int>(q_sizes.size());
  scratch.c_sizes.resize(m);
  scratch.inter.resize(m);
  for (EntityId e : candidates) {
    if (e == q) continue;
    for (Level l = 1; l <= m; ++l) {
      // Compressed-direct first: a valid view intersects straight off the
      // encoded blocks; otherwise the decoded-span path (the only path
      // for uncompressed sources and restricted windows).
      const auto packed = cursor.PackedCellsInWindow(e, l, w0, w1);
      if (packed.valid()) {
        scratch.c_sizes[l - 1] = packed.size();
        scratch.inter[l - 1] = kernel.IntersectPacked(l - 1, packed);
        continue;
      }
      const auto span = cursor.CellsInWindow(e, l, w0, w1);
      scratch.c_sizes[l - 1] = static_cast<uint32_t>(span.size());
      scratch.inter[l - 1] = kernel.Intersect(l - 1, span);
    }
    heap.Offer(e, measure.Score(q_sizes, scratch.c_sizes, scratch.inter));
    ++stats.entities_checked;
  }
  status.Update(cursor.status());
}

}  // namespace

double QueryStats::pruning_effectiveness(size_t num_entities, int k) const {
  // Degenerate inputs: an empty population, or k covering the whole
  // population, means there is nothing to prune — PE is 0 by convention
  // (the naive formula would divide by zero or go negative).
  if (num_entities == 0 || k < 0 || static_cast<size_t>(k) >= num_entities) {
    return 0.0;
  }
  const double extra =
      static_cast<double>(entities_checked) - static_cast<double>(k);
  return std::clamp(extra / static_cast<double>(num_entities), 0.0, 1.0);
}

TopKResult ForestTopKQuery(std::span<const SearchLane> lanes,
                           const TraceSource& source,
                           const CellHasher& hasher,
                           const AssociationMeasure& measure, EntityId q,
                           int k, const QueryOptions& options) {
  DT_CHECK(k >= 1);
  DT_CHECK(!lanes.empty());
  const int nh = hasher.num_functions();
  const int m = source.hierarchy().num_levels();
  for (const SearchLane& lane : lanes) {
    DT_CHECK(lane.tree != nullptr);
    DT_CHECK_MSG(lane.tree->num_functions() == nh,
                 "lane tree hash family differs from the query hasher");
    DT_CHECK_MSG(lane.tree->num_levels() == m,
                 "lane tree depth differs from the query hierarchy");
  }
  Timer timer;
  const auto cursor = source.OpenCursorAt(options.trace_as_of);
  // Per-lane node cursors: every structural read below goes through them,
  // so the identical search runs over heap nodes (MinSigTree, zero I/O) or
  // packed pages (PagedMinSigTree, charged to stats.io at the end).
  std::vector<std::unique_ptr<TreeNodeCursor>> node_cursors(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    node_cursors[i] = lanes[i].tree->OpenNodeCursor();
  }
  // Lanes at the query's version — every lane, when the source is
  // unversioned — share the query cursor (so a 1-lane forest charges
  // exactly the single-tree search's I/O); a lane pinned at another version
  // opens its own cursor lazily, at its as_of, on first leaf evaluation.
  std::vector<std::unique_ptr<TraceCursor>> lane_cursors(lanes.size());
  const auto lane_cursor = [&](uint32_t lane) -> TraceCursor& {
    if (!source.versioned() || lanes[lane].as_of == options.trace_as_of) {
      return *cursor;
    }
    if (lane_cursors[lane] == nullptr) {
      lane_cursors[lane] = source.OpenCursorAt(lanes[lane].as_of);
    }
    return *lane_cursors[lane];
  };

  const TimeStep w0 = options.time_window ? options.time_window->begin : 0;
  const TimeStep w1 =
      options.time_window ? options.time_window->end : source.horizon();

  TopKResult result;
  QueryStats& stats = result.stats;

  // Per-query filtering kernel: every hash any node's filter can ask for is
  // bulk-computed once up front, transposed so one node's check is a single
  // column scan — hash_table[l-1][u * n_l + ord] = h_u of the query's ord-th
  // level-l cell — instead of one virtual, div-heavy Hash call per
  // (node, cell). Cost is |query cells| * nh, the same as one signature
  // computation; the old lazy scheme re-hashed each cell once per visited
  // node. Lanes share one hash family, so the table (and the kernel and
  // every Remaining mask below) serves all of them — a forest search pays
  // this once, not once per shard.
  std::vector<uint32_t> q_sizes(m);
  // Reused across queries on this thread (QueryMany workers each have their
  // own): the table is fully overwritten per query, so only its capacity
  // survives — the ~per-query-MB allocation and first-touch faults do not
  // repeat.
  static thread_local std::vector<std::vector<uint64_t>> hash_table;
  static thread_local std::vector<uint64_t> hash_row;
  hash_table.resize(m);
  hash_row.resize(nh);
  // Mask geometry: level l's mask is word_count[l-1] words at offset
  // word_prefix[l-1] of every arena slot.
  std::vector<size_t> word_count(m), word_prefix(m + 1, 0);
  for (Level l = 1; l <= m; ++l) {
    const auto cells = cursor->CellsInWindow(q, l, w0, w1);
    const size_t n = cells.size();
    q_sizes[l - 1] = static_cast<uint32_t>(n);
    word_count[l - 1] = (n + 63) / 64;
    word_prefix[l] = word_prefix[l - 1] + word_count[l - 1];
    auto& table = hash_table[l - 1];
    table.resize(n * static_cast<size_t>(nh));
    for (size_t i = 0; i < n; ++i) {
      hasher.HashAll(l, cells[i], hash_row.data());
      for (int u = 0; u < nh; ++u) {
        table[static_cast<size_t>(u) * n + i] = hash_row[u];
      }
    }
    stats.hash_evals += n * static_cast<size_t>(nh);
  }
  static thread_local RemainingArena arena;
  arena.Reset(m, word_prefix[m]);
  // Root state: every query cell survives; tail bits beyond n stay zero (the
  // filter loops only propagate set input bits, preserving this).
  const uint32_t root_remaining = arena.Acquire();
  {
    uint32_t* counts = arena.counts(root_remaining);
    uint64_t* masks = arena.masks(root_remaining);
    std::copy(q_sizes.begin(), q_sizes.end(), counts);
    std::fill(masks, masks + word_prefix[m], 0);
    for (Level l = 1; l <= m; ++l) {
      uint64_t* w = masks + word_prefix[l - 1];
      const size_t n = q_sizes[l - 1];
      for (size_t i = 0; i < n / 64; ++i) w[i] = ~uint64_t{0};
      if (n % 64 != 0) w[n / 64] = (uint64_t{1} << (n % 64)) - 1;
    }
  }

  // Thread-local like the hash table: Build overwrites all per-query state,
  // only buffer capacity survives.
  static thread_local QueryKernel kernel;
  kernel.Build(*cursor, q, source.hierarchy(), source.horizon(), w0, w1);

  TopKHeap heap(k);
  EvalScratch scratch;

  // Thread-local like the hash table: cleared per query, capacity survives.
  static thread_local FrontierHeap frontier;
  frontier.Clear();
  uint32_t order = 0;
  // Every lane's root enters the one shared frontier at the query's root
  // bound (every query cell survives), and each owns a copy of the
  // unfiltered root state.
  const double root_ub = measure.UpperBound(q_sizes, q_sizes);
  for (uint32_t lane = 0; lane < lanes.size(); ++lane) {
    uint32_t remaining = root_remaining;
    if (lane > 0) {
      remaining = arena.Acquire();
      std::copy_n(arena.counts(root_remaining), m, arena.counts(remaining));
      std::copy_n(arena.masks(root_remaining), word_prefix[m],
                  arena.masks(remaining));
    }
    frontier.push(
        {root_ub, lanes[lane].tree->root(), lane, order++, remaining});
    ++stats.heap_pushes;
  }
  // Lanes whose root gets expanded; the rest were pruned whole. Only
  // approximation slack can leave a root unexpanded: no exact score exceeds
  // root_ub, and pruning against the k-th score is strict.
  std::vector<char> lane_expanded(lanes.size(), 0);

  // Filters `parent` through `node`'s (routing, value) — or its full group
  // signature when stored — producing the node's own Remaining (Theorem 2:
  // a node at level i prunes a level-l cell c, l >= i, iff some stored
  // signature position exceeds the cell's hash). Pure lookups into the
  // per-query hash table; no hashing happens here. The node's *own* level
  // is only ever read back as a count — children filter from their own
  // (deeper) level down, and the bound uses counts — so that level is
  // counted without a stored mask; in particular leaves (level m) store no
  // masks at all. Both handles must be live; `own` receives the result.
  auto materialize = [&](const TreeNodeView& node, uint32_t parent,
                         uint32_t own) {
    const uint32_t* parent_counts = arena.counts(parent);
    const uint64_t* parent_masks = arena.masks(parent);
    uint32_t* own_counts = arena.counts(own);
    uint64_t* own_masks = arena.masks(own);
    std::copy_n(parent_counts, node.level - 1, own_counts);
    const bool full_mode = !node.full_sig.empty();
    const uint64_t value = node.value;
    for (Level l = node.level; l <= m; ++l) {
      const uint64_t* src = parent_masks + word_prefix[l - 1];
      const size_t n_l = q_sizes[l - 1];
      const uint64_t* table = hash_table[l - 1].data();
      // In the default routing mode one contiguous column decides
      // survival, so the branch and column base hoist out of the word
      // loops below.
      const uint64_t* col =
          table + static_cast<size_t>(node.routing) * n_l;
      auto survives = [&](size_t ord) {
        if (!full_mode) return col[ord] >= value;
        for (int u = 0; u < nh; ++u) {
          if (table[static_cast<size_t>(u) * n_l + ord] < node.full_sig[u]) {
            return false;
          }
        }
        return true;
      };
      // A fully-set word (the common case near the top of the tree, where
      // little has been pruned yet) takes a branchless contiguous scan of
      // the column instead of the per-set-bit walk — same 64 loads, no
      // loop-carried bit dependency, vectorizable.
      const auto filter_word_dense = [&](size_t w) {
        const uint64_t* base = col + w * 64;
        uint64_t out = 0;
        for (int i = 0; i < 64; ++i) {
          out |= static_cast<uint64_t>(base[i] >= value) << i;
        }
        return out;
      };
      uint32_t count = 0;
      if (l == node.level) {
        for (size_t w = 0; w < word_count[l - 1]; ++w) {
          uint64_t bits = src[w];
          if (!full_mode && bits == ~uint64_t{0}) {
            count += static_cast<uint32_t>(std::popcount(filter_word_dense(w)));
            continue;
          }
          while (bits != 0) {
            const size_t ord = w * 64 + static_cast<size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            count += survives(ord) ? 1 : 0;
          }
        }
      } else {
        uint64_t* dst = own_masks + word_prefix[l - 1];
        for (size_t w = 0; w < word_count[l - 1]; ++w) {
          uint64_t bits = src[w];
          uint64_t out = 0;
          if (!full_mode && bits == ~uint64_t{0}) {
            out = filter_word_dense(w);
          } else {
            while (bits != 0) {
              const int i = std::countr_zero(bits);
              bits &= bits - 1;
              if (survives(w * 64 + static_cast<size_t>(i))) {
                out |= uint64_t{1} << i;
              }
            }
          }
          dst[w] = out;
          count += static_cast<uint32_t>(std::popcount(out));
        }
      }
      own_counts[l - 1] = count;
    }
  };

  const double slack = 1.0 + options.approximation_epsilon;
  CrossShardThreshold* shared = options.shared_threshold;
  // The certified k-th score this search may prune against: its own heap's
  // k-th once full, raised by the cross-shard watermark when one is shared
  // (any shard's certified k-th lower-bounds the global k-th, so late
  // shards inherit the pruning power of the searches that ran before or
  // alongside them). Negative means nothing is certified yet. A stale
  // (lower) watermark read only prunes less, so relaxed reads are safe.
  const auto certified_kth = [&]() {
    double kth = heap.Full() ? heap.MinScore() : -1.0;
    if (shared != nullptr) kth = std::max(kth, shared->score());
    return kth;
  };
  const auto dominated = [&](double ub) {
    const double kth = certified_kth();
    return kth >= 0.0 && kth * slack > ub;
  };
  // Publishes this search's own k-th to the watermark (at leaf-batch
  // granularity — offers take a lock, pops don't).
  const auto publish_kth = [&]() {
    if (shared == nullptr || !heap.Full()) return;
    const ScoredEntity& kth = heap.Min();
    if (shared->Offer(kth.score, kth.entity)) ++stats.threshold_updates;
  };
  // Zone-map bound (paged lanes only): an admissible bound on a child
  // computed from resident data alone, before its node is read. The zone
  // gives the node's exact (level, routing) plus a value FLOOR <= its true
  // value, so running materialize's filter count-only at the floor keeps a
  // superset of the cells the node's own filter keeps: every count
  // dominates the node's true tightened count pointwise (levels below the
  // node's keep the parent's counts, exactly as materialize does), and
  // UpperBound is monotone in the counts. A child rejected because the
  // certified k-th *strictly* dominates this bound therefore also has its
  // true tightened bound strictly dominated, so the in-memory walk would
  // not push it either: dropping it leaves every search counter identical,
  // and only its page fault disappears.
  std::vector<uint32_t> zone_counts(m);
  const auto zone_bound = [&](const TreeNodeZone& zone, uint32_t parent) {
    const uint32_t* parent_counts = arena.counts(parent);
    const uint64_t* parent_masks = arena.masks(parent);
    const Level first = std::max<Level>(zone.level, 1);
    std::copy_n(parent_counts, first - 1, zone_counts.begin());
    const uint64_t floor = zone.value_floor;
    for (Level l = first; l <= m; ++l) {
      const uint64_t* src = parent_masks + word_prefix[l - 1];
      const size_t n_l = q_sizes[l - 1];
      const uint64_t* col =
          hash_table[l - 1].data() + static_cast<size_t>(zone.routing) * n_l;
      uint32_t count = 0;
      for (size_t w = 0; w < word_count[l - 1]; ++w) {
        uint64_t bits = src[w];
        if (bits == ~uint64_t{0}) {
          const uint64_t* base = col + w * 64;
          for (int i = 0; i < 64; ++i) {
            count += static_cast<uint32_t>(base[i] >= floor);
          }
          continue;
        }
        while (bits != 0) {
          const size_t ord =
              w * 64 + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          count += col[ord] >= floor ? 1 : 0;
        }
      }
      zone_counts[l - 1] = count;
    }
    return measure.UpperBound(q_sizes, zone_counts);
  };
  // Error policy (DESIGN-storage.md "Fault model and integrity"): the first
  // unrecoverable storage error any cursor latches stops the search at the
  // next evaluation boundary, and the result carries the error with EMPTY
  // items — never a silently partial ranking. The kernel/hash-table build
  // above read the query's own record, so an error latched there means the
  // search never starts.
  Status search_status = cursor->status();
  // Expanded node's child ids: a paged cursor's next Node() call invalidates
  // the parent's view, so the list is copied before any child is read.
  static thread_local std::vector<uint32_t> children;
  while (search_status.ok() && !frontier.empty()) {
    FrontierEntry entry = frontier.top();
    frontier.pop();
    // Early termination (Sec. 5.1): the certified k-th score *strictly*
    // dominates every remaining upper bound (scaled by the approximation
    // slack). Strictness is what makes the returned tie set canonical: a
    // node whose bound equals the k-th score may still hold candidates
    // that tie it, and those must be evaluated so the heap's total order
    // (score desc, entity id asc) — the same order the sharded top-k merge
    // uses — picks the same entities regardless of traversal order, shard
    // count, or partition. Stranded entries' slots are reclaimed by the
    // arena's Reset at the next query on this thread.
    if (dominated(entry.ub)) break;
    TreeNodeCursor& tree_cursor = *node_cursors[entry.lane];
    TreeNodeView node = tree_cursor.Node(entry.node);
    if (!tree_cursor.status().ok()) {
      // Unrecoverable node page: the view is empty, nothing to expand.
      search_status.Update(tree_cursor.status());
      break;
    }

    // Inner loop: chain fusion. The trees are thin near the leaves (long
    // single-child chains); an only child whose tightened bound no frontier
    // entry beats would be popped straight back, so it is expanded here
    // directly, reusing the view just read to bound it.
    while (true) {
      ++stats.nodes_visited;
      lane_expanded[entry.lane] = 1;

      if (node.level == m) {
        // Leaf: exact evaluation of every member (Lines 10-14), read at
        // the owning lane's version.
        EvalCandidates(measure, q, q_sizes, kernel, w0, w1, node.entities,
                       lane_cursor(entry.lane), heap, stats, scratch,
                       search_status);
        publish_kth();
        arena.Release(entry.remaining);
        break;
      }

      // Inner node (Lines 7-8): bound every child from its own filter and
      // push only those the certified k-th score does not strictly
      // dominate — the same strict rule as termination, so a dropped child
      // could never win (nor tie).
      children.assign(node.children.begin(), node.children.end());
      bool fused = false;
      for (const uint32_t child : children) {
        if (const auto zone = tree_cursor.Zone(child)) {
          if (dominated(zone_bound(*zone, entry.remaining))) continue;
        }
        const TreeNodeView child_node = tree_cursor.Node(child);
        if (!tree_cursor.status().ok()) {
          search_status.Update(tree_cursor.status());
          break;
        }
        const uint32_t own = arena.Acquire();
        materialize(child_node, entry.remaining, own);
        const std::span<const uint32_t> counts(arena.counts(own), m);
        const double ub =
            std::min(entry.ub, measure.UpperBound(q_sizes, counts));
        if (dominated(ub)) {
          arena.Release(own);
          continue;
        }
        if (children.size() == 1 &&
            (frontier.empty() || frontier.top().ub <= ub)) {
          arena.Release(entry.remaining);
          entry = {ub, child, entry.lane, entry.order, own};
          node = child_node;
          fused = true;
          break;
        }
        frontier.push({ub, child, entry.lane, order++, own});
        ++stats.heap_pushes;
      }
      if (!fused) {
        arena.Release(entry.remaining);
        break;
      }
    }
  }

  for (char expanded : lane_expanded) {
    if (!expanded) ++stats.shards_pruned;
  }
  result.items = std::move(heap).Sorted();
  stats.io.Add(cursor->io());
  search_status.Update(cursor->status());
  for (const auto& lc : lane_cursors) {
    if (lc != nullptr) {
      stats.io.Add(lc->io());
      search_status.Update(lc->status());
    }
  }
  for (const auto& nc : node_cursors) {
    stats.io.Add(nc->io());
    search_status.Update(nc->status());
  }
  result.status = search_status;
  if (!result.status.ok()) result.items.clear();
  stats.elapsed_seconds = timer.ElapsedSeconds();
  stats.work_seconds = stats.elapsed_seconds;
  return result;
}

TopKResult BruteForceTopK(const TreeSource& tree, const TraceSource& source,
                          const AssociationMeasure& measure, EntityId q,
                          int k, const QueryOptions& options) {
  DT_CHECK(k >= 1);
  Timer timer;
  const int m = source.hierarchy().num_levels();
  const auto cursor = source.OpenCursorAt(options.trace_as_of);
  const TimeStep w0 = options.time_window ? options.time_window->begin : 0;
  const TimeStep w1 =
      options.time_window ? options.time_window->end : source.horizon();
  std::vector<uint32_t> q_sizes(m);
  static thread_local QueryKernel kernel;
  kernel.Build(*cursor, q, source.hierarchy(), source.horizon(), w0, w1);
  for (Level l = 1; l <= m; ++l) {
    q_sizes[l - 1] =
        static_cast<uint32_t>(cursor->CellsInWindow(q, l, w0, w1).size());
  }

  std::vector<EntityId> candidates;
  candidates.reserve(tree.num_entities());
  for (EntityId e = 0; e < source.num_entities(); ++e) {
    if (e != q && tree.Contains(e)) candidates.push_back(e);
  }

  TopKResult result;
  TopKHeap heap(k);
  EvalScratch scratch;
  EvalCandidates(measure, q, q_sizes, kernel, w0, w1, candidates, *cursor,
                 heap, result.stats, scratch, result.status);
  result.items = std::move(heap).Sorted();
  result.stats.io.Add(cursor->io());
  result.status.Update(cursor->status());
  if (!result.status.ok()) result.items.clear();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  result.stats.work_seconds = result.stats.elapsed_seconds;
  return result;
}

}  // namespace dtrace
