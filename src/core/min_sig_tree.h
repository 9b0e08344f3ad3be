#ifndef DTRACE_CORE_MIN_SIG_TREE_H_
#define DTRACE_CORE_MIN_SIG_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/signature.h"
#include "core/tree_source.h"
#include "trace/types.h"

namespace dtrace {

/// The MinSigTree (Sec. 4.2.2): an m-level tree over entities. The virtual
/// root sits at tree level 0; a node at tree level i groups entities whose
/// level-i signatures share the same *routing index* (position of the maximal
/// hash value), recursively within their level-(i-1) group. Entities live in
/// the leaves (level m). Each node materializes only `(routing, value)` with
/// value = SIG_N[routing] = min over member entities of sig^i_e[routing] —
/// the paper's storage-saving choice; `Options::store_full_signatures`
/// optionally keeps the full group signature for the pruning ablation.
///
/// Invariant used for exactness (Theorems 2-4): for every entity e below a
/// node N at level i, N.value <= sig^i_e[N.routing]; hence any cell c at
/// level l >= i with h_{N.routing}(c) < N.value satisfies c not in seq^l_e.
/// Incremental updates only ever *lower* stored values (or leave them stale
/// low after removals), so the invariant — and query exactness — is
/// maintained without rebuilds; `RefreshValues` restores tightness.
///
/// Implements TreeSource (core/tree_source.h): its node cursor hands out
/// views straight into the heap nodes — zero copies, zero I/O — so the
/// query layer is written against the interface only and the paged tree
/// (core/paged_min_sig_tree.h) slots in behind the same search.
class MinSigTree : public TreeSource {
 public:
  struct Options {
    /// Keep the full nh-value group signature per node (more pruning, nh x
    /// memory; Sec. 4.2.2 discusses the trade-off).
    bool store_full_signatures = false;
    /// Worker threads for per-entity signature computation during Build.
    /// 0 = hardware_concurrency; 1 = fully serial. The resulting tree is
    /// identical for every thread count: workers only fill position-indexed
    /// per-entity slots, and grouping/node allocation stays sequential.
    int num_threads = 0;
    /// Bound (bytes) on the transient full-signature buffer in
    /// store_full_signatures builds; the level is processed in batches of
    /// at most this many bytes of signatures (but never fewer entities
    /// than worker threads). Exposed for tests; the default keeps the
    /// transient flat in |E|. Ignored unless store_full_signatures is set.
    size_t full_sig_batch_bytes = size_t{8} << 20;
  };

  struct Node {
    Level level = 0;     // 0 = virtual root, else sp-index level 1..m
    int routing = 0;     // routing index u in [0, nh)
    uint64_t value = 0;  // SIG_N[routing]
    int32_t parent = -1;
    std::vector<uint32_t> children;
    std::vector<EntityId> entities;  // non-empty only at leaves (level m)
    std::vector<uint64_t> full_sig;  // only in store_full_signatures mode
  };

  /// Builds the tree over `entities` (Algorithm 1), level-synchronously so
  /// that only one level of signatures is in flight at a time.
  static MinSigTree Build(const SignatureComputer& sigs,
                          std::span<const EntityId> entities,
                          Options options);
  static MinSigTree Build(const SignatureComputer& sigs,
                          std::span<const EntityId> entities) {
    return Build(sigs, entities, Options{});
  }

  /// Restores a tree from serialized nodes (the snapshot load path,
  /// core/index_snapshot.cc). `nodes[0]` must be the virtual root; leaf
  /// membership and the entity count are rebuilt from the leaves' entity
  /// lists. The caller (the snapshot decoder) is responsible for structural
  /// validation of untrusted bytes — this aborts on duplicate leaf
  /// membership, the one invariant it re-derives.
  static MinSigTree FromNodes(int m, int nh, Options options,
                              std::vector<Node> nodes);

  /// Inserts a new entity (whose trace must already be in the store),
  /// extending/lowering the root-to-leaf path (Sec. 4.2.3).
  void Insert(EntityId e, const SignatureComputer& sigs);

  /// Inserts a batch: per-entity signatures are computed on
  /// `Options::num_threads` workers (the dominant cost), then applied to
  /// the tree serially in input order — the result is identical to calling
  /// Insert for each entity in the same order, for every thread count.
  void InsertBatch(std::span<const EntityId> entities,
                   const SignatureComputer& sigs);

  /// Removes an entity from its leaf. Node values are left unchanged
  /// (conservative: they can only be lower than the true group minimum,
  /// which loosens pruning but preserves exactness).
  void Remove(EntityId e);

  /// Remove + Insert; call after TraceStore::ReplaceEntity.
  void Update(EntityId e, const SignatureComputer& sigs);

  /// Recomputes every node value (and full signature) from current member
  /// signatures, restoring tight pruning after removals/updates. Signature
  /// recomputation runs on `Options::num_threads` workers into per-entity
  /// slots; the min-merge into nodes stays serial, so refreshed values are
  /// identical for every thread count.
  void RefreshValues(const SignatureComputer& sigs);

  uint32_t root() const override { return 0; }
  const Node& node(uint32_t idx) const { return nodes_[idx]; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_entities() const override { return num_entities_; }
  bool Contains(EntityId e) const override {
    return e < leaf_of_.size() && leaf_of_[e] >= 0;
  }
  int num_levels() const override { return m_; }
  int num_functions() const override { return nh_; }

  /// Zero-I/O cursor over the heap nodes (TreeSource). The views alias
  /// nodes_ directly, so they are invalidated by any tree mutation — the
  /// same external query/maintenance serialization the rest of the API
  /// already assumes.
  std::unique_ptr<TreeNodeCursor> OpenNodeCursor() const override;

  /// Index size as stored (paper Fig. 7.8(b)): per node a routing index and
  /// a value, plus leaf entity lists (and full signatures if enabled).
  uint64_t MemoryBytes() const;

  /// Aborts if any structural or signature-dominance invariant is violated.
  /// Test-only (walks every entity).
  void CheckInvariants(const SignatureComputer& sigs) const;

 private:
  MinSigTree(int m, int nh, Options options)
      : m_(m), nh_(nh), opts_(options) {
    nodes_.push_back(Node{});  // virtual root
  }

  uint32_t AddNode(Level level, int routing, uint64_t value, int32_t parent);
  void NoteLeafMembership(EntityId e, uint32_t leaf);

  // Walks/extends the root-to-leaf path for `e` from precomputed per-level
  // data: routing/value have m entries (level l at [l-1]); `full` is the
  // m*nh concatenated level signatures, or null outside full-signature mode.
  void InsertPrecomputed(EntityId e, const int* routing, const uint64_t* value,
                         const uint64_t* full);

  int m_;
  int nh_;
  Options opts_;
  std::vector<Node> nodes_;
  std::vector<int32_t> leaf_of_;  // entity -> leaf index, -1 if absent
  size_t num_entities_ = 0;
};

}  // namespace dtrace

#endif  // DTRACE_CORE_MIN_SIG_TREE_H_
