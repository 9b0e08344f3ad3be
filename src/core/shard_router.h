#ifndef DTRACE_CORE_SHARD_ROUTER_H_
#define DTRACE_CORE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace dtrace {

/// The shared coarse routing level of a ShardedIndex (DESIGN-sharding.md):
/// one full nh-value level-1 min-signature per shard, computed over the
/// shard's *entire* entity population with the same hash family every shard
/// tree uses. Because the hash family satisfies the parent constraint
/// (hash/cell_hasher.h), a level-1 signature prunes cells at *every* level
/// l >= 1 — so a single coarse level per shard yields a per-query,
/// population-wide admissible upper bound:
///
///   for shard s:  bound_s = UpperBound(q_sizes, remaining_s)
///   remaining_s[l-1] = |{ query cells c at level l :
///                         forall u, h_u(c) >= SIG_s[u] }|
///
/// Any cell failing the test is absent from every member's trace (Theorem 2
/// with the shard as the group), so every member's per-level intersection
/// with the query is capped by remaining_s and bound_s dominates every
/// member's score (the Theorem 4 artificial-entity argument). Every
/// ShardedIndex query hands each shard's signature to its search lane
/// (core/query.h SearchLane), and ForestTopKQuery evaluates the bound off
/// the per-query hash table it already built: the lane's root enters the
/// frontier capped by it, so a shard whose bound the certified k-th score
/// strictly beats is never expanded.
///
/// Maintenance mirrors MinSigTree's convention: inserts and updates
/// min-merge the new entity's level-1 signature in (values only ever
/// drop — still admissible); removals leave values stale low (loose but
/// admissible); Refresh recomputes tight signatures via
/// MinSigTree::CoarseSignature.
///
/// Concurrency (DESIGN-sharding.md "Concurrency model"): router updates
/// publish asynchronously with respect to tree commits — every slot is
/// accessed through std::atomic_ref, Absorb is a per-slot CAS-min, and
/// queries read signatures via SnapshotSignature (a per-query copy, so one
/// bound evaluation never sees a slot change under it). Admissibility under
/// lag is the stale-LOW rule: a value a reader sees early (Absorb runs
/// before the tree commit) or late (after a removal) only LOWERS the
/// signature, which loosens the bound without breaking it. Refresh is the
/// one raising write, and ShardedIndex orders it strictly after the
/// refreshed tree publishes.
class CoarseShardRouter {
 public:
  CoarseShardRouter(int num_shards, int num_functions);

  /// Overwrites shard `s`'s signature (build / Refresh path — the raising
  /// write; see the ordering rule in the class comment). `sig` holds nh
  /// values.
  void SetShardSignature(int s, std::span<const uint64_t> sig);

  /// Min-merges an entity's level-1 signature into shard `s` (insert /
  /// update path). CAS-min per slot: concurrent absorbs compose, and values
  /// only ever drop.
  void Absorb(int s, std::span<const uint64_t> sig);

  /// Stable copy of shard `s`'s signature for one query's lifetime (the
  /// live slots may be lowered by a concurrent writer mid-query).
  std::vector<uint64_t> SnapshotSignature(int s) const;

  /// The live signature slots. Only for callers with no concurrent writer
  /// (tests, serialization); queries use SnapshotSignature.
  std::span<const uint64_t> shard_signature(int s) const {
    return {sigs_.data() + static_cast<size_t>(s) * nh_,
            static_cast<size_t>(nh_)};
  }
  int num_shards() const { return num_shards_; }
  int num_functions() const { return nh_; }

 private:
  /// Relaxed atomic view of slot `i` — a plain vector element accessed via
  /// atomic_ref (8-byte aligned, always lock-free on x86-64/aarch64), so
  /// the router stays movable while its slots are concurrently writable.
  /// Plain relaxed is enough: slots are independent admissible bounds, and
  /// cross-slot ordering is supplied by the tree publication protocol.
  uint64_t LoadSlot(size_t i) const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(sigs_[i]))
        .load(std::memory_order_relaxed);
  }

  int num_shards_;
  int nh_;
  std::vector<uint64_t> sigs_;  // shard-major, nh values each, all-max init
};

}  // namespace dtrace

#endif  // DTRACE_CORE_SHARD_ROUTER_H_
