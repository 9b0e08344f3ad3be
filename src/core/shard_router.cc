#include "core/shard_router.h"

#include "util/check.h"

namespace dtrace {

CoarseShardRouter::CoarseShardRouter(int num_shards, int num_functions)
    : num_shards_(num_shards), nh_(num_functions) {
  DT_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1");
  DT_CHECK_MSG(num_functions > 0, "num_functions must be positive");
  // All-max: the empty-shard signature prunes every cell, so an empty
  // shard's bound is the measure's zero-intersection score — matching the
  // SignatureList convention for empty populations.
  sigs_.assign(static_cast<size_t>(num_shards) * nh_, ~uint64_t{0});
}

void CoarseShardRouter::SetShardSignature(int s,
                                          std::span<const uint64_t> sig) {
  DT_CHECK(s >= 0 && s < num_shards_);
  DT_CHECK(static_cast<int>(sig.size()) == nh_);
  uint64_t* dst = sigs_.data() + static_cast<size_t>(s) * nh_;
  for (int u = 0; u < nh_; ++u) {
    std::atomic_ref<uint64_t>(dst[u]).store(sig[u],
                                            std::memory_order_relaxed);
  }
}

void CoarseShardRouter::Absorb(int s, std::span<const uint64_t> sig) {
  DT_CHECK(s >= 0 && s < num_shards_);
  DT_CHECK(static_cast<int>(sig.size()) == nh_);
  uint64_t* dst = sigs_.data() + static_cast<size_t>(s) * nh_;
  for (int u = 0; u < nh_; ++u) {
    // CAS-min: concurrent absorbs compose (min is commutative/idempotent),
    // and a slot only ever drops outside Refresh's SetShardSignature.
    std::atomic_ref<uint64_t> slot(dst[u]);
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (sig[u] < cur &&
           !slot.compare_exchange_weak(cur, sig[u],
                                       std::memory_order_relaxed)) {
    }
  }
}

std::vector<uint64_t> CoarseShardRouter::SnapshotSignature(int s) const {
  DT_CHECK(s >= 0 && s < num_shards_);
  std::vector<uint64_t> out(static_cast<size_t>(nh_));
  const size_t base = static_cast<size_t>(s) * nh_;
  for (int u = 0; u < nh_; ++u) out[u] = LoadSlot(base + u);
  return out;
}

}  // namespace dtrace
