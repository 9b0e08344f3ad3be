#include "core/index.h"

#include <numeric>
#include <utility>

#include "hash/exact_hasher.h"
#include "hash/hierarchical_hasher.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dtrace {

DigitalTraceIndex::Coordination::~Coordination() {
  // The final snapshot dies with the index, which may legally outlive the
  // shared disk/pool it was packed onto — suppress its page reclaim.
  if (head != nullptr) head->AbandonBacking();
}

DigitalTraceIndex::DigitalTraceIndex(std::shared_ptr<TraceStore> store,
                                     IndexOptions options,
                                     std::unique_ptr<CellHasher> hasher,
                                     MinSigTree tree, double build_seconds)
    : store_(std::move(store)),
      options_(options),
      hasher_(std::move(hasher)),
      sigs_(*store_, *hasher_),
      tree_(std::move(tree)),
      cc_(std::make_unique<Coordination>()),
      build_seconds_(build_seconds) {}

DigitalTraceIndex DigitalTraceIndex::Build(
    std::shared_ptr<TraceStore> store, IndexOptions options,
    std::optional<std::vector<EntityId>> entities) {
  DT_CHECK(store != nullptr);
  DT_CHECK(options.num_functions > 0);
  Timer timer;
  std::unique_ptr<CellHasher> hasher;
  switch (options.hasher) {
    case IndexOptions::Hasher::kHierarchical:
      hasher = std::make_unique<HierarchicalMinHasher>(
          store->hierarchy(), store->horizon(), options.num_functions,
          options.seed);
      break;
    case IndexOptions::Hasher::kExact:
      hasher = std::make_unique<ExactMinHasher>(
          store->hierarchy(), options.num_functions, options.seed);
      break;
  }
  std::vector<EntityId> ids;
  if (entities.has_value()) {
    ids = std::move(*entities);
  } else {
    ids.resize(store->num_entities());
    std::iota(ids.begin(), ids.end(), 0);
  }
  SignatureComputer sigs(*store, *hasher);
  MinSigTree tree = MinSigTree::Build(
      sigs, ids,
      {.store_full_signatures = options.store_full_signatures,
       .num_threads = options.num_threads});
  const double secs = timer.ElapsedSeconds();
  return DigitalTraceIndex(std::move(store), options, std::move(hasher),
                           std::move(tree), secs);
}

const TraceSource& DigitalTraceIndex::PickSource(const QueryOptions& options,
                                                 const TraceStore& store) {
  if (options.trace_source == nullptr) return store;
  DT_CHECK_MSG(options.trace_source->num_entities() == store.num_entities(),
               "trace_source describes a different dataset");
  return *options.trace_source;
}

DigitalTraceIndex::ReadPin DigitalTraceIndex::PinForRead() const {
  {
    const std::lock_guard<std::mutex> lock(cc_->head_mu);
    if (cc_->head != nullptr) {
      // (head, version) are published together under head_mu, so the pair
      // read here is consistent: the pin's version IS the snapshot's epoch.
      return ReadPin(cc_->head,
                     cc_->version.load(std::memory_order_relaxed));
    }
  }
  cc_->latch.LockRead();
  // Paged mode may have been enabled between the head check and the latch
  // acquisition. The in-memory tree is authoritative either way, and the
  // read latch excludes commits, so searching it here stays correct — the
  // version read below is stable for the pin's whole lifetime.
  return ReadPin(&tree_, &cc_->latch,
                 cc_->version.load(std::memory_order_acquire));
}

void DigitalTraceIndex::PackAndPublishLocked(bool repack) const {
  // Freeze the tree (shared — paged-mode readers take no latch, so this
  // blocks only commits) while it is packed.
  RWLatch::ReadGuard tree_guard(cc_->latch);
  const uint64_t revision = cc_->revision.load(std::memory_order_acquire);
  if (repack && cc_->paged_options.shared_disk == nullptr &&
      cc_->paged_options.disk.faults.has_value()) {
    // A repack onto a PRIVATE fault disk rebuilds the disk itself, and page
    // ids restart at zero — with an unchanged seed the schedule would
    // replay the original damage onto the replacement pages and a
    // quarantine retry could never succeed. Advancing the seed models what
    // a repack means physically (fresh sectors on the same faulty device,
    // like the shared-disk mode's genuinely new page ids) while keeping
    // every run a pure function of the original seed.
    cc_->paged_options.disk.faults->seed =
        cc_->paged_options.disk.faults->seed * 0x9e3779b97f4a7c15ull + 1;
  }
  auto snapshot = std::make_shared<const PagedMinSigTree>(
      PagedMinSigTree::Pack(tree_, cc_->paged_options));
  {
    const std::lock_guard<std::mutex> lock(cc_->head_mu);
    cc_->head = std::move(snapshot);
    cc_->version.store(revision, std::memory_order_relaxed);
  }
  cc_->packed_revision = revision;
  if (repack) cc_->snapshot_publishes.fetch_add(1, std::memory_order_relaxed);
}

uint64_t DigitalTraceIndex::QuarantineDamagedPages(const ReadPin& pin) const {
  const PagedMinSigTree* damaged = pin.snapshot();
  if (damaged == nullptr) return 0;
  const uint64_t quarantined = damaged->CorruptObserved();
  if (quarantined == 0) return 0;
  const std::lock_guard<std::mutex> pack(cc_->pack_mu);
  {
    const std::lock_guard<std::mutex> lock(cc_->head_mu);
    // A concurrent publish (maintenance commit, or another reader's repair)
    // already retired the damaged snapshot — its replacement is fresh.
    if (cc_->head.get() != damaged) return quarantined;
  }
  PackAndPublishLocked(/*repack=*/true);
  return quarantined;
}

void DigitalTraceIndex::CommitMutation(const std::function<void()>& mutate) {
  {
    RWLatch::WriteGuard write(cc_->latch);
    mutate();
    const uint64_t revision =
        cc_->revision.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (!cc_->paged_enabled.load(std::memory_order_relaxed)) {
      // In-memory mode commits at latch release: bump the visible version
      // while still exclusive, so the first reader in sees it.
      const std::lock_guard<std::mutex> lock(cc_->head_mu);
      cc_->version.store(revision, std::memory_order_relaxed);
    }
  }
  // Paged mode commits at publication: readers keep draining on the old
  // snapshot while this packs, and the head swap is atomic under head_mu.
  if (!cc_->paged_enabled.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> pack(cc_->pack_mu);
  // Skip when a racing commit's publish already packed this revision in
  // (revision only grows, and any commit after this read publishes for
  // itself).
  if (cc_->revision.load(std::memory_order_acquire) != cc_->packed_revision) {
    PackAndPublishLocked(/*repack=*/true);
  }
}

void DigitalTraceIndex::EnablePagedTree(const PagedTreeOptions& options) {
  DT_CHECK_MSG(!options_.store_full_signatures,
               "paged tree does not support full-signature mode");
  const std::lock_guard<std::mutex> pack(cc_->pack_mu);
  cc_->paged_options = options;
  PackAndPublishLocked(/*repack=*/false);
  cc_->paged_enabled.store(true, std::memory_order_release);
}

const PagedMinSigTree& DigitalTraceIndex::paged_tree() const {
  const std::lock_guard<std::mutex> lock(cc_->head_mu);
  DT_CHECK(cc_->head != nullptr);
  return *cc_->head;
}

std::vector<uint64_t> DigitalTraceIndex::CoarseSignature(Level level) const {
  const RWLatch::ReadGuard guard(cc_->latch);
  std::vector<uint64_t> sig(
      static_cast<size_t>(hasher_->num_functions()));
  tree_.CoarseSignature(sigs_, level, sig);
  return sig;
}

DigitalTraceIndex::ConcurrencyStats DigitalTraceIndex::concurrency_stats()
    const {
  ConcurrencyStats stats;
  stats.snapshot_publishes =
      cc_->snapshot_publishes.load(std::memory_order_relaxed);
  stats.reader_blocked_ns = cc_->latch.reader_blocked_ns();
  stats.writer_blocked_ns = cc_->latch.writer_blocked_ns();
  return stats;
}

TopKResult DigitalTraceIndex::Query(EntityId q, int k,
                                    const AssociationMeasure& measure,
                                    const QueryOptions& options) const {
  const auto search = [&](const ReadPin& pin) {
    // Read traces as of the pin: a ReplaceEntity commit landing after the
    // pin must not leak its new trace into a search walking the old tree.
    QueryOptions pinned = options;
    pinned.trace_as_of = pin.version();
    const SearchLane lane{&pin.tree(), /*coarse_sig=*/{}, pin.version()};
    return ForestTopKQuery({&lane, 1}, PickSource(options, *store_),
                           *hasher_, measure, q, k, pinned);
  };
  uint64_t quarantined = 0;
  {
    const ReadPin pin = PinForRead();
    TopKResult result = search(pin);
    if (result.status.ok()) return result;
    quarantined = QuarantineDamagedPages(pin);
    if (quarantined == 0) return result;
  }  // drop the damaged pin so the retry re-pins the repaired snapshot
  // The retry is single-shot: if the fault schedule damages the fresh pages
  // too (e.g. a sticky-read page among the new allocations), the clean
  // error surfaces to the caller.
  TopKResult retry = search(PinForRead());
  retry.stats.pages_quarantined += quarantined;
  return retry;
}

TopKResult DigitalTraceIndex::BruteForce(EntityId q, int k,
                                         const AssociationMeasure& measure,
                                         const QueryOptions& options) const {
  const ReadPin pin = PinForRead();
  QueryOptions pinned = options;
  pinned.trace_as_of = pin.version();
  return BruteForceTopK(pin.tree(), PickSource(options, *store_), measure, q,
                        k, pinned);
}

std::vector<TopKResult> DigitalTraceIndex::QueryMany(
    std::span<const EntityId> queries, int k,
    const AssociationMeasure& measure, const QueryOptions& options,
    int num_threads) const {
  // Queries are independent; each worker fills disjoint position-indexed
  // slots, so the output order (and every result) matches the serial run.
  // Each Query pins its own view (and repairs damaged pages like a lone
  // call): without concurrent writers every pin is the same state; with
  // them, commits land between individual queries, never inside one — and
  // in in-memory mode per-query pins keep writers from starving behind a
  // long batch.
  std::vector<TopKResult> results(queries.size());
  ParallelForEach(num_threads, queries.size(), [&](size_t i) {
    results[i] = Query(queries[i], k, measure, options);
  });
  return results;
}

void DigitalTraceIndex::InsertEntity(EntityId e) {
  CommitMutation([&] { tree_.Insert(e, sigs_); });
}

void DigitalTraceIndex::InsertEntities(std::span<const EntityId> entities) {
  CommitMutation([&] { tree_.InsertBatch(entities, sigs_); });
}

void DigitalTraceIndex::UpdateEntity(EntityId e) {
  CommitMutation([&] { tree_.Update(e, sigs_); });
}

void DigitalTraceIndex::ReplaceEntity(
    EntityId e, const std::vector<PresenceRecord>& records) {
  CommitMutation([&] {
    // Stamp the override with the version this commit publishes (revision
    // has not been bumped yet inside the mutate step — the commit point
    // publishes revision + 1). Readers pinned at or above it resolve the
    // new trace; older pins keep the previous one.
    store_->ReplaceEntityAt(
        e, records, cc_->revision.load(std::memory_order_relaxed) + 1);
    // The tree update recomputes e's signatures from the store at latest —
    // which now includes the override — so tree and trace flip together.
    if (tree_.Contains(e)) tree_.Update(e, sigs_);
  });
}

void DigitalTraceIndex::RemoveEntity(EntityId e) {
  CommitMutation([&] { tree_.Remove(e); });
}

void DigitalTraceIndex::Refresh() {
  CommitMutation([&] { tree_.RefreshValues(sigs_); });
}

}  // namespace dtrace
