// Fault-injection and integrity harness for the storage substrate
// (DESIGN-storage.md "Fault model and integrity"): a seed-scheduled
// FaultInjectingDisk replays bit-identically, per-page checksums turn torn
// and bit-flipped pages into bounded retries or clean Corruption statuses,
// sticky-bad tree pages drive the quarantine/repack path, and the fault
// counters (io_retries / checksum_failures / faults_injected /
// pages_quarantined) are exact under a fixed schedule. The differential
// section runs 56 seeded schedules across four cells (trace faults under the
// serial and the concurrent lane schedule, tree faults on a disk shared
// with the trace pages and on per-shard disks) x {compressed,
// uncompressed}: under every schedule every query either bit-matches the
// no-fault oracle or returns a clean non-ok Status with EMPTY items —
// never a crash, never a silently wrong ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/paged_trace_source.h"
#include "storage/sim_disk.h"
#include "util/status.h"

namespace dtrace {
namespace {

// ---------------------------------------------------------------------------
// Disk-level: determinism, torn writes, sticky pages.
// ---------------------------------------------------------------------------

FaultInjectionConfig MixedPlan(uint64_t seed) {
  FaultInjectionConfig cfg;
  cfg.seed = seed;
  cfg.read_error_rate = 0.05;
  cfg.read_flip_rate = 0.05;
  cfg.latency_spike_rate = 0.05;
  cfg.sticky_page_rate = 0.01;
  return cfg;
}

struct Replay {
  std::vector<int> codes;       // Status code per read
  std::vector<uint64_t> sums;   // byte sum of the returned copy
  FaultStats stats;
};

bool operator==(const Replay& a, const Replay& b) {
  return a.codes == b.codes && a.sums == b.sums &&
         a.stats.read_errors == b.stats.read_errors &&
         a.stats.bit_flips == b.stats.bit_flips &&
         a.stats.write_errors == b.stats.write_errors &&
         a.stats.torn_writes == b.stats.torn_writes &&
         a.stats.latency_spikes == b.stats.latency_spikes &&
         a.stats.sticky_reads == b.stats.sticky_reads;
}

Replay RunSchedule(uint64_t seed) {
  FaultInjectingDisk disk(MixedPlan(seed));
  constexpr int kPages = 16;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    const PageId id = disk.Allocate();
    Page p;
    p.data.fill(static_cast<uint8_t>(i + 1));
    EXPECT_TRUE(disk.Write(id, p).ok());  // disarmed: writes are clean
    ids.push_back(id);
  }
  disk.Arm();
  Replay r;
  for (int round = 0; round < 20; ++round) {
    for (PageId id : ids) {
      Page p;
      const Status s = disk.Read(id, &p);
      r.codes.push_back(static_cast<int>(s.code()));
      uint64_t sum = 0;
      if (s.ok()) {
        for (uint8_t b : p.data) sum += b;
      }
      r.sums.push_back(sum);
    }
  }
  r.stats = disk.fault_stats();
  return r;
}

TEST(FaultInjectingDiskTest, SameSeedReplaysBitIdentically) {
  // The whole point of the seed-scheduled design: a fault found in CI
  // reproduces locally from the seed alone — statuses, returned bytes and
  // every fault counter are a pure function of (seed, access sequence).
  const Replay a = RunSchedule(5);
  const Replay b = RunSchedule(5);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.stats.faults_injected(), 0u) << "schedule injected nothing";
  // Latency spikes are delays, not faults.
  EXPECT_EQ(a.stats.faults_injected(),
            a.stats.read_errors + a.stats.bit_flips + a.stats.sticky_reads);
}

TEST(FaultInjectingDiskTest, StartsDisarmedAndInjectsNothing) {
  FaultInjectionConfig cfg;
  cfg.seed = 3;
  cfg.read_error_rate = 1.0;
  FaultInjectingDisk disk(cfg);
  const PageId id = disk.Allocate();
  Page p;
  p.data.fill(0x5a);
  ASSERT_TRUE(disk.Write(id, p).ok());
  Page back;
  ASSERT_TRUE(disk.Read(id, &back).ok());  // not armed: clean
  EXPECT_EQ(back.data, p.data);
  EXPECT_EQ(disk.fault_stats().faults_injected(), 0u);
  disk.Arm();
  EXPECT_FALSE(disk.Read(id, &back).ok());
  disk.Disarm();
  ASSERT_TRUE(disk.Read(id, &back).ok());
  EXPECT_EQ(back.data, p.data);
}

TEST(FaultInjectingDiskTest, TornWriteFailsVerificationForever) {
  FaultInjectionConfig cfg;
  cfg.seed = 7;
  cfg.torn_write_rate = 1.0;
  FaultInjectingDisk disk(cfg);
  const PageId id = disk.Allocate();
  Page p;
  for (size_t i = 0; i < p.data.size(); ++i) {
    p.data[i] = static_cast<uint8_t>(i);
  }
  disk.Arm();
  // The torn write is ACKNOWLEDGED — the writer believes it landed — but
  // only a prefix did, while the sidecar checksum records writer intent.
  ASSERT_TRUE(disk.Write(id, p).ok());
  EXPECT_EQ(disk.fault_stats().torn_writes, 1u);
  Page back;
  ASSERT_TRUE(disk.Read(id, &back).ok());
  EXPECT_NE(back.data, p.data);
  // Every later read sees the same damaged page; the checksum always
  // catches it (the scramble XORs with a nonzero byte by construction).
  EXPECT_FALSE(disk.VerifyPage(id, back));
}

TEST(FaultInjectingDiskTest, StickyPageUnreliableUntilRewritten) {
  FaultInjectionConfig cfg;
  cfg.seed = 11;
  cfg.sticky_page_rate = 1.0;  // every page rolls sticky at first read
  cfg.sticky_onset_reads = 1;  // ... and is bad from birth
  FaultInjectingDisk disk(cfg);
  const PageId id = disk.Allocate();
  Page p;
  p.data.fill(0x33);
  ASSERT_TRUE(disk.Write(id, p).ok());
  disk.Arm();
  Page back;
  ASSERT_TRUE(disk.Read(id, &back).ok());  // read "succeeds"...
  EXPECT_NE(back.data, p.data);            // ...but the copy is corrupt
  EXPECT_FALSE(disk.VerifyPage(id, back));
  EXPECT_GT(disk.fault_stats().sticky_reads, 0u);
  // A write models a sector remap: the page is clean forever after.
  ASSERT_TRUE(disk.Write(id, p).ok());
  ASSERT_TRUE(disk.Read(id, &back).ok());
  EXPECT_EQ(back.data, p.data);
  EXPECT_TRUE(disk.VerifyPage(id, back));
}

TEST(SimDiskAllocateContractTest, SerialAllocateInterleavesWithIo) {
  // Allocate is documented not-thread-safe with in-flight I/O (sim_disk.h)
  // and debug-guarded; strictly serial interleavings are the supported
  // pattern and must never trip the guard.
  SimDisk disk;
  Page p;
  for (int i = 0; i < 8; ++i) {
    const PageId id = disk.Allocate();
    p.data.fill(static_cast<uint8_t>(i));
    ASSERT_TRUE(disk.Write(id, p).ok());
    ASSERT_TRUE(disk.Read(id, &p).ok());
  }
  EXPECT_EQ(disk.num_pages(), 8u);
}

// ---------------------------------------------------------------------------
// Pool-level: checksum gate, bounded retry, exact per-pin outcomes.
// ---------------------------------------------------------------------------

TEST(BufferPoolFaultTest, UnrecoverableCorruptionReturnsExactOutcome) {
  FaultInjectionConfig cfg;
  cfg.seed = 13;
  cfg.torn_write_rate = 1.0;
  FaultInjectingDisk disk(cfg);
  const PageId id = disk.Allocate();
  Page p;
  p.data.fill(0x42);
  disk.Arm();
  ASSERT_TRUE(disk.Write(id, p).ok());  // torn on disk, checksum = intent

  BufferPool pool(&disk, 4);
  const uint8_t* out = nullptr;
  BufferPool::PinOutcome outcome;
  const Status s = pool.Pin(id, &out, &outcome);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_TRUE(outcome.missed);
  // Persistent damage: every one of the bounded attempts read the page and
  // failed verification; retries are attempts beyond the first.
  EXPECT_EQ(outcome.checksum_failures, BufferPool::kMaxIoAttempts);
  EXPECT_EQ(outcome.io_retries, BufferPool::kMaxIoAttempts - 1);
  EXPECT_EQ(outcome.faults_injected, BufferPool::kMaxIoAttempts);
  // The claimed frame was unwound: the failed Pin owes no Unpin and the
  // next Pin starts from scratch (same clean failure, no stale frame).
  BufferPool::PinOutcome again;
  EXPECT_FALSE(pool.Pin(id, &out, &again).ok());
  EXPECT_TRUE(again.missed);

  // With verification off the same torn page loads silently — the gate is
  // exactly the checksum (this is what the perf-smoke leg prices).
  BufferPool blind(&disk, 4, /*num_shards=*/0, /*verify_checksums=*/false);
  BufferPool::PinOutcome blind_outcome;
  ASSERT_TRUE(blind.Pin(id, &out, &blind_outcome).ok());
  EXPECT_EQ(blind_outcome.checksum_failures, 0u);
  blind.Unpin(id);
}

TEST(BufferPoolFaultTest, TransientFaultsRetryToCleanBytesDeterministically) {
  constexpr int kPages = 32;
  auto run = [](uint64_t seed, std::vector<int>* codes,
                BufferPool::PinOutcome* total) {
    FaultInjectionConfig cfg;
    cfg.seed = seed;
    cfg.read_error_rate = 0.4;  // transient: the retry re-rolls
    cfg.read_flip_rate = 0.2;   // in-flight flip: caught, retried
    FaultInjectingDisk disk(cfg);
    std::vector<PageId> ids;
    for (int i = 0; i < kPages; ++i) {
      const PageId id = disk.Allocate();
      Page p;
      p.data.fill(static_cast<uint8_t>(i + 1));
      EXPECT_TRUE(disk.Write(id, p).ok());
      ids.push_back(id);
    }
    disk.Arm();
    BufferPool pool(&disk, kPages);
    for (int i = 0; i < kPages; ++i) {
      const uint8_t* out = nullptr;
      BufferPool::PinOutcome o;
      const Status s = pool.Pin(ids[i], &out, &o);
      codes->push_back(static_cast<int>(s.code()));
      total->io_retries += o.io_retries;
      total->checksum_failures += o.checksum_failures;
      total->faults_injected += o.faults_injected;
      if (s.ok()) {
        // A pin that succeeds after any number of retries serves the TRUE
        // bytes — transient faults never leak corrupt data through an Ok.
        EXPECT_EQ(out[0], static_cast<uint8_t>(i + 1)) << "page " << i;
        EXPECT_EQ(out[kPageSize - 1], static_cast<uint8_t>(i + 1));
        pool.Unpin(ids[i]);
      }
    }
  };
  std::vector<int> codes_a, codes_b;
  BufferPool::PinOutcome sum_a, sum_b;
  run(17, &codes_a, &sum_a);
  run(17, &codes_b, &sum_b);
  // Exactness under a seeded schedule: both runs agree to the counter.
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(sum_a.io_retries, sum_b.io_retries);
  EXPECT_EQ(sum_a.checksum_failures, sum_b.checksum_failures);
  EXPECT_EQ(sum_a.faults_injected, sum_b.faults_injected);
  // At these rates the schedule must both retry and (mostly) recover.
  EXPECT_GT(sum_a.io_retries, 0u);
  EXPECT_GT(std::count(codes_a.begin(), codes_a.end(),
                       static_cast<int>(StatusCode::kOk)),
            0);
}

// ---------------------------------------------------------------------------
// Query-level world shared by the counter and differential sections.
// ---------------------------------------------------------------------------

constexpr int kTopK = 10;
constexpr int kQueriesPerSchedule = 3;

// The shared world's indexes keep in-memory trees: paging only turns on, so
// a test that pages a tree under a fault schedule builds its own index
// (FreshOracle/FreshSharded — the same build, hence the same answers).
struct FaultWorld {
  static constexpr IndexOptions kIndexOptions{.num_functions = 64,
                                              .seed = 17};
  Dataset dataset;
  std::unique_ptr<DigitalTraceIndex> oracle;
  std::unique_ptr<ShardedIndex> sharded;
  std::vector<EntityId> queries;
  std::vector<TopKResult> expected;  // no-fault, in-memory answers

  FaultWorld() : dataset(MakeSynDataset(300, /*seed=*/71)) {
    oracle = FreshOracle();
    sharded = FreshSharded();
    queries = SampleQueries(*dataset.store, kQueriesPerSchedule, /*seed=*/41);
    PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
    for (EntityId q : queries) {
      expected.push_back(oracle->Query(q, kTopK, measure));
    }
  }

  PolynomialLevelMeasure measure() const {
    return PolynomialLevelMeasure(dataset.hierarchy->num_levels());
  }
  std::unique_ptr<DigitalTraceIndex> FreshOracle() const {
    return std::make_unique<DigitalTraceIndex>(
        DigitalTraceIndex::Build(dataset.store, kIndexOptions));
  }
  std::unique_ptr<ShardedIndex> FreshSharded() const {
    return std::make_unique<ShardedIndex>(ShardedIndex::Build(
        dataset.store, {.num_shards = 3, .index = kIndexOptions}));
  }
};

// Paged trees on a private disk whose sticky pages are unreadable from
// birth: every fault is a tree fault, repaired by quarantine and repack.
PagedTreeOptions StickyTree(uint64_t seed) {
  FaultInjectionConfig cfg;
  cfg.seed = seed;
  cfg.sticky_page_rate = 0.05;
  PagedTreeOptions topts;
  topts.backing = PagedTreeOptions::Backing::kSimDisk;
  topts.disk.pool_fraction = 0.5;
  topts.disk.faults = cfg;
  return topts;
}

FaultWorld& World() {
  static FaultWorld* world = new FaultWorld();
  return *world;
}

struct Tally {
  int ok = 0;
  int errored = 0;
  uint64_t quarantined = 0;
};

// The differential contract: under faults a query either reproduces the
// no-fault oracle bit for bit, or reports a clean error with EMPTY items —
// a partial or divergent ranking under an Ok status is the one forbidden
// outcome.
void CheckResult(const TopKResult& expected, const TopKResult& actual,
                 Tally* tally, const char* what, uint64_t seed) {
  tally->quarantined += actual.stats.pages_quarantined;
  if (!actual.status.ok()) {
    ++tally->errored;
    EXPECT_TRUE(actual.items.empty())
        << what << " seed " << seed << ": error with non-empty items";
    return;
  }
  ++tally->ok;
  ASSERT_EQ(expected.items.size(), actual.items.size())
      << what << " seed " << seed;
  for (size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].entity, actual.items[i].entity)
        << what << " seed " << seed << " rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score)
        << what << " seed " << seed << " rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Counter exactness through the full query path and the shard merge.
// ---------------------------------------------------------------------------

TEST(FaultCountersTest, PerQueryCountersExactAndDiskConsistent) {
  FaultWorld& w = World();
  auto run = [&](std::vector<std::vector<uint64_t>>* counters,
                 FaultStats* disk_stats) {
    PagedTraceSource::Options o;
    o.pool_fraction = 0.4;
    o.faults = MixedPlan(/*seed=*/23);
    PagedTraceSource src(*w.dataset.store, o);
    ASSERT_NE(src.fault_disk(), nullptr);
    QueryOptions qopts;
    qopts.trace_source = &src;
    uint64_t query_faults = 0;
    for (EntityId q : w.queries) {
      const TopKResult r = w.oracle->Query(q, kTopK, w.measure(), qopts);
      counters->push_back({r.stats.io.io_retries, r.stats.io.checksum_failures,
                           r.stats.io.faults_injected,
                           static_cast<uint64_t>(r.status.code())});
      query_faults += r.stats.io.faults_injected;
    }
    *disk_stats = src.fault_disk()->fault_stats();
    // Serial queries through one cursor each: every fault the disk injected
    // was observed by exactly one accounted pin, so the per-query sums must
    // reconcile with the disk's own ledger EXACTLY.
    EXPECT_EQ(query_faults, disk_stats->faults_injected());
  };
  std::vector<std::vector<uint64_t>> a, b;
  FaultStats da, db;
  run(&a, &da);
  run(&b, &db);
  EXPECT_EQ(a, b) << "seeded schedule must replay to the exact counter";
  EXPECT_EQ(da.faults_injected(), db.faults_injected());
  EXPECT_GT(da.faults_injected(), 0u);
}

TEST(FaultCountersTest, MergeShardTopKSumsFaultCountersAcrossShards) {
  FaultWorld& w = World();
  PagedTraceSource::Options o;
  o.pool_fraction = 0.4;
  o.faults = MixedPlan(/*seed=*/29);
  PagedTraceSource src(*w.dataset.store, o);
  QueryOptions qopts;
  qopts.trace_source = &src;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    src.ResetStats();
    const TopKResult merged = w.sharded->Query(w.queries[i], kTopK,
                                               w.measure(), qopts,
                                               /*shard_threads=*/1);
    // The serial fan-out is the only reader: the merged (summed-over-shards)
    // per-query counter must equal the disk's delta for this query.
    EXPECT_EQ(merged.stats.io.faults_injected,
              src.fault_disk()->fault_stats().faults_injected());
    Tally t;
    CheckResult(w.expected[i], merged, &t, "merge", 29);
  }
}

// ---------------------------------------------------------------------------
// Quarantine and repack: unrecoverable tree pages are replaced from the
// in-memory tree and the query retried once.
// ---------------------------------------------------------------------------

TEST(FaultQuarantineTest, CorruptTreePagesQuarantineRepackAndRecover) {
  FaultWorld& w = World();
  // One index, re-enabled onto each seed's fault schedule in turn.
  const auto index = w.FreshOracle();
  bool saw_quarantine = false;
  bool saw_repair = false;  // Ok answer after a quarantine + repack
  for (uint64_t seed = 100; seed < 140; ++seed) {
    index->EnablePagedTree(StickyTree(seed));
    for (size_t i = 0; i < w.queries.size(); ++i) {
      const TopKResult r = index->Query(w.queries[i], kTopK, w.measure());
      Tally t;
      CheckResult(w.expected[i], r, &t, "quarantine", seed);
      if (r.stats.pages_quarantined > 0) {
        saw_quarantine = true;
        if (r.status.ok()) saw_repair = true;
      }
      // An error on the pure tree path means corrupt pages were observed
      // and quarantined before the (failed) retry — never a silent miss.
      if (!r.status.ok()) {
        EXPECT_GT(r.stats.pages_quarantined, 0u) << "seed " << seed;
      }
    }
  }
  EXPECT_TRUE(saw_quarantine) << "no schedule ever tripped the quarantine";
  EXPECT_TRUE(saw_repair) << "no quarantined query ever recovered";

  // The same schedules through QueryMany: a batch entry is a Query call,
  // so it quarantines, repacks and retries exactly like the loop above.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("QueryMany threads=" + std::to_string(threads));
    bool saw_batch_repair = false;
    for (uint64_t seed = 100; seed < 140; ++seed) {
      index->EnablePagedTree(StickyTree(seed));
      const std::vector<TopKResult> batch =
          index->QueryMany(w.queries, kTopK, w.measure(), {}, threads);
      for (size_t i = 0; i < w.queries.size(); ++i) {
        const TopKResult& r = batch[i];
        Tally t;
        CheckResult(w.expected[i], r, &t, "QueryMany quarantine", seed);
        if (r.stats.pages_quarantined > 0 && r.status.ok()) {
          saw_batch_repair = true;
        }
        if (!r.status.ok()) {
          EXPECT_GT(r.stats.pages_quarantined, 0u) << "seed " << seed;
        }
      }
    }
    EXPECT_TRUE(saw_batch_repair) << "no quarantined batch query recovered";
  }
}

TEST(FaultQuarantineTest, EveryQueryFailedOnADamagedSnapshotRetries) {
  // Queries A and B fail on the same damaged snapshot, and B's repair
  // retires it first. A must still be told that pages were quarantined, so
  // its caller re-pins the repaired snapshot and retries — the count is the
  // snapshot's, not a token the first asker drains.
  FaultWorld& w = World();
  const auto index = w.FreshOracle();
  bool exercised = false;
  for (uint64_t seed = 100; seed < 140 && !exercised; ++seed) {
    index->EnablePagedTree(StickyTree(seed));
    for (size_t i = 0; i < w.queries.size() && !exercised; ++i) {
      const auto search = [&](const DigitalTraceIndex::ReadPin& pin) {
        const SearchLane lane{&pin.tree(), pin.version()};
        return ForestTopKQuery({&lane, 1}, *w.dataset.store, index->hasher(),
                               w.measure(), w.queries[i], kTopK,
                               {.trace_as_of = pin.version()});
      };
      uint64_t quarantined = 0;
      {
        const DigitalTraceIndex::ReadPin a = index->PinForRead();
        const DigitalTraceIndex::ReadPin b = index->PinForRead();
        ASSERT_EQ(a.snapshot(), b.snapshot());
        if (search(a).status.ok() || search(b).status.ok()) continue;
        exercised = true;
        EXPECT_GT(index->QuarantineDamagedPages(b), 0u);
        EXPECT_NE(index->PinForRead().snapshot(), a.snapshot())
            << "B's repair must retire the damaged snapshot";
        quarantined = index->QuarantineDamagedPages(a);
        EXPECT_GT(quarantined, 0u) << "A was not told to retry, seed " << seed;
      }
      // A's caller drops its pin, re-pins and retries, as Query does.
      if (quarantined == 0) continue;
      TopKResult retry = search(index->PinForRead());
      retry.stats.pages_quarantined += quarantined;
      Tally t;
      CheckResult(w.expected[i], retry, &t, "retry after B's repair", seed);
    }
  }
  EXPECT_TRUE(exercised) << "no schedule failed a search on a damaged tree";
}

TEST(FaultQuarantineTest, ShardedLanesQuarantineRepackAndRecover) {
  // The same sticky-page schedules under per-shard paged trees, through
  // ShardedIndex's search lanes under both schedules: a query that hits a
  // damaged tree page quarantines it in the owning shard, re-pins every
  // lane and retries — recovering like the single index above.
  FaultWorld& w = World();
  const auto sharded = w.FreshSharded();
  for (const int shard_threads : {1, 4}) {
    SCOPED_TRACE("shard_threads=" + std::to_string(shard_threads));
    Tally tally;
    bool saw_repair = false;  // Ok answer after a quarantine + repack
    for (uint64_t seed = 100; seed < 140; ++seed) {
      sharded->EnablePagedTrees(StickyTree(seed));
      for (size_t i = 0; i < w.queries.size(); ++i) {
        const TopKResult r = sharded->Query(w.queries[i], kTopK, w.measure(),
                                            {}, shard_threads);
        CheckResult(w.expected[i], r, &tally, "sharded quarantine", seed);
        if (r.stats.pages_quarantined > 0 && r.status.ok()) saw_repair = true;
      }
    }
    EXPECT_GT(tally.quarantined, 0u) << "no lane ever quarantined a page";
    EXPECT_TRUE(saw_repair) << "no quarantined sharded query ever recovered";
  }
}

// ---------------------------------------------------------------------------
// The differential harness proper: 56 seeded schedules across four cells x
// {compressed, uncompressed}.
// ---------------------------------------------------------------------------

constexpr uint64_t kSeedsPerCell = 7;

// Trace-side faults, one source shared by every lane of the sharded query
// (QueryOptions::trace_source). With shard_threads > 1 the lane groups'
// cursors read the faulty pool concurrently.
Tally RunTraceShared(FaultWorld& w, bool compress, uint64_t base_seed,
                     int shard_threads) {
  Tally tally;
  for (uint64_t s = 0; s < kSeedsPerCell; ++s) {
    PagedTraceSource::Options o;
    o.pool_fraction = 0.4;
    o.compress = compress;
    o.faults = MixedPlan(base_seed + s);
    PagedTraceSource src(*w.dataset.store, o);
    QueryOptions qopts;
    qopts.trace_source = &src;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      CheckResult(w.expected[i],
                  w.sharded->Query(w.queries[i], kTopK, w.measure(), qopts,
                                   shard_threads),
                  &tally, "trace-shared", base_seed + s);
    }
    EXPECT_GT(src.fault_disk()->fault_stats().latency_spikes +
                  src.fault_disk()->fault_stats().faults_injected(),
              0u);
  }
  return tally;
}

// Tree pages co-located with a faulted trace source: shared disk, shared
// pool, one fault schedule over BOTH working sets. This also exercises the
// disarm-during-pack / rearm-at-finalize handshake and shared-mode repack.
Tally RunTreeShared(FaultWorld& w, bool compress, uint64_t base_seed) {
  Tally tally;
  for (uint64_t s = 0; s < kSeedsPerCell; ++s) {
    FaultInjectionConfig cfg = MixedPlan(base_seed + s);
    cfg.sticky_page_rate = 0.02;
    PagedTraceSource::Options o;
    o.pool_fraction = 0.6;
    o.compress = compress;
    o.faults = cfg;
    PagedTraceSource src(*w.dataset.store, o);
    // Declared after `src`, so the index (and its snapshot on src's disk)
    // goes first.
    const auto index = w.FreshOracle();
    PagedTreeOptions topts;
    topts.compress = compress;
    topts.shared_disk = src.disk();
    topts.shared_pool = src.pool();
    index->EnablePagedTree(topts);
    QueryOptions qopts;
    qopts.trace_source = &src;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      CheckResult(w.expected[i],
                  index->Query(w.queries[i], kTopK, w.measure(), qopts),
                  &tally, "tree-shared", base_seed + s);
    }
  }
  return tally;
}

// Per-shard paged trees on private fault disks (trace stays in memory, so
// every fault is a tree fault and the quarantine path owns recovery).
Tally RunTreePerShard(FaultWorld& w, bool compress, uint64_t base_seed) {
  Tally tally;
  const auto sharded = w.FreshSharded();
  for (uint64_t s = 0; s < kSeedsPerCell; ++s) {
    FaultInjectionConfig cfg = MixedPlan(base_seed + s);
    cfg.sticky_page_rate = 0.02;
    PagedTreeOptions topts;
    topts.backing = PagedTreeOptions::Backing::kSimDisk;
    topts.compress = compress;
    topts.disk.pool_fraction = 0.5;
    topts.disk.faults = cfg;
    sharded->EnablePagedTrees(topts);
    for (size_t i = 0; i < w.queries.size(); ++i) {
      CheckResult(w.expected[i],
                  sharded->Query(w.queries[i], kTopK, w.measure()), &tally,
                  "tree-per-shard", base_seed + s);
    }
  }
  return tally;
}

TEST(FaultDifferentialTest, TraceSharedPool) {
  FaultWorld& w = World();
  Tally unc = RunTraceShared(w, /*compress=*/false, 1000, /*shard_threads=*/1);
  Tally com = RunTraceShared(w, /*compress=*/true, 2000, /*shard_threads=*/1);
  // The harness must not be vacuous: most schedules answer (bit-matching
  // the oracle), and the error path is allowed but never mandatory here.
  EXPECT_GT(unc.ok, 0);
  EXPECT_GT(com.ok, 0);
}

TEST(FaultDifferentialTest, TraceSharedPoolConcurrentLanes) {
  FaultWorld& w = World();
  Tally unc = RunTraceShared(w, /*compress=*/false, 3000, /*shard_threads=*/3);
  Tally com = RunTraceShared(w, /*compress=*/true, 4000, /*shard_threads=*/3);
  EXPECT_GT(unc.ok, 0);
  EXPECT_GT(com.ok, 0);
}

TEST(FaultDifferentialTest, TreeSharedDiskAndPool) {
  FaultWorld& w = World();
  Tally unc = RunTreeShared(w, /*compress=*/false, 5000);
  Tally com = RunTreeShared(w, /*compress=*/true, 6000);
  EXPECT_GT(unc.ok, 0);
  EXPECT_GT(com.ok, 0);
}

TEST(FaultDifferentialTest, TreePerShardDisks) {
  FaultWorld& w = World();
  Tally unc = RunTreePerShard(w, /*compress=*/false, 7000);
  Tally com = RunTreePerShard(w, /*compress=*/true, 8000);
  EXPECT_GT(unc.ok, 0);
  EXPECT_GT(com.ok, 0);
}

// ---------------------------------------------------------------------------
// Concurrency leg: the fault/retry paths under a multi-threaded QueryMany
// batch. (Also a TSan target — labeled "concurrency" in tests/CMakeLists.txt.)
// ---------------------------------------------------------------------------

TEST(FaultConcurrencyTest, ConcurrentQueryManyNeverDivergesSilently) {
  FaultWorld& w = World();
  PagedTraceSource::Options o;
  o.pool_fraction = 0.4;
  o.faults = MixedPlan(/*seed=*/777);
  PagedTraceSource src(*w.dataset.store, o);
  QueryOptions qopts;
  qopts.trace_source = &src;
  // A wider batch (queries repeated) so 4 workers genuinely overlap on the
  // shared pool's retry and frame-unwind paths.
  std::vector<EntityId> batch;
  for (int rep = 0; rep < 6; ++rep) {
    batch.insert(batch.end(), w.queries.begin(), w.queries.end());
  }
  const auto results =
      w.sharded->QueryMany(batch, kTopK, w.measure(), qopts, /*threads=*/4);
  ASSERT_EQ(results.size(), batch.size());
  Tally tally;
  for (size_t i = 0; i < results.size(); ++i) {
    CheckResult(w.expected[i % w.queries.size()], results[i], &tally,
                "query-many", 777);
  }
  EXPECT_GT(tally.ok, 0);
}

}  // namespace
}  // namespace dtrace
