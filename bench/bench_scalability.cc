// Scalability (Sec. 6.4): PE should be independent of data volume (|E| and
// C), indexing time linear in |E|, and query time linear in |E| at fixed PE.
//
// Two modes:
//   bench_scalability                 — the in-memory |E| sweep (default)
//   bench_scalability --disk [|E|] [--workers N] [--prefetch D] [--shards S]
//                     [--compress] [--no-checksums] [--queries Q]
//                     [--writer-threads W]
//       — the disk-resident preset: traces an order of magnitude past the
//       laptop presets, served from the paged storage substrate through
//       PagedTraceSource (sharded buffer pool, 25% of the data in memory),
//       queries batched through QueryMany on N workers (0 = auto) with a
//       leaf-prefetch lookahead of D records (0 = off). With --shards S > 1
//       the index is a ShardedIndex: S MinSigTrees over a stable-hash
//       entity partition, each query one forest walk over per-shard lanes
//       (DESIGN-sharding.md) — bit-identical answers
//       (tests/sharded_differential_test.cc), measured here for throughput.
//       --compress stores the trace pages delta-packed (util/codec.h):
//       fewer pages for the same pool fraction, bit-identical answers,
//       and compressed_bytes/raw_bytes counters in the JSON emission.
//       --no-checksums disables page-checksum verification on frame loads
//       (DESIGN-storage.md "Fault model and integrity") — the checksums-off
//       leg of CI's integrity-overhead gate; answers stay identical, the
//       "checksums" row field records which leg a row is. --queries Q sets
//       the batch size (default 8) — the tight same-run gates (checksums,
//       compression) use a larger batch so wall-clock qps is stable enough
//       for a 5% floor. --writer-threads W > 0 is the MIXED leg: W churn
//       threads remove/re-insert entities (through the epoch-versioned
//       commit path, with paged tree snapshots enabled so every commit
//       really packs and publishes) while the timed QueryMany runs — the
//       reads-during-writes configuration. Emits snapshot_publishes,
//       reader_blocked_ns, writer_blocked_ns and writer_ops counters
//       (informational in check_regression.py).
//       Registered with CTest so the concurrent storage-backed path is
//       exercised at scale on every run (plus a Release-only 100K x
//       4-shard preset). Emits a "counters" section
//       (lock_wait_seconds, prefetch_hits, shards_pruned, ...) alongside
//       the rows.
//   bench_scalability --snapshot [|E|] [--workers N] [--shards S]
//                     [--compress]
//       — the crash-safe persistence preset (DESIGN-storage.md "Snapshot
//       format and recovery protocol"): builds the index (a ShardedIndex
//       with --shards S > 1), saves a versioned snapshot, loads it back,
//       and times a QueryMany batch on the LOADED index. Emits
//       snapshot_save_seconds / restart_seconds / snapshot_bytes counters
//       (informational in check_regression.py) next to the post-load
//       queries_per_sec row that CI's perf-smoke job gates — restart must
//       stay build-free fast, and a restored index must not query slower
//       than a freshly built one. Load-vs-fresh bit-identity itself is the
//       differential harness's job (tests/snapshot_persistence_test.cc);
//       this preset spot-checks it on the batch before timing.
//   bench_scalability --paged-tree [|E|] [--workers N] [--pool-fraction F]
//                     [--compress]
//       — the paged-MinSigTree preset: the TREE (not the traces) lives in
//       SoA node pages behind a SimDisk-backed BufferPool capped at F of
//       the packed index size, so the search faults node pages while the
//       resident zone maps absorb part of the traffic. Spot-checks
//       bit-identity against the in-memory tree before timing. The small
//       20K leg runs under CTest; CI's perf-smoke job runs the 1M-entity
//       preset and gates it against bench/baselines/.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "core/sharded_index.h"
#include "storage/paged_trace_source.h"
#include "storage/snapshot.h"

namespace dtrace::bench {
namespace {

void Run(BenchJson& json) {
  PrintHeader("Scalability (Sec. 6.4)", "PE and cost vs |E|");
  TablePrinter t({"|E|", "PE (k=10)", "mean query (ms)", "mean checked",
                  "index time (s)", "tree nodes"});
  for (uint32_t entities : {1000u, 2000u, 4000u, 8000u}) {
    Dataset d = MakeSynDataset(entities, /*seed=*/41);
    // num_threads = 1 keeps the reported index time machine-independent.
    const auto index =
        DigitalTraceIndex::Build(
            d.store, {.num_functions = 800, .seed = 41, .num_threads = 1});
    PolynomialLevelMeasure measure(d.hierarchy->num_levels());
    const auto queries = SampleQueries(*d.store, 12, 808);
    const auto pe = MeasurePe(index, measure, queries, 10);
    const double mean_query_seconds = pe.PerQuery(pe.total.elapsed_seconds);
    const double mean_checked = pe.PerQuery(pe.total.entities_checked);
    t.AddRow({std::to_string(entities), TablePrinter::Fmt(pe.mean_pe, 4),
              TablePrinter::Fmt(mean_query_seconds * 1e3, 2),
              TablePrinter::Fmt(mean_checked, 1),
              TablePrinter::Fmt(index.build_seconds(), 2),
              TablePrinter::Fmt(static_cast<uint64_t>(index.tree().num_nodes()))});
    json.AddRow()
        .Str("mode", "memory")
        .Int("entities", entities)
        .Num("pe", pe.mean_pe)
        .Num("queries_per_sec",
             mean_query_seconds > 0 ? 1.0 / mean_query_seconds : 0.0)
        .Num("mean_entities_checked", mean_checked)
        .Int("pages_read", 0)
        .Num("hit_rate", 0.0)
        .Num("index_seconds", index.build_seconds());
  }
  t.Print();
}

void RunDisk(uint32_t entities, int workers, int prefetch, int shards,
             bool compress, bool verify_checksums, size_t num_queries,
             int writer_threads, BenchJson& json) {
  PrintHeader("Scalability (disk-resident)",
              "storage-backed queries past the laptop presets");
  Dataset d = MakeDiskResidentDataset(entities);
  const IndexOptions iopts =
      PresetIndexOptions(/*num_functions=*/200, /*num_threads=*/0);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, num_queries, 909);

  // One index or a sharded fleet of them; queries run through the same
  // QueryMany surface either way and answers are bit-identical.
  double index_seconds = 0.0;
  std::optional<DigitalTraceIndex> index;
  std::optional<ShardedIndex> sharded;
  size_t indexed_entities = 0;
  if (shards > 1) {
    sharded = ShardedIndex::Build(d.store,
                                  {.num_shards = shards, .index = iopts});
    index_seconds = sharded->build_seconds();
    indexed_entities = sharded->num_entities();
  } else {
    index = DigitalTraceIndex::Build(d.store, iopts);
    index_seconds = index->build_seconds();
    indexed_entities = index->tree().num_entities();
  }

  // Default (SSD-class) latencies; a quarter of the data fits in memory.
  PagedTraceSource::Options opts;
  opts.pool_fraction = 0.25;
  opts.compress = compress;
  opts.verify_checksums = verify_checksums;
  PagedTraceSource src(*d.store, opts);

  QueryOptions qopts;
  qopts.trace_source = &src;
  qopts.prefetch_depth = prefetch;

  // Mixed leg: churn threads remove/re-insert through the epoch-versioned
  // commit path while the timed batch runs. Paged tree snapshots are
  // enabled so every commit genuinely packs and publishes (in-memory
  // backing — the leg measures coordination, not tree-page I/O). Each
  // churner owns the entity ids congruent to its thread index, so
  // remove/insert pairs never collide across threads and the final
  // membership equals the initial one.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_ops{0};
  std::vector<std::thread> churners;
  if (writer_threads > 0) {
    if (shards > 1) {
      sharded->EnablePagedTrees();
    } else {
      index->EnablePagedTree();
    }
    churners.reserve(static_cast<size_t>(writer_threads));
    for (int t = 0; t < writer_threads; ++t) {
      churners.emplace_back([&, t] {
        const uint32_t n = entities;
        uint64_t ops = 0;
        uint32_t e = static_cast<uint32_t>(t);
        while (!stop.load(std::memory_order_relaxed)) {
          if (shards > 1) {
            sharded->RemoveEntity(e);
            sharded->InsertEntity(e);
          } else {
            index->RemoveEntity(e);
            index->InsertEntity(e);
          }
          ++ops;
          e += static_cast<uint32_t>(writer_threads);
          if (e >= n) e = static_cast<uint32_t>(t);
        }
        writer_ops.fetch_add(ops, std::memory_order_relaxed);
      });
    }
  }

  Timer timer;
  const std::vector<TopKResult> results =
      shards > 1 ? sharded->QueryMany(queries, 10, measure, qopts, workers)
                 : index->QueryMany(queries, 10, measure, qopts, workers);
  const double wall = timer.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : churners) th.join();
  const DigitalTraceIndex::ConcurrencyStats cstats =
      shards > 1 ? sharded->concurrency_stats() : index->concurrency_stats();
  const auto pe = AggregatePe(results, indexed_entities, 10);
  const auto pool = src.pool_stats();

  std::printf(
      "|E|=%u pages=%zu pool_fraction=%.2f pool_shards=%zu index_shards=%d "
      "workers=%d prefetch=%d compress=%d (%.0f%% of raw) "
      "writer_threads=%d writer_ops=%llu snapshot_publishes=%llu "
      "reader_blocked_ms=%.2f writer_blocked_ms=%.2f "
      "index_s=%.2f\n"
      "queries=%zu PE=%.4f checked/query=%.1f pages/query=%.1f "
      "hit_rate=%.3f lock_wait=%.4fs prefetch_hits/query=%.1f "
      "shards_pruned/query=%.1f threshold_updates/query=%.1f "
      "qps=%.1f (wall, excl. modeled I/O %.2fs/query)\n",
      d.num_entities(), src.num_pages(), opts.pool_fraction,
      src.pool_shards(), shards, workers, prefetch, compress ? 1 : 0,
      100.0 * static_cast<double>(src.data_bytes()) /
          static_cast<double>(src.raw_bytes()),
      writer_threads,
      static_cast<unsigned long long>(writer_ops.load()),
      static_cast<unsigned long long>(cstats.snapshot_publishes),
      cstats.reader_blocked_ns / 1e6, cstats.writer_blocked_ns / 1e6,
      index_seconds, queries.size(), pe.mean_pe,
      pe.PerQuery(pe.total.entities_checked),
      pe.PerQuery(pe.total.io.pages_read), pool.hit_rate(),
      pool.lock_wait_seconds, pe.PerQuery(pe.total.io.prefetch_hits),
      pe.PerQuery(pe.total.shards_pruned),
      pe.PerQuery(pe.total.threshold_updates), queries.size() / wall,
      pe.PerQuery(pe.total.io.modeled_io_seconds));
  json.AddRow()
      .Str("mode", "disk")
      .Int("entities", d.num_entities())
      .Int("workers", static_cast<uint64_t>(workers))
      .Int("prefetch_depth", static_cast<uint64_t>(prefetch))
      // Informational, not a baseline match key (check_regression.py lists
      // "shards" as a measurement field), so sharded runs gate directly
      // against the single-shard baseline rows.
      .Int("shards", static_cast<uint64_t>(shards))
      .Int("compressed", compress ? 1 : 0)
      .Int("checksums", verify_checksums ? 1 : 0)
      // Informational like "shards": mixed-leg rows gate against the same
      // read-only baselines, with a looser floor in CI.
      .Int("writer_threads", static_cast<uint64_t>(writer_threads))
      .Num("pe", pe.mean_pe)
      .Num("queries_per_sec", queries.size() / wall)
      .Num("mean_entities_checked", pe.PerQuery(pe.total.entities_checked))
      .Int("pages_read", pe.total.io.pages_read)
      .Num("hit_rate", pool.hit_rate())
      .Num("index_seconds", index_seconds);
  // Every QueryStats counter, summed over the batch. The fault accounting
  // among them (io_retries, checksum_failures, faults_injected,
  // pages_quarantined) is all zero on this healthy disk; a nonzero value in
  // a supposedly fault-free run shows up in the regression checker's
  // informational deltas.
  json.Counters(pe.total);
  json.Counter("lock_wait_seconds", pool.lock_wait_seconds);
  json.Counter("pool_evictions", static_cast<double>(pool.evictions));
  // Storage-footprint counters: compressed_bytes is what the pages hold,
  // raw_bytes what the uncompressed writer would have occupied (equal when
  // --compress is off). Informational in check_regression.py.
  json.Counter("compressed_bytes", static_cast<double>(src.data_bytes()));
  json.Counter("raw_bytes", static_cast<double>(src.raw_bytes()));
  json.Counter("compression_ratio",
               static_cast<double>(src.raw_bytes()) /
                   static_cast<double>(src.data_bytes()));
  // Reader/writer coordination counters (zero in read-only legs):
  // snapshot_publishes = writer-side repacks that published a fresh paged
  // snapshot; blocked_ns = wall time spent waiting on a shard latch.
  json.Counter("writer_ops", static_cast<double>(writer_ops.load()));
  json.Counter("snapshot_publishes",
               static_cast<double>(cstats.snapshot_publishes));
  json.Counter("reader_blocked_ns",
               static_cast<double>(cstats.reader_blocked_ns));
  json.Counter("writer_blocked_ns",
               static_cast<double>(cstats.writer_blocked_ns));
}

// The snapshot-restart preset (PR 10): save a built index, load it back,
// and measure what an operator restarting a serving process would feel —
// snapshot_save_seconds (writer-side cost of a commit), restart_seconds
// (load + validate, no rebuild), snapshot_bytes (on-disk footprint), and
// the post-load qps that CI gates against a baseline. The loaded index
// must answer the batch bit-identically to the builder it was saved from;
// the preset exits non-zero if it does not.
void RunSnapshot(uint32_t entities, int workers, int shards, bool compress,
                 BenchJson& json) {
  PrintHeader("Scalability (snapshot restart)",
              "save, load, and serve without rebuilding");
  Dataset d = MakeDiskResidentDataset(entities);
  const IndexOptions iopts =
      PresetIndexOptions(/*num_functions=*/200, /*num_threads=*/0);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 8, 909);

  double index_seconds = 0.0;
  std::optional<DigitalTraceIndex> index;
  std::optional<ShardedIndex> sharded;
  if (shards > 1) {
    sharded = ShardedIndex::Build(d.store,
                                  {.num_shards = shards, .index = iopts});
    index_seconds = sharded->build_seconds();
  } else {
    index = DigitalTraceIndex::Build(d.store, iopts);
    index_seconds = index->build_seconds();
  }
  const std::vector<TopKResult> fresh =
      shards > 1 ? sharded->QueryMany(queries, 10, measure, {}, workers)
                 : index->QueryMany(queries, 10, measure, {}, workers);

  MemSnapshotEnv env;
  Timer save_timer;
  const Status saved = shards > 1 ? sharded->SaveSnapshot(&env, compress)
                                  : index->SaveSnapshot(&env, compress);
  const double save_seconds = save_timer.ElapsedSeconds();
  if (!saved.ok()) {
    std::fprintf(stderr, "FAIL: SaveSnapshot: %s\n", saved.message());
    std::exit(1);
  }
  uint64_t snapshot_bytes = 0;
  for (const auto& [name, bytes] : env.files()) snapshot_bytes += bytes.size();

  // Restart: everything the serving process needs, from the snapshot alone.
  LoadedIndex restored;
  LoadedShardedIndex restored_sharded;
  Timer load_timer;
  const Status loaded =
      shards > 1 ? ShardedIndex::LoadSnapshot(env, &restored_sharded)
                 : DigitalTraceIndex::LoadSnapshot(env, &restored);
  const double restart_seconds = load_timer.ElapsedSeconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "FAIL: LoadSnapshot: %s\n", loaded.message());
    std::exit(1);
  }

  auto run_loaded = [&] {
    return shards > 1 ? restored_sharded.index->QueryMany(queries, 10, measure,
                                                          {}, workers)
                      : restored.index->QueryMany(queries, 10, measure, {},
                                                  workers);
  };
  // Spot-check the differential harness's bit-identity contract, then time.
  const std::vector<TopKResult> check = run_loaded();
  for (size_t i = 0; i < check.size(); ++i) {
    if (check[i].items.size() != fresh[i].items.size()) {
      std::fprintf(stderr, "FAIL: loaded top-k differs from builder\n");
      std::exit(1);
    }
    for (size_t r = 0; r < check[i].items.size(); ++r) {
      if (check[i].items[r].entity != fresh[i].items[r].entity ||
          check[i].items[r].score != fresh[i].items[r].score) {
        std::fprintf(stderr,
                     "FAIL: loaded top-k differs from builder at query %zu "
                     "rank %zu\n",
                     i, r);
        std::exit(1);
      }
    }
  }
  Timer timer;
  const std::vector<TopKResult> results = run_loaded();
  const double wall = timer.ElapsedSeconds();
  const auto pe = AggregatePe(results, entities, 10);

  std::printf(
      "|E|=%u shards=%d compress=%d build_s=%.2f save_s=%.4f "
      "snapshot_mb=%.2f restart_s=%.4f (%.0fx faster than build) "
      "bit_identical=yes\n"
      "queries=%zu PE=%.4f checked/query=%.1f qps(post-load)=%.1f\n",
      entities, shards, compress ? 1 : 0, index_seconds, save_seconds,
      snapshot_bytes / 1048576.0, restart_seconds,
      restart_seconds > 0 ? index_seconds / restart_seconds : 0.0,
      queries.size(), pe.mean_pe, pe.PerQuery(pe.total.entities_checked),
      queries.size() / wall);
  json.AddRow()
      .Str("mode", "snapshot")
      .Int("entities", entities)
      .Int("workers", static_cast<uint64_t>(workers))
      // Informational like "shards"/"compressed" everywhere else: the
      // snapshot timing fields are measurements, never match keys, so a
      // baseline predating a knob change still gates post-load qps.
      .Int("shards", static_cast<uint64_t>(shards))
      .Int("compressed", compress ? 1 : 0)
      .Num("pe", pe.mean_pe)
      .Num("queries_per_sec", queries.size() / wall)
      .Num("mean_entities_checked", pe.PerQuery(pe.total.entities_checked))
      .Num("index_seconds", index_seconds)
      .Num("snapshot_save_seconds", save_seconds)
      .Num("restart_seconds", restart_seconds);
  json.Counter("snapshot_save_seconds", save_seconds);
  json.Counter("restart_seconds", restart_seconds);
  json.Counter("snapshot_bytes", static_cast<double>(snapshot_bytes));
}

// The paged-MinSigTree preset (PR 6): the tree itself lives in SoA pages
// behind a SimDisk-backed BufferPool capped below the packed index size,
// so the search faults node pages in and out while the resident zone maps
// absorb part of that traffic. Traces stay in memory (the preset isolates
// TREE paging; --disk measures the trace side). A handful of queries run
// against the in-memory tree first and must match the paged answers
// exactly — the bench-side spot check of the differential harness's
// bit-identity contract.
void RunPagedTree(uint32_t entities, int workers, double pool_fraction,
                  bool compress, BenchJson& json) {
  PrintHeader("Scalability (paged tree)",
              "node pages through the buffer pool, zone-map pruning");
  Dataset d = MakePagedTreeDataset(entities);
  // 64 functions keep the 1M-entity build tractable; PE is set by nh, not
  // |E| (Sec. 6.4), so the paging measurements transfer.
  const IndexOptions iopts = PresetIndexOptions(/*num_functions=*/64);
  auto index = DigitalTraceIndex::Build(d.store, iopts);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 8, 909);

  const std::vector<TopKResult> oracle =
      index.QueryMany({queries.data(), 4}, 10, measure, {}, workers);

  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = pool_fraction;
  popts.compress = compress;
  index.EnablePagedTree(popts);
  const PagedMinSigTree& paged = index.paged_tree();
  const BufferPool* pool = paged.page_store().pool();
  const size_t pool_pages = pool != nullptr ? pool->capacity() : 0;
  if (pool_pages * kPageSize >= paged.PackedBytes()) {
    std::fprintf(stderr,
                 "FAIL: pool (%zu pages) must be smaller than the packed "
                 "index (%zu pages)\n",
                 pool_pages, paged.num_pages());
    std::exit(1);
  }

  const std::vector<TopKResult> spot =
      index.QueryMany({queries.data(), 4}, 10, measure, {}, workers);
  for (size_t i = 0; i < spot.size(); ++i) {
    if (spot[i].items.size() != oracle[i].items.size()) {
      std::fprintf(stderr, "FAIL: paged top-k differs from oracle\n");
      std::exit(1);
    }
    for (size_t r = 0; r < spot[i].items.size(); ++r) {
      if (spot[i].items[r].entity != oracle[i].items[r].entity ||
          spot[i].items[r].score != oracle[i].items[r].score) {
        std::fprintf(stderr,
                     "FAIL: paged top-k differs from oracle at query %zu "
                     "rank %zu\n",
                     i, r);
        std::exit(1);
      }
    }
  }

  Timer timer;
  const std::vector<TopKResult> results =
      index.QueryMany(queries, 10, measure, {}, workers);
  const double wall = timer.ElapsedSeconds();
  const auto pe = AggregatePe(results, index.tree().num_entities(), 10);
  const auto pstats =
      pool != nullptr ? pool->stats() : BufferPool::Stats{};

  std::printf(
      "|E|=%u nodes=%zu packed_pages=%zu (%.1f MB, %.0f%% of raw) "
      "zone_bytes=%.1f MB "
      "pool_pages=%zu (%.2fx) workers=%d compress=%d index_s=%.2f "
      "bit_identical=yes\n"
      "queries=%zu PE=%.4f checked/query=%.1f tree_reads/query=%.1f "
      "tree_hits/query=%.1f pool_hit_rate=%.3f qps=%.1f "
      "(wall, excl. modeled I/O %.3fs/query)\n",
      d.num_entities(), paged.num_nodes(), paged.num_pages(),
      paged.PackedBytes() / 1048576.0,
      100.0 * static_cast<double>(paged.PackedBytes()) /
          static_cast<double>(paged.RawBytes()),
      paged.ZoneBytes() / 1048576.0, pool_pages,
      static_cast<double>(pool_pages) / static_cast<double>(paged.num_pages()),
      workers, compress ? 1 : 0, index.build_seconds(), queries.size(),
      pe.mean_pe, pe.PerQuery(pe.total.entities_checked),
      pe.PerQuery(pe.total.io.tree_pages_read),
      pe.PerQuery(pe.total.io.tree_page_hits), pstats.hit_rate(),
      queries.size() / wall, pe.PerQuery(pe.total.io.modeled_io_seconds));
  json.AddRow()
      .Str("mode", "paged-tree")
      .Int("entities", d.num_entities())
      .Int("workers", static_cast<uint64_t>(workers))
      // Informational like "shards": not a baseline match key.
      .Int("paged_tree", 1)
      .Int("compressed", compress ? 1 : 0)
      .Num("pe", pe.mean_pe)
      .Num("queries_per_sec", queries.size() / wall)
      .Num("mean_entities_checked", pe.PerQuery(pe.total.entities_checked))
      .Num("hit_rate", pstats.hit_rate())
      .Num("index_seconds", index.build_seconds());
  // Tree pages read are the counters' tree_pages_read; `pages_read` there
  // means trace pages (0 here), as in every other preset.
  json.Counters(pe.total);
  json.Counter("pool_evictions", static_cast<double>(pstats.evictions));
  json.Counter("compressed_bytes", static_cast<double>(paged.PackedBytes()));
  json.Counter("raw_bytes", static_cast<double>(paged.RawBytes()));
  json.Counter("compression_ratio",
               static_cast<double>(paged.RawBytes()) /
                   static_cast<double>(paged.PackedBytes()));
}

}  // namespace
}  // namespace dtrace::bench

int main(int argc, char** argv) {
  dtrace::bench::BenchJson json("scalability");
  if (argc > 1 && std::strcmp(argv[1], "--disk") == 0) {
    uint32_t entities = 20000;
    int workers = 0;
    int prefetch = 0;
    int shards = 1;
    bool compress = false;
    bool verify_checksums = true;
    size_t num_queries = 8;
    int writer_threads = 0;
    int pos = 2;
    if (pos < argc && argv[pos][0] != '-') {
      entities = static_cast<uint32_t>(std::atoi(argv[pos]));
      ++pos;
    }
    for (; pos < argc; ++pos) {
      if (std::strcmp(argv[pos], "--compress") == 0) {
        compress = true;
      } else if (std::strcmp(argv[pos], "--no-checksums") == 0) {
        verify_checksums = false;
      } else if (pos + 1 >= argc) {
        break;
      } else if (std::strcmp(argv[pos], "--workers") == 0) {
        workers = std::atoi(argv[++pos]);
      } else if (std::strcmp(argv[pos], "--prefetch") == 0) {
        prefetch = std::atoi(argv[++pos]);
      } else if (std::strcmp(argv[pos], "--shards") == 0) {
        shards = std::atoi(argv[++pos]);
      } else if (std::strcmp(argv[pos], "--queries") == 0) {
        num_queries = static_cast<size_t>(std::atoi(argv[++pos]));
      } else if (std::strcmp(argv[pos], "--writer-threads") == 0) {
        writer_threads = std::atoi(argv[++pos]);
      }
    }
    dtrace::bench::RunDisk(entities, workers, prefetch, shards, compress,
                           verify_checksums, num_queries, writer_threads,
                           json);
  } else if (argc > 1 && std::strcmp(argv[1], "--snapshot") == 0) {
    uint32_t entities = 20000;
    int workers = 0;
    int shards = 1;
    bool compress = false;
    int pos = 2;
    if (pos < argc && argv[pos][0] != '-') {
      entities = static_cast<uint32_t>(std::atoi(argv[pos]));
      ++pos;
    }
    for (; pos < argc; ++pos) {
      if (std::strcmp(argv[pos], "--compress") == 0) {
        compress = true;
      } else if (pos + 1 >= argc) {
        break;
      } else if (std::strcmp(argv[pos], "--workers") == 0) {
        workers = std::atoi(argv[++pos]);
      } else if (std::strcmp(argv[pos], "--shards") == 0) {
        shards = std::atoi(argv[++pos]);
      }
    }
    dtrace::bench::RunSnapshot(entities, workers, shards, compress, json);
  } else if (argc > 1 && std::strcmp(argv[1], "--paged-tree") == 0) {
    uint32_t entities = 20000;
    int workers = 0;
    double pool_fraction = 0.25;
    bool compress = false;
    int pos = 2;
    if (pos < argc && argv[pos][0] != '-') {
      entities = static_cast<uint32_t>(std::atoi(argv[pos]));
      ++pos;
    }
    for (; pos < argc; ++pos) {
      if (std::strcmp(argv[pos], "--compress") == 0) {
        compress = true;
      } else if (pos + 1 >= argc) {
        break;
      } else if (std::strcmp(argv[pos], "--workers") == 0) {
        workers = std::atoi(argv[++pos]);
      } else if (std::strcmp(argv[pos], "--pool-fraction") == 0) {
        pool_fraction = std::atof(argv[++pos]);
      }
    }
    dtrace::bench::RunPagedTree(entities, workers, pool_fraction, compress,
                                json);
  } else {
    dtrace::bench::Run(json);
  }
  json.Write();
  return 0;
}
