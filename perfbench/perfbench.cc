// perfbench: the repo benchmark. One binary runs one named workload against
// the dtrace library, checks every answer, and prints one JSON object as the
// last line of stdout (see README.md in this directory for the workloads, the
// metrics and how the bounds were set).
//
//   perfbench --workload mem_topk|paged_routed|mixed_stream --seed N
//             --seconds S --trace 0|1 [--spans-out PATH] [--all]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and records spans around every call into a library layer, written to
// --spans-out at exit). --all prints both sets, which is how the steadiness
// tool compares counts between traced and untraced runs. Exit code 1 means
// an answer was wrong; 2 means bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/association.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/signature.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "util/sampling.h"

namespace dtrace::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Every workload runs the 20K-entity SYN disk-resident preset with 200 hash
// functions and exact top-10 under the polynomial level measure.
constexpr uint32_t kEntities = 20000;
constexpr int kFunctions = 200;
constexpr int kTopK = 10;
// Explicit build parallelism (never 0/auto), at most the 4 cores the bounds
// were measured on.
constexpr int kBuildThreads = 4;
// The closed-loop client cycles through this many distinct seeded queries:
// enough that the latency distribution of one seed's sample stays within a
// few percent of another's. The first kWarmupQueries also run untimed first.
constexpr size_t kDistinctQueries = 1000;
constexpr size_t kWarmupQueries = 40;
// A timed window never ends before this many queries (so ten samples lie
// beyond p95); the per-query counts average exactly this prefix, so they
// repeat across runs however fast the host is.
constexpr size_t kCountedQueries = 200;
// Set-up is repeated and its median reported: at least kSetupReps times and
// for at least kSetupSeconds, so that a short set-up (mixed_stream's reload,
// ~20 ms) is sampled over as long a stretch as a build.
constexpr size_t kSetupReps = 7;
constexpr double kSetupSeconds = 3.0;
// Answers compared against BruteForce per run.
constexpr size_t kBruteForceChecks = 8;
// paged_routed: shards, and both pools at a quarter of what they cache.
constexpr int kShards = 4;
constexpr double kPoolFraction = 0.25;
// mixed_stream: open-loop writer rate, checkpoint period, zipf skew.
constexpr double kWritesPerSecond = 50.0;
constexpr size_t kWritesPerCheckpoint = 100;
constexpr double kZipfTheta = 0.99;
constexpr size_t kCheckinsPerWrite = 3;
// Replaced entities whose signature is recomputed for the per-layer split.
constexpr size_t kSignatureSamples = 200;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Tracing -------------------------------------------------------------

// Spans recorded by the bench around its calls into the library: name,
// start, end, parent span and request id. Kept in memory (only when on) and
// written as one JSON array at exit. Thread-safe: the mixed workload's
// writer and client record concurrently.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t parent, uint64_t request) {
    if (!on_) return -1;
    const int64_t now = Now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = Now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  double MedianMs(std::string_view name) const {
    return Median(DurationsMs(name));
  }

  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}",
                   i == 0 ? "" : ",", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]\n");
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  const bool on_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// ---- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2e(std::string name, double v, const char* unit) {
    end_to_end.push_back({std::move(name), v, unit});
  }
  void Layer(std::string name, double v, const char* unit) {
    per_layer.push_back({std::move(name), v, unit});
  }
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

bool SameItems(const std::vector<ScoredEntity>& a,
               const std::vector<ScoredEntity>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity || a[i].score != b[i].score) return false;
  }
  return true;
}

// Status-ok with k items, and equal to `*want` when given; an empty `*want`
// is first filled from this answer.
bool AnswerOk(const TopKResult& r, std::vector<ScoredEntity>* want) {
  const bool ok = r.status.ok() && r.items.size() == static_cast<size_t>(kTopK);
  if (want == nullptr) return ok;
  if (want->empty()) *want = r.items;
  return ok && SameItems(r.items, *want);
}

// ---- Inputs --------------------------------------------------------------

struct Inputs {
  Dataset dataset;
  std::vector<EntityId> queries;
  double gen_s = 0.0;
};

Inputs Generate(uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Inputs in;
  in.dataset = MakeDiskResidentDataset(kEntities, seed);
  in.queries = SampleQueries(*in.dataset.store, kDistinctQueries,
                             seed * 0x9E3779B97F4A7C15ULL + 0x51);
  in.gen_s = Ms(Clock::now() - start) / 1e3;
  return in;
}

// ---- The closed-loop client ----------------------------------------------

using QueryFn = std::function<TopKResult(EntityId, uint64_t request)>;

struct Window {
  std::vector<double> latency_ms;
  std::vector<QueryStats> counted;  // the first kCountedQueries
  double seconds = 0.0;             // wall length of the window
  // Peak RSS when the window ended, before any post-window check builds
  // its own structures (ru_maxrss only ever grows).
  double peak_rss_mb = 0.0;
};

// One query in flight at a time, cycling through `queries`, until `seconds`
// have passed, at least kCountedQueries completed, and `busy` (if set) is
// false. Every answer must be status-ok with k items; with `answers`, an
// answer must also equal answers[slot], which is filled from the first answer
// of a slot that has none yet.
Window RunClient(const QueryFn& query, const std::vector<EntityId>& queries,
                 std::vector<std::vector<ScoredEntity>>* answers,
                 double seconds, const std::atomic<bool>* busy,
                 Report& report) {
  Window w;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    const double elapsed = Ms(Clock::now() - start) / 1e3;
    if (i >= kCountedQueries && elapsed >= seconds &&
        (busy == nullptr || !busy->load(std::memory_order_acquire))) {
      break;
    }
    const size_t slot = i % queries.size();
    const Clock::time_point t0 = Clock::now();
    const TopKResult r = query(queries[slot], i);
    w.latency_ms.push_back(Ms(Clock::now() - t0));
    report.Check(
        AnswerOk(r, answers != nullptr ? &(*answers)[slot] : nullptr));
    if (i < kCountedQueries) w.counted.push_back(r.stats);
  }
  w.seconds = Ms(Clock::now() - start) / 1e3;
  w.peak_rss_mb = PeakRssMb();
  return w;
}

void ReportWindow(const Window& w, Report& report) {
  const double p50 = Percentile(w.latency_ms, 0.50);
  const double n = static_cast<double>(w.latency_ms.size());
  report.E2e("query_p50_ms", p50, "ms");
  report.E2e("query_p95_ms", Percentile(w.latency_ms, 0.95), "ms");
  report.E2e("query_qps", n / w.seconds, "1/s");
  report.Layer("bench.queries", n, "count");
  std::fprintf(stderr, "perfbench: %zu timed queries in %.1f s\n",
               w.latency_ms.size(), w.seconds);
  // The traced run's own p50, so tracing overhead is visible.
  report.Layer("bench.query_p50_ms", p50, "ms");
}

// Per-query means of the counters over the counted prefix.
void ReportQueryCounts(const Window& w, Report& report) {
  const double n = static_cast<double>(w.counted.size());
  auto mean = [&](auto field) {
    double sum = 0.0;
    for (const QueryStats& s : w.counted) sum += static_cast<double>(field(s));
    return sum / n;
  };
  report.Layer("core.query.nodes_visited",
               mean([](const QueryStats& s) { return s.nodes_visited; }),
               "count");
  report.Layer("core.query.entities_checked",
               mean([](const QueryStats& s) { return s.entities_checked; }),
               "count");
  report.Layer("core.query.pe", mean([](const QueryStats& s) {
                 return s.pruning_effectiveness(kEntities, kTopK);
               }),
               "ratio");
  report.Layer("core.query.heap_pushes",
               mean([](const QueryStats& s) { return s.heap_pushes; }),
               "count");
  report.Layer("core.query.hash_evals",
               mean([](const QueryStats& s) { return s.hash_evals; }),
               "count");
  report.Layer("core.sharded.shards_pruned",
               mean([](const QueryStats& s) { return s.shards_pruned; }),
               "count");
  report.Layer("core.sharded.router_bound_evals",
               mean([](const QueryStats& s) { return s.router_bound_evals; }),
               "count");
  report.Layer("core.sharded.threshold_updates",
               mean([](const QueryStats& s) { return s.threshold_updates; }),
               "count");
  report.Layer("storage.trace_pages.pages_read",
               mean([](const QueryStats& s) { return s.io.pages_read; }),
               "count");
  report.Layer("storage.trace_pages.pages_hit",
               mean([](const QueryStats& s) { return s.io.pages_hit; }),
               "count");
  report.Layer("storage.trace_pages.bytes_read",
               mean([](const QueryStats& s) { return s.io.bytes_read; }),
               "bytes");
  report.Layer("storage.trace_pages.entities_fetched",
               mean([](const QueryStats& s) { return s.io.entities_fetched; }),
               "count");
  report.Layer("storage.trace_pages.cursor_cache_hits",
               mean([](const QueryStats& s) { return s.io.cache_hits; }),
               "count");
  report.Layer("storage.trace_pages.modeled_io_ms",
               mean([](const QueryStats& s) {
                 return s.io.modeled_io_seconds * 1e3;
               }),
               "ms");
  report.Layer("storage.tree_pages.pages_read",
               mean([](const QueryStats& s) { return s.io.tree_pages_read; }),
               "count");
  report.Layer("storage.tree_pages.page_hits",
               mean([](const QueryStats& s) { return s.io.tree_page_hits; }),
               "count");
}

struct PoolTotals {
  BufferPool::Stats trace;
  BufferPool::Stats tree;
};

void ReportPools(const PoolTotals& before, const PoolTotals& after,
                 size_t queries, Report& report) {
  auto rate = [](const BufferPool::Stats& a, const BufferPool::Stats& b) {
    const double hits = static_cast<double>(b.hits - a.hits);
    const double total = hits + static_cast<double>(b.misses - a.misses);
    return total == 0 ? 0.0 : hits / total;
  };
  report.Layer("storage.pool.trace_hit_rate", rate(before.trace, after.trace),
               "ratio");
  report.Layer("storage.pool.tree_hit_rate", rate(before.tree, after.tree),
               "ratio");
  const uint64_t evictions = after.trace.evictions + after.tree.evictions -
                             before.trace.evictions - before.tree.evictions;
  report.Layer("storage.pool.evictions",
               static_cast<double>(evictions) /
                   static_cast<double>(std::max<size_t>(queries, 1)),
               "count");
  report.Layer("storage.pool.lock_wait_ms",
               (after.trace.lock_wait_seconds + after.tree.lock_wait_seconds -
                before.trace.lock_wait_seconds -
                before.tree.lock_wait_seconds) *
                   1e3,
               "ms");
}

// Per-layer metrics a workload has no structure for read 0, so every run
// prints the same metric names.
void ReportAbsent(Report& report, std::initializer_list<const char*> names,
                  const char* unit) {
  for (const char* n : names) report.Layer(n, 0.0, unit);
}

// Times `setup(parent_span)` at least kSetupReps times and for at least
// kSetupSeconds, and returns the wall seconds of each repetition;
// `teardown()` runs untimed before each one, dropping what the previous one
// built.
template <class Teardown, class Setup>
std::vector<double> TimeSetup(Tracer& tracer, Teardown teardown, Setup setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kSetupReps || total < kSetupSeconds) {
    teardown();
    const ScopedSpan span(tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    setup(span.id());
    seconds.push_back(Ms(Clock::now() - t0) / 1e3);
    total += seconds.back();
  }
  return seconds;
}

void ReportCommon(const Inputs& in, const std::vector<double>& setup_s,
                  const Window& w, double index_bytes, Report& report) {
  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("index_mb", index_bytes / 1048576.0, "MB");
  report.E2e("peak_rss_mb", w.peak_rss_mb, "MB");
  report.Layer("bench.gen_s", in.gen_s, "s");
  report.Layer("bench.setup_reps", static_cast<double>(setup_s.size()),
               "count");
}

// Untimed warm-up: the first kWarmupQueries of the sample, whose answers
// must be status-ok with k items; with `answers`, they are recorded (or
// checked) like window answers.
void WarmUp(const QueryFn& query, const std::vector<EntityId>& queries,
            std::vector<std::vector<ScoredEntity>>* answers, Report& report) {
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    const TopKResult r = query(queries[i], 0);
    report.Check(AnswerOk(r, answers != nullptr ? &(*answers)[i] : nullptr));
  }
}

// ---- Workload: mem_topk --------------------------------------------------

IndexOptions BuildOptions() {
  return PresetIndexOptions(kFunctions, kBuildThreads);
}

void RunMemTopK(const Inputs& in, double seconds, Tracer& tracer,
                Report& report) {
  const Dataset& d = in.dataset;
  const PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  std::optional<DigitalTraceIndex> index;
  const std::vector<double> setup = TimeSetup(
      tracer, [&] { index.reset(); },
      [&](int64_t parent) {
        const ScopedSpan s(tracer, "DigitalTraceIndex::Build", parent);
        index.emplace(DigitalTraceIndex::Build(d.store, BuildOptions()));
      });

  // A seeded sample of answers against the linear-scan oracle; in the
  // window, every repeat of a query must match its first answer.
  std::vector<std::vector<ScoredEntity>> answers(in.queries.size());
  for (size_t i = 0; i < kBruteForceChecks; ++i) {
    const TopKResult r = index->Query(in.queries[i], kTopK, measure);
    report.Check(r.status.ok() &&
                 SameItems(r.items,
                           index->BruteForce(in.queries[i], kTopK, measure)
                               .items));
    answers[i] = r.items;
  }

  const QueryFn query = [&](EntityId q, uint64_t request) {
    const ScopedSpan s(tracer, "DigitalTraceIndex::Query", -1, request);
    return index->Query(q, kTopK, measure);
  };
  WarmUp(query, in.queries, &answers, report);
  const Window w =
      RunClient(query, in.queries, &answers, seconds, nullptr, report);

  ReportWindow(w, report);
  ReportCommon(in, setup, w,
               static_cast<double>(index->IndexMemoryBytes() +
                                   index->HasherMemoryBytes()),
               report);
  ReportQueryCounts(w, report);
  ReportPools({}, {}, w.counted.size(), report);
  ReportAbsent(report, {"util.codec.trace_ratio", "util.codec.tree_ratio"},
               "ratio");
  report.Layer("core.index.build_ms",
               tracer.MedianMs("DigitalTraceIndex::Build"), "ms");
  report.Layer("storage.trace_pages.build_ms", 0.0, "ms");
}

// ---- Workload: paged_routed ----------------------------------------------

PoolTotals SumPools(const PagedTraceSource& src, const ShardedIndex& index) {
  PoolTotals t;
  t.trace = src.pool_stats();
  for (int s = 0; s < index.num_shards(); ++s) {
    const BufferPool* pool = index.shard(s).paged_tree().page_store().pool();
    if (pool == nullptr) continue;
    const BufferPool::Stats p = pool->stats();
    t.tree.hits += p.hits;
    t.tree.misses += p.misses;
    t.tree.evictions += p.evictions;
    t.tree.lock_wait_seconds += p.lock_wait_seconds;
  }
  return t;
}

void RunPagedRouted(const Inputs& in, double seconds, Tracer& tracer,
                    Report& report) {
  const Dataset& d = in.dataset;
  const PolynomialLevelMeasure measure(d.hierarchy->num_levels());

  ShardedIndexOptions sopts;
  sopts.num_shards = kShards;
  sopts.index = BuildOptions();
  sopts.build_threads = kBuildThreads;
  PagedTraceSource::Options topts;
  topts.pool_fraction = kPoolFraction;
  topts.compress = true;
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.compress = true;
  popts.disk.pool_fraction = kPoolFraction;

  std::optional<ShardedIndex> index;
  std::unique_ptr<PagedTraceSource> src;
  const std::vector<double> setup = TimeSetup(
      tracer,
      [&] {
        index.reset();
        src.reset();
      },
      [&](int64_t parent) {
        {
          const ScopedSpan s(tracer, "ShardedIndex::Build", parent);
          index.emplace(ShardedIndex::Build(d.store, sopts));
        }
        {
          const ScopedSpan s(tracer, "PagedTraceSource", parent);
          src = std::make_unique<PagedTraceSource>(*d.store, topts);
        }
        const ScopedSpan s(tracer, "ShardedIndex::EnablePagedTrees", parent);
        index->EnablePagedTrees(popts);
      });

  QueryOptions qopts;
  qopts.trace_source = src.get();
  qopts.cross_shard_routing = true;
  const QueryFn query = [&](EntityId q, uint64_t request) {
    const ScopedSpan s(tracer, "ShardedIndex::Query", -1, request);
    return index->Query(q, kTopK, measure, qopts, /*shard_threads=*/1);
  };
  // The warm-up fills both pools. Answers are recorded per query (a repeat
  // must match the first) and checked against the oracle after the window.
  std::vector<std::vector<ScoredEntity>> answers(in.queries.size());
  WarmUp(query, in.queries, &answers, report);

  const PoolTotals before = SumPools(*src, *index);
  // Pool deltas cover exactly the counted prefix: the counters are
  // snapshotted again right after query kCountedQueries - 1.
  PoolTotals at_counted;
  const QueryFn counted_query = [&](EntityId q, uint64_t request) {
    TopKResult r = query(q, request);
    if (request + 1 == kCountedQueries) at_counted = SumPools(*src, *index);
    return r;
  };
  const Window w = RunClient(counted_query, in.queries, &answers, seconds,
                             nullptr, report);

  // Oracle: the single-tree in-memory answer to every query that ran
  // (QueryMany is bit-identical to serial Query for any thread count). The
  // index is read-only, so checking after the window is the same check as
  // before it, without holding the oracle through the timed window.
  {
    std::vector<EntityId> ran;
    for (size_t i = 0; i < answers.size() && !answers[i].empty(); ++i) {
      ran.push_back(in.queries[i]);
    }
    const DigitalTraceIndex single =
        DigitalTraceIndex::Build(d.store, BuildOptions());
    const std::vector<TopKResult> oracle =
        single.QueryMany(ran, kTopK, measure, {}, kBuildThreads);
    for (size_t i = 0; i < oracle.size(); ++i) {
      report.Check(oracle[i].status.ok() &&
                   SameItems(answers[i], oracle[i].items));
    }
  }

  uint64_t index_bytes = src->data_bytes();
  uint64_t tree_raw = 0;
  uint64_t tree_packed = 0;
  for (int s = 0; s < index->num_shards(); ++s) {
    const DigitalTraceIndex& shard = index->shard(s);
    index_bytes += shard.IndexMemoryBytes() + shard.HasherMemoryBytes() +
                   shard.paged_tree().PackedBytes();
    tree_raw += shard.paged_tree().RawBytes();
    tree_packed += shard.paged_tree().PackedBytes();
  }
  std::fprintf(stderr,
               "perfbench: traces raw %.2f MB, packed %.2f MB, %zu pool "
               "pages resident; trees raw %.2f MB, packed %.2f MB\n",
               src->raw_bytes() / 1048576.0, src->data_bytes() / 1048576.0,
               src->pool_stats().client_resident[0] +
                   src->pool_stats().client_resident[1],
               tree_raw / 1048576.0, tree_packed / 1048576.0);

  ReportWindow(w, report);
  ReportCommon(in, setup, w, static_cast<double>(index_bytes), report);
  ReportQueryCounts(w, report);
  ReportPools(before, at_counted, w.counted.size(), report);
  report.Layer("util.codec.trace_ratio",
               static_cast<double>(src->raw_bytes()) /
                   static_cast<double>(src->data_bytes()),
               "ratio");
  report.Layer("util.codec.tree_ratio",
               static_cast<double>(tree_raw) / static_cast<double>(tree_packed),
               "ratio");
  report.Layer("core.index.build_ms", tracer.MedianMs("ShardedIndex::Build"),
               "ms");
  report.Layer("storage.trace_pages.build_ms",
               tracer.MedianMs("PagedTraceSource"), "ms");
}

// ---- Workload: mixed_stream ----------------------------------------------

struct WriteOp {
  EntityId entity;
  std::vector<PresenceRecord> records;
};

// Zipf-chosen entities (rank -> entity through a seeded permutation), each
// replaced by its original trace plus a few fresh one-hour check-ins.
std::vector<WriteOp> MakeWrites(const Dataset& d, size_t count, uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEULL);
  std::vector<EntityId> perm(kEntities);
  std::iota(perm.begin(), perm.end(), EntityId{0});
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  }
  const ZipfSampler zipf(kZipfTheta, kEntities);
  std::vector<WriteOp> ops(count);
  std::vector<std::vector<size_t>> ops_of(kEntities);
  for (size_t i = 0; i < count; ++i) {
    ops[i].entity = perm[zipf.Sample(rng) - 1];
    ops_of[ops[i].entity].push_back(i);
  }
  for (const PresenceRecord& r : d.records) {
    for (size_t i : ops_of[r.entity]) ops[i].records.push_back(r);
  }
  const uint32_t units = d.hierarchy->num_base_units();
  for (WriteOp& op : ops) {
    for (size_t c = 0; c < kCheckinsPerWrite; ++c) {
      const auto unit = static_cast<UnitId>(rng.NextBelow(units));
      const auto t = static_cast<TimeStep>(rng.NextBelow(d.horizon - 1));
      op.records.push_back({op.entity, unit, t, t + 1});
    }
  }
  return ops;
}

// Drops every snapshot older than the newest valid one, as a server that
// checkpoints periodically would to bound its disk use.
Status PruneOlderSnapshots(SnapshotEnv* env) {
  SnapshotManifest newest;
  const Status s = LoadNewestManifest(*env, &newest);
  return s.ok() ? PruneSnapshots(env, newest.epoch) : s;
}

uint64_t EnvBytes(MemSnapshotEnv& env) {
  uint64_t bytes = 0;
  for (const auto& [name, data] : env.files()) bytes += data.size();
  return bytes;
}

void RunMixedStream(const Inputs& in, double seconds, uint64_t seed,
                    Tracer& tracer, Report& report) {
  const Dataset& d = in.dataset;
  const PolynomialLevelMeasure measure(d.hierarchy->num_levels());

  // Untimed: the snapshot the server restarts from, and the write stream.
  MemSnapshotEnv env;
  {
    const DigitalTraceIndex built =
        DigitalTraceIndex::Build(d.store, BuildOptions());
    const Status s = built.SaveSnapshot(&env);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: SaveSnapshot: %s\n", s.message());
      std::exit(1);
    }
  }
  const uint64_t user_bytes = d.records.size() * sizeof(PresenceRecord);
  const auto num_writes =
      static_cast<size_t>(std::llround(kWritesPerSecond * seconds));
  const std::vector<WriteOp> writes = MakeWrites(d, num_writes, seed);

  LoadedIndex server;
  const std::vector<double> setup = TimeSetup(
      tracer, [&] { server = LoadedIndex{}; },
      [&](int64_t parent) {
        Status s;
        {
          const ScopedSpan span(tracer, "DigitalTraceIndex::LoadSnapshot",
                                parent);
          s = DigitalTraceIndex::LoadSnapshot(env, &server);
        }
        if (!s.ok()) {
          std::fprintf(stderr, "perfbench: LoadSnapshot: %s\n", s.message());
          std::exit(1);
        }
        const ScopedSpan span(tracer, "DigitalTraceIndex::EnablePagedTree",
                              parent);
        server.index->EnablePagedTree();
      });
  DigitalTraceIndex& index = *server.index;

  const QueryFn query = [&](EntityId q, uint64_t request) {
    const ScopedSpan s(tracer, "DigitalTraceIndex::Query", -1, request);
    return index.Query(q, kTopK, measure);
  };
  WarmUp(query, in.queries, nullptr, report);

  // Open-loop writer: write i is due at start + i / rate; its latency runs
  // from that due time, so a stall (e.g. a checkpoint) charges every write
  // it delays. Every kWritesPerCheckpoint writes it checkpoints and prunes.
  std::atomic<bool> writing{true};
  std::vector<double> write_ms(writes.size());
  std::vector<double> late_ms(writes.size());
  std::vector<double> checkpoint_ms;
  uint64_t checkpoint_failures = 0;
  const Clock::time_point writer_start = Clock::now();
  // jthread: joined on every exit path, exceptions included.
  std::jthread writer([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWritesPerSecond));
    for (size_t i = 0; i < writes.size(); ++i) {
      const Clock::time_point due =
          writer_start + period * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due);
      late_ms[i] = Ms(Clock::now() - due);
      {
        const ScopedSpan s(tracer, "DigitalTraceIndex::ReplaceEntity", -1, i);
        index.ReplaceEntity(writes[i].entity, writes[i].records);
      }
      write_ms[i] = Ms(Clock::now() - due);
      if ((i + 1) % kWritesPerCheckpoint == 0) {
        const ScopedSpan ckpt(tracer, "checkpoint", -1, i);
        const Clock::time_point t0 = Clock::now();
        Status s;
        {
          const ScopedSpan span(tracer, "DigitalTraceIndex::SaveSnapshot",
                                ckpt.id(), i);
          s = index.SaveSnapshot(&env);
        }
        checkpoint_ms.push_back(Ms(Clock::now() - t0));
        if (s.ok()) {
          const ScopedSpan span(tracer, "PruneSnapshots", ckpt.id(), i);
          s = PruneOlderSnapshots(&env);
        }
        if (!s.ok()) ++checkpoint_failures;
      }
    }
    writing.store(false, std::memory_order_release);
  });
  const Window w =
      RunClient(query, in.queries, nullptr, seconds, &writing, report);
  writer.join();
  report.attempted += writes.size() + checkpoint_ms.size();
  report.failed += checkpoint_failures;

  // After the stream: a sample against the oracle, then the restart check —
  // the last checkpoint must reload to identical answers.
  for (size_t i = 0; i < kBruteForceChecks; ++i) {
    const EntityId q = in.queries[i];
    report.Check(SameItems(index.Query(q, kTopK, measure).items,
                           index.BruteForce(q, kTopK, measure).items));
  }
  const Status saved = index.SaveSnapshot(&env);
  LoadedIndex reloaded;
  const bool reload_ok =
      saved.ok() && DigitalTraceIndex::LoadSnapshot(env, &reloaded).ok();
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    const EntityId q = in.queries[i];
    report.Check(reload_ok &&
                 SameItems(index.Query(q, kTopK, measure).items,
                           reloaded.index->Query(q, kTopK, measure).items));
  }
  const uint64_t snapshot_bytes = EnvBytes(env);

  // Signature share of a commit: recompute a sample of replaced entities'
  // signatures through the public SignatureComputer.
  std::vector<double> sig_us;
  const SignatureComputer sigs(index.store(), index.hasher());
  for (size_t i = 0; i < std::min(kSignatureSamples, writes.size()); ++i) {
    const ScopedSpan s(tracer, "SignatureComputer::Compute", -1, i);
    const Clock::time_point t0 = Clock::now();
    const SignatureList list = sigs.Compute(writes[i].entity);
    sig_us.push_back(Ms(Clock::now() - t0) * 1e3);
    report.Check(list.num_functions() == kFunctions);
  }

  const DigitalTraceIndex::ConcurrencyStats cc = index.concurrency_stats();
  const double packed = static_cast<double>(index.paged_tree().PackedBytes());
  ReportWindow(w, report);
  ReportCommon(in, setup, w,
               static_cast<double>(index.IndexMemoryBytes() +
                                   index.HasherMemoryBytes()) +
                   packed,
               report);
  ReportQueryCounts(w, report);
  ReportPools({}, {}, w.counted.size(), report);
  ReportAbsent(report, {"util.codec.trace_ratio", "util.codec.tree_ratio"},
               "ratio");
  report.Layer("core.index.build_ms", 0.0, "ms");
  report.Layer("storage.trace_pages.build_ms", 0.0, "ms");
  report.Layer("bench.write_p50_ms", Percentile(write_ms, 0.50), "ms");
  report.Layer("bench.write_p95_ms", Percentile(write_ms, 0.95), "ms");
  report.Layer("bench.checkpoint_ms", Median(checkpoint_ms), "ms");
  report.Layer("bench.writer_late_ms", Percentile(late_ms, 0.95), "ms");
  report.Layer("bench.writes_done", static_cast<double>(writes.size()),
               "count");
  report.Layer("core.index.commit_ms",
               tracer.MedianMs("DigitalTraceIndex::ReplaceEntity"), "ms");
  report.Layer("core.index.snapshot_publishes",
               static_cast<double>(cc.snapshot_publishes), "count");
  report.Layer("core.index.reader_blocked_ms", cc.reader_blocked_ns / 1e6,
               "ms");
  report.Layer("core.index.writer_blocked_ms", cc.writer_blocked_ns / 1e6,
               "ms");
  report.Layer("core.paged_tree.pack_ms",
               tracer.MedianMs("DigitalTraceIndex::EnablePagedTree"), "ms");
  report.Layer("core.paged_tree.packed_mb", packed / 1048576.0, "MB");
  report.Layer("core.signature.compute_us", Median(sig_us), "us");
  report.Layer("storage.snapshot.save_ms",
               tracer.MedianMs("DigitalTraceIndex::SaveSnapshot"), "ms");
  report.Layer("storage.snapshot.load_ms",
               tracer.MedianMs("DigitalTraceIndex::LoadSnapshot"), "ms");
  report.Layer("storage.snapshot.bytes_per_user_byte",
               static_cast<double>(snapshot_bytes) /
                   static_cast<double>(user_bytes),
               "ratio");
}

// Write-path metrics read 0 on the read-only workloads.
void ReportNoWrites(Report& report) {
  ReportAbsent(report,
               {"bench.write_p50_ms", "bench.write_p95_ms",
                "bench.checkpoint_ms", "bench.writer_late_ms"},
               "ms");
  report.Layer("bench.writes_done", 0.0, "count");
  report.Layer("core.index.commit_ms", 0.0, "ms");
  ReportAbsent(report,
               {"core.index.snapshot_publishes"}, "count");
  ReportAbsent(report,
               {"core.index.reader_blocked_ms", "core.index.writer_blocked_ms",
                "core.paged_tree.pack_ms"},
               "ms");
  report.Layer("core.paged_tree.packed_mb", 0.0, "MB");
  report.Layer("core.signature.compute_us", 0.0, "us");
  ReportAbsent(report, {"storage.snapshot.save_ms", "storage.snapshot.load_ms"},
               "ms");
  report.Layer("storage.snapshot.bytes_per_user_byte", 0.0, "ratio");
}

// ---- Output --------------------------------------------------------------

void PrintMetrics(const std::vector<Metric>& metrics, bool& first) {
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit);
    first = false;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload mem_topk|paged_routed|"
               "mixed_stream --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH] [--all]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool all = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--all") {
      all = true;
    } else if (i + 1 >= argc) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans-out") {
      spans_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if ((trace != 0 && trace != 1) || seconds <= 0.0 ||
      (workload != "mem_topk" && workload != "paged_routed" &&
       workload != "mixed_stream")) {
    return Usage();
  }

  Tracer tracer(trace == 1);
  Report report;
  const Inputs in = Generate(seed);
  std::fprintf(stderr, "perfbench: %s seed=%llu |E|=%u records=%zu gen=%.2fs\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               in.dataset.num_entities(), in.dataset.records.size(), in.gen_s);
  if (workload == "mem_topk") {
    RunMemTopK(in, seconds, tracer, report);
    ReportNoWrites(report);
  } else if (workload == "paged_routed") {
    RunPagedRouted(in, seconds, tracer, report);
    ReportNoWrites(report);
  } else {
    RunMixedStream(in, seconds, seed, tracer, report);
  }
  report.Layer("bench.op_fail_ratio",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
  tracer.Write(spans_out);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  if (trace == 0 || all) PrintMetrics(report.end_to_end, first);
  if (trace == 1 || all) PrintMetrics(report.per_layer, first);
  std::printf("}}\n");
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dtrace::perfbench

int main(int argc, char** argv) { return dtrace::perfbench::Main(argc, argv); }
