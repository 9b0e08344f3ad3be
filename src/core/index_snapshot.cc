// Snapshot save/load for DigitalTraceIndex and ShardedIndex
// (DESIGN-storage.md, "Snapshot format and recovery protocol"). The section
// framing, checksums, and crash-atomic manifest protocol live in
// storage/snapshot.h; this file owns what the sections *contain*:
//
//   config      — shard count, hash-family parameters, dataset shape
//   hierarchy   — sp-index level sizes + parent links
//   traces[_s]  — per-entity per-level cell lists (raw or codec-packed),
//                 MVCC overrides resolved at the captured commit
//   tree[_s]    — MinSigTree node records, verbatim
//
// Loading rebuilds every component from these sections alone — hierarchy
// through its Builder, the store through its RestoredCells constructor, the
// hash family by re-deriving it from (hasher kind, nh, seed) exactly as
// Build does, and the tree through MinSigTree::FromNodes — so a loaded
// index answers queries bit-identically to the index that saved it.
//
// Decoders treat section payloads as untrusted even though the snapshot
// layer has already checksum-verified them: every read is bounds-checked
// and structural violations return kCorruption instead of aborting.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "hash/exact_hasher.h"
#include "hash/hierarchical_hasher.h"
#include "storage/snapshot.h"
#include "trace/spatial_hierarchy.h"
#include "trace/trace_store.h"
#include "util/codec.h"
#include "util/rwlatch.h"
#include "util/status.h"

namespace dtrace {

namespace {

// The config section, shared by both snapshot kinds (num_shards == 1 for a
// single-index snapshot).
struct SnapshotConfig {
  uint32_t num_shards = 1;
  uint32_t num_functions = 0;
  uint64_t seed = 0;
  uint32_t hasher = 0;  // IndexOptions::Hasher
  uint32_t compress = 0;
  uint32_t num_entities = 0;
  uint32_t horizon = 0;
  uint32_t num_levels = 0;
};

void EncodeConfig(const SnapshotConfig& c, SnapshotBuffer* out) {
  out->PutU32(c.num_shards);
  out->PutU32(c.num_functions);
  out->PutU64(c.seed);
  out->PutU32(c.hasher);
  out->PutU32(c.compress);
  out->PutU32(c.num_entities);
  out->PutU32(c.horizon);
  out->PutU32(c.num_levels);
}

Status DecodeConfig(std::span<const uint8_t> payload, SnapshotConfig* c) {
  SnapshotCursor cur(payload);
  if (!cur.GetU32(&c->num_shards) || !cur.GetU32(&c->num_functions) ||
      !cur.GetU64(&c->seed) || !cur.GetU32(&c->hasher) ||
      !cur.GetU32(&c->compress) || !cur.GetU32(&c->num_entities) ||
      !cur.GetU32(&c->horizon) || !cur.GetU32(&c->num_levels) ||
      !cur.AtEnd()) {
    return Status::Corruption("snapshot config section malformed");
  }
  if (c->num_shards < 1 || c->num_functions < 1 || c->num_levels < 1 ||
      c->hasher > 1 || c->compress > 1) {
    return Status::Corruption("snapshot config values out of range");
  }
  return Status::Ok();
}

SnapshotConfig ConfigFor(const IndexOptions& options, const TraceStore& store,
                         uint32_t num_shards, bool compress) {
  SnapshotConfig c;
  c.num_shards = num_shards;
  c.num_functions = static_cast<uint32_t>(options.num_functions);
  c.seed = options.seed;
  c.hasher = static_cast<uint32_t>(options.hasher);
  c.compress = compress ? 1 : 0;
  c.num_entities = store.num_entities();
  c.horizon = store.horizon();
  c.num_levels = static_cast<uint32_t>(store.hierarchy().num_levels());
  return c;
}

IndexOptions OptionsFor(const SnapshotConfig& c) {
  IndexOptions options;
  options.num_functions = static_cast<int>(c.num_functions);
  options.seed = c.seed;
  options.store_full_signatures = false;  // rejected at save
  options.hasher = static_cast<IndexOptions::Hasher>(c.hasher);
  return options;
}

// Mirrors DigitalTraceIndex::Build's hash-family switch: the family is a
// pure function of (kind, hierarchy, horizon, nh, seed), so re-deriving it
// is cheaper than serializing its tables and provably identical.
std::unique_ptr<CellHasher> MakeHasher(const TraceStore& store,
                                       const IndexOptions& options) {
  switch (options.hasher) {
    case IndexOptions::Hasher::kHierarchical:
      return std::make_unique<HierarchicalMinHasher>(
          store.hierarchy(), store.horizon(), options.num_functions,
          options.seed);
    case IndexOptions::Hasher::kExact:
      return std::make_unique<ExactMinHasher>(store.hierarchy(),
                                              options.num_functions,
                                              options.seed);
  }
  return nullptr;
}

void EncodeHierarchy(const SpatialHierarchy& h, SnapshotBuffer* out) {
  const int m = h.num_levels();
  out->PutU32(static_cast<uint32_t>(m));
  out->PutU32(h.units_at(1));
  for (Level l = 2; l <= m; ++l) {
    const uint32_t n = h.units_at(l);
    out->PutU32(n);
    for (UnitId u = 0; u < n; ++u) out->PutU32(h.parent(l, u));
  }
}

Status DecodeHierarchy(std::span<const uint8_t> payload,
                       const SnapshotConfig& cfg,
                       std::unique_ptr<SpatialHierarchy>* out) {
  SnapshotCursor cur(payload);
  uint32_t m = 0, top = 0;
  if (!cur.GetU32(&m) || m != cfg.num_levels || !cur.GetU32(&top) ||
      top == 0) {
    return Status::Corruption("snapshot hierarchy header malformed");
  }
  SpatialHierarchy::Builder builder(top);
  uint32_t prev = top;
  for (uint32_t l = 2; l <= m; ++l) {
    uint32_t n = 0;
    if (!cur.GetU32(&n) || n == 0 ||
        cur.remaining() < static_cast<size_t>(n) * sizeof(UnitId)) {
      return Status::Corruption("snapshot hierarchy level malformed");
    }
    std::vector<UnitId> parents(n);
    for (uint32_t u = 0; u < n; ++u) {
      if (!cur.GetU32(&parents[u]) || parents[u] >= prev) {
        return Status::Corruption("snapshot hierarchy parent out of range");
      }
    }
    builder.AddLevel(std::move(parents));
    prev = n;
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("snapshot hierarchy trailing bytes");
  }
  *out = std::make_unique<SpatialHierarchy>(std::move(builder).Build());
  return Status::Ok();
}

// Serializes the traces of every entity whose ShardOfEntity(e, num_shards)
// is `shard` (num_shards == 1 captures all), levels outer, entities inner in
// ascending id order — the same deterministic walk the decoder replays, so
// no entity ids are stored. Cell lists are read at the latest committed
// version: the caller holds the owning index's read latch, so "latest" is
// exactly one commit and the serialized base already reflects every
// ReplaceEntity override.
void EncodeTraces(const TraceStore& store, uint32_t num_shards, uint32_t shard,
                  bool compress, SnapshotBuffer* out) {
  const int m = store.hierarchy().num_levels();
  const uint32_t n = store.num_entities();
  out->PutU32(static_cast<uint32_t>(m));
  for (Level l = 1; l <= m; ++l) {
    for (EntityId e = 0; e < n; ++e) {
      if (ShardOfEntity(e, num_shards) != shard) continue;
      const std::span<const CellId> cells = store.cells(e, l);
      if (compress) {
        EncodeIdList(cells, &out->vec());
      } else {
        out->PutU32(static_cast<uint32_t>(cells.size()));
        out->PutBytes(cells.data(), cells.size() * sizeof(CellId));
      }
    }
  }
}

// One walk over a traces section, replaying EncodeTraces' entity order.
// Counting pass (cells == nullptr): per-entity sizes land in counts[l][e].
// Filling pass: decoded cells land at their CSR offsets in `cells`. Two
// passes because the CSR layout cannot be fixed until every shard's section
// has been counted.
Status WalkTraces(std::span<const uint8_t> payload, const SnapshotConfig& cfg,
                  uint32_t shard, std::vector<std::vector<uint32_t>>* counts,
                  TraceStore::RestoredCells* cells) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::Corruption("snapshot traces section truncated");
  }
  uint32_t m = 0;
  std::memcpy(&m, payload.data(), sizeof(m));
  if (m != cfg.num_levels) {
    return Status::Corruption("snapshot traces level count mismatch");
  }
  size_t pos = sizeof(uint32_t);
  std::vector<uint32_t> scratch;
  for (uint32_t l = 0; l < cfg.num_levels; ++l) {
    for (EntityId e = 0; e < cfg.num_entities; ++e) {
      if (ShardOfEntity(e, cfg.num_shards) != shard) continue;
      if (cfg.compress != 0) {
        const size_t used =
            DecodeIdList(payload.data() + pos, payload.size() - pos, &scratch);
        if (used == 0) {
          return Status::Corruption("snapshot traces cell blob corrupt");
        }
        pos += used;
        if (cells != nullptr) {
          std::copy(scratch.begin(), scratch.end(),
                    cells->cells[l].begin() +
                        static_cast<size_t>(cells->offsets[l][e]));
        } else {
          (*counts)[l][e] = static_cast<uint32_t>(scratch.size());
        }
      } else {
        if (payload.size() - pos < sizeof(uint32_t)) {
          return Status::Corruption("snapshot traces section truncated");
        }
        uint32_t count = 0;
        std::memcpy(&count, payload.data() + pos, sizeof(count));
        pos += sizeof(uint32_t);
        const size_t bytes = static_cast<size_t>(count) * sizeof(CellId);
        if (payload.size() - pos < bytes) {
          return Status::Corruption("snapshot traces section truncated");
        }
        if (cells != nullptr) {
          std::memcpy(cells->cells[l].data() +
                          static_cast<size_t>(cells->offsets[l][e]),
                      payload.data() + pos, bytes);
        } else {
          (*counts)[l][e] = count;
        }
        pos += bytes;
      }
    }
  }
  if (pos != payload.size()) {
    return Status::Corruption("snapshot traces trailing bytes");
  }
  return Status::Ok();
}

// CSR layout from the counting pass: offsets[l][e+1] - offsets[l][e] =
// counts[l][e], cells sized to the totals, ready for the filling pass.
void LayOutRestoredCells(const std::vector<std::vector<uint32_t>>& counts,
                         uint32_t num_entities,
                         TraceStore::RestoredCells* cells) {
  const size_t m = counts.size();
  cells->offsets.resize(m);
  cells->cells.resize(m);
  for (size_t l = 0; l < m; ++l) {
    cells->offsets[l].assign(static_cast<size_t>(num_entities) + 1, 0);
    for (uint32_t e = 0; e < num_entities; ++e) {
      cells->offsets[l][e + 1] = cells->offsets[l][e] + counts[l][e];
    }
    cells->cells[l].resize(
        static_cast<size_t>(cells->offsets[l][num_entities]));
  }
}

void EncodeTree(const MinSigTree& tree, SnapshotBuffer* out) {
  out->PutU32(static_cast<uint32_t>(tree.num_levels()));
  out->PutU32(static_cast<uint32_t>(tree.num_functions()));
  out->PutU32(static_cast<uint32_t>(tree.num_nodes()));
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const MinSigTree::Node& n = tree.node(static_cast<uint32_t>(i));
    out->PutU32(static_cast<uint32_t>(n.level));
    out->PutU32(static_cast<uint32_t>(n.routing));
    out->PutU64(n.value);
    out->PutU32(static_cast<uint32_t>(n.parent));  // -1 -> 0xFFFFFFFF
    out->PutU32(static_cast<uint32_t>(n.children.size()));
    out->PutBytes(n.children.data(), n.children.size() * sizeof(uint32_t));
    out->PutU32(static_cast<uint32_t>(n.entities.size()));
    out->PutBytes(n.entities.data(), n.entities.size() * sizeof(EntityId));
  }
}

Status DecodeTree(std::span<const uint8_t> payload, const SnapshotConfig& cfg,
                  std::optional<MinSigTree>* out) {
  SnapshotCursor cur(payload);
  uint32_t m = 0, nh = 0, num_nodes = 0;
  if (!cur.GetU32(&m) || !cur.GetU32(&nh) || !cur.GetU32(&num_nodes)) {
    return Status::Corruption("snapshot tree header truncated");
  }
  if (m != cfg.num_levels || nh != cfg.num_functions || num_nodes == 0) {
    return Status::Corruption("snapshot tree header mismatch");
  }
  std::vector<MinSigTree::Node> nodes;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    MinSigTree::Node n;
    uint32_t level = 0, routing = 0, parent = 0, count = 0;
    if (!cur.GetU32(&level) || !cur.GetU32(&routing) || !cur.GetU64(&n.value) ||
        !cur.GetU32(&parent) || !cur.GetU32(&count)) {
      return Status::Corruption("snapshot tree node truncated");
    }
    // Structural bounds: nodes serialize in allocation order, so a parent
    // always precedes its children and child indices always exceed the
    // parent's — the invariants AddNode guarantees on the write side.
    if (level > m || routing >= nh ||
        (i == 0 ? (level != 0 || parent != ~uint32_t{0})
                : (level == 0 || parent >= i))) {
      return Status::Corruption("snapshot tree node malformed");
    }
    n.level = static_cast<Level>(level);
    n.routing = static_cast<int>(routing);
    n.parent = i == 0 ? -1 : static_cast<int32_t>(parent);
    // Bound the count before allocating: a checksummed-valid but malformed
    // length must fail cleanly, not drive resize() into bad_alloc.
    if (cur.remaining() < static_cast<size_t>(count) * sizeof(uint32_t)) {
      return Status::Corruption("snapshot tree children truncated");
    }
    n.children.resize(count);
    cur.GetBytes(n.children.data(),
                 static_cast<size_t>(count) * sizeof(uint32_t));
    for (uint32_t c : n.children) {
      if (c <= i || c >= num_nodes) {
        return Status::Corruption("snapshot tree child out of range");
      }
    }
    if (!cur.GetU32(&count)) {
      return Status::Corruption("snapshot tree node truncated");
    }
    if (cur.remaining() < static_cast<size_t>(count) * sizeof(EntityId)) {
      return Status::Corruption("snapshot tree entities truncated");
    }
    n.entities.resize(count);
    cur.GetBytes(n.entities.data(),
                 static_cast<size_t>(count) * sizeof(EntityId));
    for (EntityId e : n.entities) {
      if (e >= cfg.num_entities) {
        return Status::Corruption("snapshot tree entity out of range");
      }
    }
    if (!n.entities.empty() && level != m) {
      return Status::Corruption("snapshot tree entities on a non-leaf");
    }
    nodes.push_back(std::move(n));
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("snapshot tree trailing bytes");
  }
  *out = MinSigTree::FromNodes(static_cast<int>(m), static_cast<int>(nh),
                               MinSigTree::Options{}, std::move(nodes));
  return Status::Ok();
}

// Per-shard section names carry a "_<shard>" suffix in sharded snapshots;
// a single-index snapshot uses the bare names.
std::string SectionName(const char* base, uint32_t shard, bool sharded) {
  return sharded ? std::string(base) + "_" + std::to_string(shard)
                 : std::string(base);
}

// The per-shard state a snapshot captures: the shard tree and the latch
// that freezes it (together with the store's traces) at one commit.
struct ShardCapture {
  RWLatch* latch;
  const MinSigTree* tree;
};

// The one snapshot writer behind both facades. Sections: config,
// hierarchy, then per shard a (traces, tree) pair — suffixed "_<s>" in a
// sharded snapshot. A single index is the 1-shard case with unsuffixed
// names.
Status WriteSnapshot(SnapshotEnv* env, uint64_t kind,
                     const IndexOptions& options, const TraceStore& store,
                     std::span<const ShardCapture> shards, bool compress) {
  if (options.store_full_signatures) {
    return Status::FailedPrecondition(
        "snapshots do not support full-signature mode");
  }
  const auto num_shards = static_cast<uint32_t>(shards.size());
  const bool sharded = kind == kSnapshotKindSharded;
  SnapshotWriter writer(env, kind);
  SnapshotBuffer config;
  EncodeConfig(ConfigFor(options, store, num_shards, compress), &config);
  Status s = writer.AddSection("config", config.bytes());
  if (!s.ok()) return s;
  SnapshotBuffer hierarchy;
  EncodeHierarchy(store.hierarchy(), &hierarchy);
  s = writer.AddSection("hierarchy", hierarchy.bytes());
  if (!s.ok()) return s;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    // One read guard over the shard's (traces, tree) pair: each pair is
    // exactly one of that shard's committed versions — the same per-shard
    // version vector concurrent queries run against.
    const RWLatch::ReadGuard guard(*shards[shard].latch);
    SnapshotBuffer traces;
    EncodeTraces(store, num_shards, shard, compress, &traces);
    s = writer.AddSection(SectionName("traces", shard, sharded),
                          traces.bytes());
    if (!s.ok()) return s;
    SnapshotBuffer tree;
    EncodeTree(*shards[shard].tree, &tree);
    s = writer.AddSection(SectionName("tree", shard, sharded), tree.bytes());
    if (!s.ok()) return s;
  }
  return writer.Commit();
}

// What ReadSnapshot restores; the facades assemble their indexes from it.
struct RestoredShards {
  std::unique_ptr<SpatialHierarchy> hierarchy;
  std::shared_ptr<TraceStore> store;
  IndexOptions options;
  std::vector<MinSigTree> trees;  // one per shard
};

// The one snapshot reader behind both facades: restores the newest valid
// snapshot of `kind` (the section layout WriteSnapshot emits for it).
// Sections are looked up by name, so any other section a manifest lists —
// the `router` section of snapshots written by older builds — is ignored.
Status ReadSnapshot(const SnapshotEnv& env, uint64_t kind,
                    RestoredShards* out) {
  const bool sharded = kind == kSnapshotKindSharded;
  SnapshotManifest manifest;
  Status s = LoadNewestManifest(env, &manifest);
  if (!s.ok()) return s;
  if (manifest.kind != kind) {
    return Status::Corruption(
        sharded ? "snapshot kind mismatch (want sharded)"
                : "snapshot kind mismatch (want single-index)");
  }
  std::vector<uint8_t> payload;
  s = ReadSnapshotSection(env, manifest, "config", &payload);
  if (!s.ok()) return s;
  SnapshotConfig cfg;
  s = DecodeConfig(payload, &cfg);
  if (!s.ok()) return s;
  if (!sharded && cfg.num_shards != 1) {
    return Status::Corruption("snapshot config shard count mismatch");
  }
  s = ReadSnapshotSection(env, manifest, "hierarchy", &payload);
  if (!s.ok()) return s;
  std::unique_ptr<SpatialHierarchy> hierarchy;
  s = DecodeHierarchy(payload, cfg, &hierarchy);
  if (!s.ok()) return s;

  // All shards share one store: count every shard's trace partition first,
  // lay out the CSR arrays once, then fill from each section.
  std::vector<std::vector<uint8_t>> trace_payloads(cfg.num_shards);
  std::vector<std::vector<uint32_t>> counts(
      cfg.num_levels, std::vector<uint32_t>(cfg.num_entities, 0));
  for (uint32_t shard = 0; shard < cfg.num_shards; ++shard) {
    s = ReadSnapshotSection(env, manifest,
                            SectionName("traces", shard, sharded),
                            &trace_payloads[shard]);
    if (!s.ok()) return s;
    s = WalkTraces(trace_payloads[shard], cfg, shard, &counts, nullptr);
    if (!s.ok()) return s;
  }
  TraceStore::RestoredCells cells;
  LayOutRestoredCells(counts, cfg.num_entities, &cells);
  for (uint32_t shard = 0; shard < cfg.num_shards; ++shard) {
    s = WalkTraces(trace_payloads[shard], cfg, shard, nullptr, &cells);
    if (!s.ok()) return s;
  }
  trace_payloads.clear();

  std::vector<MinSigTree> trees;
  for (uint32_t shard = 0; shard < cfg.num_shards; ++shard) {
    s = ReadSnapshotSection(env, manifest, SectionName("tree", shard, sharded),
                            &payload);
    if (!s.ok()) return s;
    std::optional<MinSigTree> tree;
    s = DecodeTree(payload, cfg, &tree);
    if (!s.ok()) return s;
    trees.push_back(std::move(*tree));
  }

  out->store = std::make_shared<TraceStore>(
      *hierarchy, cfg.num_entities, static_cast<TimeStep>(cfg.horizon),
      std::move(cells));
  out->hierarchy = std::move(hierarchy);
  out->options = OptionsFor(cfg);
  out->trees = std::move(trees);
  return Status::Ok();
}

}  // namespace

Status DigitalTraceIndex::SaveSnapshot(SnapshotEnv* env, bool compress) const {
  const ShardCapture self{&cc_->latch, &tree_};
  return WriteSnapshot(env, kSnapshotKindIndex, options_, *store_, {&self, 1},
                       compress);
}

Status DigitalTraceIndex::LoadSnapshot(const SnapshotEnv& env,
                                       LoadedIndex* out) {
  RestoredShards restored;
  const Status s = ReadSnapshot(env, kSnapshotKindIndex, &restored);
  if (!s.ok()) return s;
  out->index.reset(new DigitalTraceIndex(
      restored.store, restored.options,
      MakeHasher(*restored.store, restored.options),
      std::move(restored.trees[0]), /*build_seconds=*/0.0));
  out->hierarchy = std::move(restored.hierarchy);
  out->store = std::move(restored.store);
  return Status::Ok();
}

Status ShardedIndex::SaveSnapshot(SnapshotEnv* env, bool compress) const {
  std::vector<ShardCapture> shards;
  for (const auto& shard : shards_) {
    shards.push_back({&shard->cc_->latch, &shard->tree_});
  }
  return WriteSnapshot(env, kSnapshotKindSharded, options_.index, *store_,
                       shards, compress);
}

Status ShardedIndex::LoadSnapshot(const SnapshotEnv& env,
                                  LoadedShardedIndex* out) {
  RestoredShards restored;
  const Status s = ReadSnapshot(env, kSnapshotKindSharded, &restored);
  if (!s.ok()) return s;
  const int num_shards = static_cast<int>(restored.trees.size());
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index = restored.options;
  std::unique_ptr<ShardedIndex> index(
      new ShardedIndex(restored.store, options));
  for (int shard = 0; shard < num_shards; ++shard) {
    index->shards_.emplace_back(new DigitalTraceIndex(
        restored.store, options.index,
        MakeHasher(*restored.store, options.index),
        std::move(restored.trees[shard]), /*build_seconds=*/0.0));
  }
  out->hierarchy = std::move(restored.hierarchy);
  out->store = std::move(restored.store);
  out->index = std::move(index);
  return Status::Ok();
}

}  // namespace dtrace
