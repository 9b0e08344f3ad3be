// Paged MinSigTree (core/paged_min_sig_tree.h): SoA page layout round
// trips, packing reproduces the heap tree node for node, queries over every
// backing (in-memory pages, SimDisk + BufferPool, pool shared with a
// PagedTraceSource) are bit-identical to the in-memory search, tree-page
// I/O lands in the split QueryStats counters, maintenance repacks the
// snapshot, and zone maps measurably reduce tree_pages_read against a
// no-zone-map build of the same index.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/index.h"
#include "core/paged_min_sig_tree.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"
#include "storage/tree_page.h"
#include "storage/tree_page_source.h"
#include "util/rng.h"

namespace dtrace {
namespace {

void ExpectIdentical(const TopKResult& expected, const TopKResult& actual,
                     const char* what) {
  ASSERT_EQ(expected.items.size(), actual.items.size()) << what;
  for (size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].entity, actual.items[i].entity)
        << what << " rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score)
        << what << " rank " << i;
  }
}

TEST(TreePageLayoutTest, HeaderAndNodeSlotsRoundTrip) {
  Page page;
  page.data.fill(0);
  const TreePageHeader header{/*count=*/151, /*filter_level=*/3,
                              /*zone_min=*/0x0123456789abcdefull};
  StoreTreePageHeader(page.data.data(), header);
  const TreePageHeader back = LoadTreePageHeader(page.data.data());
  EXPECT_EQ(back.count, header.count);
  EXPECT_EQ(back.filter_level, header.filter_level);
  EXPECT_EQ(back.zone_min, header.zone_min);

  // First and last slot of a full page: no column may bleed into another.
  const TreeNodeRecord lo{~uint64_t{0}, 1, 2, 3, 4, 5, 6};
  const TreeNodeRecord hi{0x55aa55aa55aa55aaull, 0xffffffffu, 0xeeeeeeeeu,
                          0xddddddddu, 0xccccccccu, 0xbbbb, 0xaa};
  StoreTreeNode(page.data.data(), 0, lo);
  StoreTreeNode(page.data.data(), kTreeNodesPerPage - 1, hi);
  for (const auto& [slot, rec] :
       {std::pair<size_t, TreeNodeRecord>{0, lo},
        std::pair<size_t, TreeNodeRecord>{kTreeNodesPerPage - 1, hi}}) {
    const TreeNodeRecord got = LoadTreeNode(page.data.data(), slot);
    EXPECT_EQ(got.value, rec.value) << slot;
    EXPECT_EQ(got.child_off, rec.child_off) << slot;
    EXPECT_EQ(got.child_count, rec.child_count) << slot;
    EXPECT_EQ(got.entity_off, rec.entity_off) << slot;
    EXPECT_EQ(got.entity_count, rec.entity_count) << slot;
    EXPECT_EQ(got.routing, rec.routing) << slot;
    EXPECT_EQ(got.level, rec.level) << slot;
  }
  // Header survived the slot writes.
  EXPECT_EQ(LoadTreePageHeader(page.data.data()).zone_min, header.zone_min);
}

TEST(TreePageLayoutTest, ZoneValueCodecIsAMonotoneFloor) {
  uint8_t prev_code = 0;
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
        uint64_t{5}, uint64_t{7}, uint64_t{8}, uint64_t{100},
        uint64_t{12345}, uint64_t{1} << 32, (uint64_t{1} << 33) + 9,
        uint64_t{0x0123456789abcdef}, ~uint64_t{0}}) {
    const uint8_t code = EncodeZoneValue(v);
    const uint64_t floor = DecodeZoneValueFloor(code);
    EXPECT_LE(floor, v) << v;               // admissible
    EXPECT_LE(v - floor, floor >> 2) << v;  // 2-bit-mantissa tight
    EXPECT_GE(code, prev_code) << v;        // monotone
    prev_code = code;
  }
}

TEST(PagedMinSigTreeTest, PackReproducesEveryNode) {
  const Dataset d = MakeSynDataset(600, /*seed=*/41);
  const auto index = DigitalTraceIndex::Build(
      d.store, {.num_functions = 96, .seed = 17});
  const MinSigTree& tree = index.tree();
  const PagedMinSigTree paged = PagedMinSigTree::Pack(
      tree, std::make_unique<InMemoryTreePageStore>());

  ASSERT_EQ(paged.num_nodes(), tree.num_nodes());
  EXPECT_EQ(paged.num_entities(), tree.num_entities());
  EXPECT_EQ(paged.num_levels(), tree.num_levels());
  EXPECT_EQ(paged.num_functions(), tree.num_functions());
  EXPECT_EQ(paged.root(), tree.root());
  EXPECT_GT(paged.node_pages(), 1u);  // more than one page, or no paging
  EXPECT_EQ(paged.PackedBytes(), paged.num_pages() * kPageSize);

  const auto cursor = paged.OpenNodeCursor();
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const MinSigTree::Node& n = tree.node(id);
    const TreeNodeView v = cursor->Node(id);
    ASSERT_EQ(v.level, n.level) << "node " << id;
    ASSERT_EQ(v.routing, n.routing) << "node " << id;
    ASSERT_EQ(v.value, n.value) << "node " << id;
    ASSERT_EQ(std::vector<uint32_t>(v.children.begin(), v.children.end()),
              n.children)
        << "node " << id;
    ASSERT_EQ(std::vector<EntityId>(v.entities.begin(), v.entities.end()),
              n.entities)
        << "node " << id;
    EXPECT_TRUE(v.full_sig.empty());
  }
  for (EntityId e = 0; e < d.num_entities() + 10; ++e) {
    EXPECT_EQ(paged.Contains(e), tree.Contains(e)) << "entity " << e;
  }
  // Zone maps exist and are consistent with the packed nodes.
  EXPECT_TRUE(paged.zone_maps());
  EXPECT_TRUE(cursor->has_zone_maps());
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const auto zone = cursor->Zone(id);
    ASSERT_TRUE(zone.has_value());
    EXPECT_EQ(zone->level, tree.node(id).level);
    EXPECT_EQ(zone->routing, tree.node(id).routing);
    // The floor is admissible (never above the true value) and tight to
    // the codec's 2-bit mantissa.
    EXPECT_LE(zone->value_floor, tree.node(id).value);
    EXPECT_LE(tree.node(id).value - zone->value_floor,
              zone->value_floor >> 2);
  }
}

TEST(PagedMinSigTreeTest, CompressedPackReproducesEveryNode) {
  const Dataset d = MakeSynDataset(600, /*seed=*/41);
  const auto index = DigitalTraceIndex::Build(
      d.store, {.num_functions = 96, .seed = 17});
  const MinSigTree& tree = index.tree();
  const PagedMinSigTree raw = PagedMinSigTree::Pack(
      tree, std::make_unique<InMemoryTreePageStore>());
  const PagedMinSigTree paged = PagedMinSigTree::Pack(
      tree, std::make_unique<InMemoryTreePageStore>(), /*zone_maps=*/true,
      /*compress=*/true);

  ASSERT_EQ(paged.num_nodes(), tree.num_nodes());
  EXPECT_TRUE(paged.compressed());
  EXPECT_FALSE(raw.compressed());
  // The compressed snapshot must actually shrink, and raw_bytes must equal
  // what the fixed layout genuinely occupies.
  EXPECT_EQ(raw.RawBytes(), raw.PackedBytes());
  EXPECT_EQ(paged.RawBytes(), raw.PackedBytes());
  EXPECT_LT(paged.PackedBytes(), paged.RawBytes());
  EXPECT_LT(paged.node_pages(), raw.node_pages());

  const auto cursor = paged.OpenNodeCursor();
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const MinSigTree::Node& n = tree.node(id);
    const TreeNodeView v = cursor->Node(id);
    ASSERT_EQ(v.level, n.level) << "node " << id;
    ASSERT_EQ(v.routing, n.routing) << "node " << id;
    ASSERT_EQ(v.value, n.value) << "node " << id;
    ASSERT_EQ(std::vector<uint32_t>(v.children.begin(), v.children.end()),
              n.children)
        << "node " << id;
    ASSERT_EQ(std::vector<EntityId>(v.entities.begin(), v.entities.end()),
              n.entities)
        << "node " << id;
  }
  for (EntityId e = 0; e < d.num_entities() + 10; ++e) {
    EXPECT_EQ(paged.Contains(e), tree.Contains(e)) << "entity " << e;
  }
  // Zone maps are layout-independent (resident, per node id).
  EXPECT_TRUE(paged.zone_maps());
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const auto zone = cursor->Zone(id);
    ASSERT_TRUE(zone.has_value());
    EXPECT_EQ(zone->level, tree.node(id).level);
    EXPECT_EQ(zone->routing, tree.node(id).routing);
    EXPECT_LE(zone->value_floor, tree.node(id).value);
  }
}

TEST(PagedMinSigTreeTest, InMemoryBackingIsBitIdenticalAndChargesOnlyHits) {
  const Dataset d = MakeSynDataset(600, /*seed=*/41);
  const IndexOptions iopts{.num_functions = 96, .seed = 17};
  const auto plain = DigitalTraceIndex::Build(d.store, iopts);
  auto paged = DigitalTraceIndex::Build(d.store, iopts);
  paged.EnablePagedTree();  // default: in-memory pages, zone maps on
  ASSERT_TRUE(paged.paged_tree_enabled());

  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  for (EntityId q : SampleQueries(*d.store, 6, 71)) {
    const TopKResult expected = plain.Query(q, 10, measure);
    const TopKResult actual = paged.Query(q, 10, measure);
    ExpectIdentical(expected, actual, "in-memory backing");
    // The in-memory tree charges nothing (seed behavior); the paged tree
    // pins in-memory pages — all hits, no reads, no modeled latency.
    EXPECT_EQ(expected.stats.io.tree_pages_read, 0u);
    EXPECT_EQ(expected.stats.io.tree_page_hits, 0u);
    EXPECT_EQ(actual.stats.io.tree_pages_read, 0u);
    EXPECT_GT(actual.stats.io.tree_page_hits, 0u);
    EXPECT_DOUBLE_EQ(actual.stats.io.modeled_io_seconds, 0.0);
    // Zone maps may only ever REMOVE work.
    EXPECT_LE(actual.stats.nodes_visited, expected.stats.nodes_visited);
    EXPECT_LE(actual.stats.entities_checked, expected.stats.entities_checked);
  }
  // BruteForce goes through the paged tree's Contains only.
  for (EntityId q : SampleQueries(*d.store, 2, 72)) {
    ExpectIdentical(plain.BruteForce(q, 10, measure),
                    paged.BruteForce(q, 10, measure), "brute force");
  }
}

TEST(PagedMinSigTreeTest, SimDiskBackingFaultsPagesAndStaysExact) {
  const Dataset d = MakeSynDataset(600, /*seed=*/41);
  const IndexOptions iopts{.num_functions = 96, .seed = 17};
  const auto plain = DigitalTraceIndex::Build(d.store, iopts);
  auto paged = DigitalTraceIndex::Build(d.store, iopts);
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = 0.3;  // pool well below the packed index
  paged.EnablePagedTree(popts);

  const PagedMinSigTree& snapshot = paged.paged_tree();
  const auto* store =
      dynamic_cast<const SimDiskTreePageStore*>(&snapshot.page_store());
  ASSERT_NE(store, nullptr);
  ASSERT_LT(store->pool()->capacity(), snapshot.num_pages());

  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  uint64_t total_reads = 0;
  for (EntityId q : SampleQueries(*d.store, 6, 73)) {
    const TopKResult expected = plain.Query(q, 10, measure);
    const TopKResult actual = paged.Query(q, 10, measure);
    ExpectIdentical(expected, actual, "simdisk backing");
    total_reads += actual.stats.io.tree_pages_read;
    if (actual.stats.io.tree_pages_read > 0) {
      EXPECT_GT(actual.stats.io.modeled_io_seconds, 0.0);
    }
  }
  EXPECT_GT(total_reads, 0u) << "a pool below the packed size must fault";
}

TEST(PagedMinSigTreeTest, QueryManyTreeIoTotalsDeterministicAcrossThreads) {
  const Dataset d = MakeSynDataset(500, /*seed=*/43);
  auto paged = DigitalTraceIndex::Build(
      d.store, {.num_functions = 96, .seed = 17});
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_fraction = 0.4;
  paged.EnablePagedTree(popts);
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 8, 74);

  // Per-query pin totals (reads + hits) are deterministic: the serial
  // search issues the same pin sequence regardless of how QueryMany
  // interleaves queries; only the read/hit split shifts with pool state.
  std::vector<uint64_t> ref;
  for (int threads : {1, 4}) {
    const auto results = paged.QueryMany(queries, 10, measure, {}, threads);
    std::vector<uint64_t> touched;
    for (const auto& r : results) {
      touched.push_back(r.stats.io.tree_pages_read +
                        r.stats.io.tree_page_hits);
      EXPECT_GT(touched.back(), 0u);
    }
    if (ref.empty()) {
      ref = touched;
    } else {
      EXPECT_EQ(ref, touched) << "threads " << threads;
    }
  }
}

TEST(PagedMinSigTreeTest, ZoneMapsReduceTreePagesRead) {
  // The acceptance experiment: the same index packed with and without zone
  // maps, behind a deliberately tiny pool so every avoided node fault is a
  // avoided disk read. Zone maps must (a) change no answer nor any search
  // counter — a rejected child is one the in-memory walk would not push
  // either — and (b) strictly reduce the summed tree_pages_read.
  const Dataset d = MakeSynDataset(800, /*seed=*/47);
  const IndexOptions iopts{.num_functions = 96, .seed = 17};
  const auto plain = DigitalTraceIndex::Build(d.store, iopts);
  auto with_zones = DigitalTraceIndex::Build(d.store, iopts);
  auto without_zones = DigitalTraceIndex::Build(d.store, iopts);
  PagedTreeOptions popts;
  popts.backing = PagedTreeOptions::Backing::kSimDisk;
  popts.disk.pool_pages = 4;
  with_zones.EnablePagedTree(popts);
  popts.zone_maps = false;
  without_zones.EnablePagedTree(popts);
  ASSERT_TRUE(with_zones.paged_tree().zone_maps());
  ASSERT_FALSE(without_zones.paged_tree().zone_maps());

  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  uint64_t reads_with = 0, reads_without = 0;
  uint64_t visited_with = 0, visited_without = 0;
  for (EntityId q : SampleQueries(*d.store, 10, 75)) {
    const TopKResult expected = plain.Query(q, 10, measure);
    const TopKResult a = with_zones.Query(q, 10, measure);
    const TopKResult b = without_zones.Query(q, 10, measure);
    ExpectIdentical(expected, a, "zone maps on");
    ExpectIdentical(expected, b, "zone maps off");
    for (const TopKResult* paged : {&a, &b}) {
      EXPECT_EQ(expected.stats.nodes_visited, paged->stats.nodes_visited);
      EXPECT_EQ(expected.stats.entities_checked,
                paged->stats.entities_checked);
      EXPECT_EQ(expected.stats.heap_pushes, paged->stats.heap_pushes);
    }
    reads_with += a.stats.io.tree_pages_read;
    reads_without += b.stats.io.tree_pages_read;
    visited_with += a.stats.nodes_visited;
    visited_without += b.stats.nodes_visited;
    // Per query, rejection never ADDS page traffic.
    EXPECT_LE(a.stats.io.tree_pages_read + a.stats.io.tree_page_hits,
              b.stats.io.tree_pages_read + b.stats.io.tree_page_hits);
  }
  EXPECT_LT(reads_with, reads_without)
      << "zone maps must reject whole pages (visited with/without: "
      << visited_with << "/" << visited_without << ")";
  EXPECT_LE(visited_with, visited_without);
}

TEST(PagedMinSigTreeTest, MaintenanceDirtiesAndRepacksTheSnapshot) {
  Dataset d = MakeSynDataset(500, /*seed=*/53);
  const IndexOptions iopts{.num_functions = 96, .seed = 17};
  std::vector<EntityId> initial;
  for (EntityId e = 0; e < 400; ++e) initial.push_back(e);
  auto plain = DigitalTraceIndex::Build(d.store, iopts, initial);
  auto paged = DigitalTraceIndex::Build(d.store, iopts, initial);
  paged.EnablePagedTree();
  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  const auto queries = SampleQueries(*d.store, 4, 76);

  const auto check = [&](const char* what) {
    for (EntityId q : queries) {
      ExpectIdentical(plain.Query(q, 10, measure), paged.Query(q, 10, measure),
                      what);
    }
  };
  check("before maintenance");

  // Batch insert the held-out tail.
  std::vector<EntityId> tail;
  for (EntityId e = 400; e < 500; ++e) tail.push_back(e);
  plain.InsertEntities(tail);
  paged.InsertEntities(tail);
  check("after insert");
  EXPECT_EQ(paged.paged_tree().num_nodes(), plain.tree().num_nodes());

  // Replace a trace, update, remove, refresh.
  Rng rng(991);
  const uint32_t base_units = d.hierarchy->num_base_units();
  std::vector<PresenceRecord> records;
  for (int i = 0; i < 12; ++i) {
    const auto t = static_cast<TimeStep>(rng.NextBelow(d.horizon - 1));
    records.push_back({7, static_cast<UnitId>(rng.NextBelow(base_units)), t,
                       t + 1});
  }
  d.store->ReplaceEntity(7, records);
  plain.UpdateEntity(7);
  paged.UpdateEntity(7);
  check("after update");

  plain.RemoveEntity(42);
  paged.RemoveEntity(42);
  check("after remove");

  plain.Refresh();
  paged.Refresh();
  check("after refresh");

  // Paging only turns on; enabling again with new options repacks onto the
  // new layout and publishes at an unchanged version, outside
  // snapshot_publishes, while a pin on the old snapshot keeps answering
  // until it drains.
  const uint64_t version = paged.version();
  const uint64_t publishes = paged.concurrency_stats().snapshot_publishes;
  {
    const DigitalTraceIndex::ReadPin old_pin = paged.PinForRead();
    PagedTreeOptions sim;
    sim.backing = PagedTreeOptions::Backing::kSimDisk;
    sim.compress = true;
    sim.disk.pool_fraction = 0.5;
    paged.EnablePagedTree(sim);
    EXPECT_TRUE(paged.paged_tree_enabled());
    EXPECT_EQ(paged.version(), version);
    EXPECT_EQ(paged.concurrency_stats().snapshot_publishes, publishes);
    EXPECT_NE(&paged.paged_tree(), old_pin.snapshot());
    EXPECT_TRUE(paged.paged_tree().compressed());
    EXPECT_FALSE(old_pin.snapshot()->compressed());
    EXPECT_EQ(paged.PinForRead().version(), old_pin.version());
    const SearchLane old_lane{&old_pin.tree(), {}, old_pin.version()};
    for (EntityId q : queries) {
      ExpectIdentical(plain.Query(q, 10, measure),
                      ForestTopKQuery({&old_lane, 1}, *d.store, paged.hasher(),
                                      measure, q, 10,
                                      {.trace_as_of = old_pin.version()}),
                      "old pin after re-enable");
    }
  }
  check("after re-enable");
}

TEST(PagedMinSigTreeTest, SharedPoolCarriesTraceAndTreePages) {
  // Scaling mode: tree pages live on the SAME disk, behind the SAME buffer
  // pool as the paged trace records, so the two working sets compete for
  // frames — and the per-client pool stats plus the split QueryStats
  // counters keep them separately observable.
  const Dataset d = MakeSynDataset(500, /*seed=*/59);
  const IndexOptions iopts{.num_functions = 96, .seed = 17};
  const auto plain = DigitalTraceIndex::Build(d.store, iopts);
  auto paged = DigitalTraceIndex::Build(d.store, iopts);

  PagedTraceSource::Options src_opts;
  src_opts.pool_fraction = 0.0;  // sized below, after the tree lands
  src_opts.pool_pages = 96;
  const PagedTraceSource source(*d.store, src_opts);
  PagedTreeOptions popts;
  popts.shared_disk = source.disk();
  popts.shared_pool = source.pool();
  paged.EnablePagedTree(popts);

  PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  QueryOptions qopts;
  qopts.trace_source = &source;
  uint64_t tree_pins = 0, trace_pins = 0;
  for (EntityId q : SampleQueries(*d.store, 5, 77)) {
    const TopKResult expected = plain.Query(q, 10, measure, qopts);
    const TopKResult actual = paged.Query(q, 10, measure, qopts);
    ExpectIdentical(expected, actual, "shared pool");
    tree_pins += actual.stats.io.tree_pages_read +
                 actual.stats.io.tree_page_hits;
    trace_pins += actual.stats.io.pages_read + actual.stats.io.pages_hit;
  }
  EXPECT_GT(tree_pins, 0u);
  EXPECT_GT(trace_pins, 0u);
  const BufferPool::Stats stats = source.pool_stats();
  const auto trace = static_cast<size_t>(PoolClient::kTrace);
  const auto tree = static_cast<size_t>(PoolClient::kTree);
  EXPECT_GT(stats.client_hits[tree] + stats.client_misses[tree], 0u);
  EXPECT_GT(stats.client_hits[trace] + stats.client_misses[trace], 0u);
  EXPECT_LE(stats.client_resident[trace] + stats.client_resident[tree],
            source.pool()->capacity());
}

TEST(PagedMinSigTreeDeathTest, FullSignatureModeIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset d = MakeSynDataset(120, /*seed=*/61);
  auto index = DigitalTraceIndex::Build(
      d.store,
      {.num_functions = 32, .seed = 17, .store_full_signatures = true});
  EXPECT_DEATH(index.EnablePagedTree(), "full-signature");
}

}  // namespace
}  // namespace dtrace
