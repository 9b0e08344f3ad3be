#include "storage/paged_trace_store.h"

#include <gtest/gtest.h>

#include <memory>

#include "mobility/hierarchy_generator.h"
#include "storage/buffer_pool.h"
#include "trace/trace_store.h"
#include "util/codec.h"
#include "util/rng.h"

namespace dtrace {
namespace {

class PagedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hierarchy_ = GenerateGridHierarchy(8, {.m = 3, .a = 1.5, .b = 1.5});
    Rng rng(5);
    std::vector<PresenceRecord> records;
    for (EntityId e = 0; e < 50; ++e) {
      const int n = static_cast<int>(rng.NextBelow(120));  // incl. empty
      for (int i = 0; i < n; ++i) {
        const auto unit =
            static_cast<UnitId>(rng.NextBelow(hierarchy_->num_base_units()));
        const auto t = static_cast<TimeStep>(rng.NextBelow(47));
        records.push_back({e, unit, t, t + 1});
      }
    }
    store_ = std::make_unique<TraceStore>(*hierarchy_, 50, 48, records);
  }

  std::shared_ptr<const SpatialHierarchy> hierarchy_;
  std::unique_ptr<TraceStore> store_;
};

TEST_F(PagedStoreTest, RoundTripsEveryEntity) {
  SimDisk disk;
  PagedTraceStore paged(*store_, &disk);
  BufferPool pool(&disk, paged.num_pages() + 1);
  for (EntityId e = 0; e < 50; ++e) {
    const auto cells = paged.ReadEntity(&pool, e);
    ASSERT_EQ(cells.size(), 3u);
    for (Level l = 1; l <= 3; ++l) {
      const auto expected = store_->cells(e, l);
      ASSERT_EQ(cells[l - 1].size(), expected.size()) << "entity " << e;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(cells[l - 1][i], expected[i]);
      }
    }
  }
}

TEST_F(PagedStoreTest, SmallPoolCausesMisses) {
  SimDisk disk;
  PagedTraceStore paged(*store_, &disk);
  ASSERT_GT(paged.num_pages(), 2u);
  disk.ResetStats();

  // Scattered access pattern (as a query's candidate evaluations would be).
  std::vector<EntityId> order;
  for (int round = 0; round < 3; ++round) {
    for (EntityId e = 0; e < 50; ++e) {
      order.push_back((e * 17 + round * 7) % 50);
    }
  }
  BufferPool tiny(&disk, 1);
  for (EntityId e : order) paged.ReadEntity(&tiny, e);
  const uint64_t tiny_reads = disk.reads();

  disk.ResetStats();
  BufferPool big(&disk, paged.num_pages());
  for (EntityId e : order) paged.ReadEntity(&big, e);
  const uint64_t big_reads = disk.reads();
  // The big pool reads each page at most once across all rounds.
  EXPECT_LE(big_reads, paged.num_pages());
  EXPECT_GT(tiny_reads, big_reads);
}

TEST_F(PagedStoreTest, DataBytesAccountsForCells) {
  SimDisk disk;
  PagedTraceStore paged(*store_, &disk);
  // Each cell is one uint32 plus m counts per entity.
  const uint64_t floor_bytes =
      store_->total_cells() * sizeof(uint32_t) + 50ull * 3 * sizeof(uint32_t);
  EXPECT_GE(paged.data_bytes(), floor_bytes);
  EXPECT_EQ(paged.num_pages(),
            (paged.data_bytes() + kPageSize - 1) / kPageSize);
}

TEST_F(PagedStoreTest, CompressedRoundTripsEveryEntity) {
  SimDisk disk;
  PagedTraceStore paged(*store_, &disk, /*compress=*/true);
  ASSERT_TRUE(paged.compressed());
  BufferPool pool(&disk, paged.num_pages() + 1);
  for (EntityId e = 0; e < 50; ++e) {
    const auto cells = paged.ReadEntity(&pool, e);
    ASSERT_EQ(cells.size(), 3u);
    for (Level l = 1; l <= 3; ++l) {
      const auto expected = store_->cells(e, l);
      ASSERT_EQ(cells[l - 1].size(), expected.size())
          << "entity " << e << " level " << l;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(cells[l - 1][i], expected[i]);
      }
    }
  }
}

TEST_F(PagedStoreTest, CompressedShrinksPagesAndTracksRawBytes) {
  SimDisk raw_disk, packed_disk;
  PagedTraceStore raw(*store_, &raw_disk);
  PagedTraceStore packed(*store_, &packed_disk, /*compress=*/true);
  // raw_bytes is defined as "what the uncompressed writer would occupy".
  EXPECT_FALSE(raw.compressed());
  EXPECT_EQ(raw.raw_bytes(), raw.data_bytes());
  EXPECT_EQ(packed.raw_bytes(), raw.data_bytes());
  EXPECT_LT(packed.data_bytes(), packed.raw_bytes());
  EXPECT_LE(packed.num_pages(), raw.num_pages());
}

TEST_F(PagedStoreTest, PackedReadDecodesToTheSameCells) {
  SimDisk disk;
  PagedTraceStore paged(*store_, &disk, /*compress=*/true);
  BufferPool pool(&disk, paged.num_pages() + 1);
  std::vector<uint8_t> packed;
  std::vector<CellId> level;
  for (EntityId e = 0; e < 50; ++e) {
    paged.ReadEntityPacked(&pool, e, &packed);
    EXPECT_EQ(packed.size(), paged.entity_bytes(e));
    size_t off = 0;
    for (Level l = 1; l <= 3; ++l) {
      off += DecodeIdList(packed.data() + off, packed.size() - off, &level);
      const auto expected = store_->cells(e, l);
      ASSERT_EQ(level.size(), expected.size()) << "entity " << e;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(level[i], expected[i]);
      }
    }
    EXPECT_EQ(off, packed.size());
  }
}

}  // namespace
}  // namespace dtrace
