#include "storage/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/types.h"
#include "util/rng.h"

namespace dtrace {
namespace {

TEST(ExternalSortCostTest, MatchesSection43Formula) {
  // Single in-memory run: one pass, 2N I/Os.
  EXPECT_EQ(ExternalSortPasses(8, 10), 1u);
  EXPECT_EQ(ExternalSortIoCost(8, 10), 16u);
  // 100 pages, 10 buffers: 10 runs, merged 9-way -> 2 merge rounds? 10 runs
  // / 9-way = 2 merge passes... ceil(10/9)=2 then 1: 3 passes total.
  EXPECT_EQ(ExternalSortPasses(100, 10), 3u);
  EXPECT_EQ(ExternalSortIoCost(100, 10), 600u);
  EXPECT_EQ(ExternalSortPasses(0, 10), 0u);
}

TEST(ExternalSorterTest, SortsSmallInput) {
  SimDisk disk;
  ExternalSorter<uint64_t> sorter(&disk, 3);
  const auto out = sorter.Sort({5, 1, 4, 2, 3});
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(ExternalSorterTest, SortsEmptyInput) {
  SimDisk disk;
  ExternalSorter<uint64_t> sorter(&disk, 3);
  EXPECT_TRUE(sorter.Sort({}).empty());
}

TEST(ExternalSorterTest, SortsLargeInputWithSpills) {
  SimDisk disk;
  ExternalSorter<uint64_t> sorter(&disk, 3);  // tiny buffer forces merging
  Rng rng(1);
  std::vector<uint64_t> input;
  for (int i = 0; i < 20000; ++i) input.push_back(rng.Next() % 100000);
  std::vector<uint64_t> expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorter.Sort(input), expected);
  EXPECT_GT(disk.reads(), 0u);
  EXPECT_GT(disk.writes(), 0u);
}

TEST(ExternalSorterTest, SortsPresenceRecordsByEntity) {
  // The index-construction use case: group raw digital traces by entity.
  struct ByEntityTime {
    bool operator()(const PresenceRecord& a, const PresenceRecord& b) const {
      if (a.entity != b.entity) return a.entity < b.entity;
      return a.begin < b.begin;
    }
  };
  SimDisk disk;
  ExternalSorter<PresenceRecord, ByEntityTime> sorter(&disk, 4);
  Rng rng(2);
  std::vector<PresenceRecord> input;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<TimeStep>(rng.NextBelow(100));
    input.push_back({static_cast<EntityId>(rng.NextBelow(50)),
                     static_cast<UnitId>(rng.NextBelow(20)), t, t + 1});
  }
  const auto out = sorter.Sort(input);
  ASSERT_EQ(out.size(), input.size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_FALSE(ByEntityTime{}(out[i], out[i - 1])) << "not sorted at " << i;
  }
}

TEST(ExternalSorterTest, IoCountTracksPredictedCost) {
  // The measured page I/O should be close to the Sec. 4.3 formula (the
  // formula assumes full pages; the last page of each run may be partial).
  SimDisk disk;
  const size_t buffer_pages = 4;
  ExternalSorter<uint64_t> sorter(&disk, buffer_pages);
  std::vector<uint64_t> input(ExternalSorter<uint64_t>::kPerPage * 64);
  Rng rng(3);
  for (auto& v : input) v = rng.Next();
  sorter.Sort(input);
  const uint64_t n_pages = 64;
  const uint64_t predicted = ExternalSortIoCost(n_pages, buffer_pages);
  const uint64_t measured = disk.reads() + disk.writes();
  EXPECT_GE(measured, predicted);
  // Final materialization adds one extra read pass.
  EXPECT_LE(measured, predicted + 2 * n_pages + 8);
}

TEST(ExternalSorterTest, PreservesDuplicates) {
  SimDisk disk;
  ExternalSorter<uint64_t> sorter(&disk, 3);
  std::vector<uint64_t> input(1000, 7);
  input.push_back(3);
  const auto out = sorter.Sort(input);
  EXPECT_EQ(out.size(), 1001u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out.back(), 7u);
}

}  // namespace
}  // namespace dtrace
