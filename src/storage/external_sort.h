#ifndef DTRACE_STORAGE_EXTERNAL_SORT_H_
#define DTRACE_STORAGE_EXTERNAL_SORT_H_

#include <algorithm>
#include <cstring>
#include <queue>
#include <vector>

#include "storage/sim_disk.h"
#include "util/check.h"

namespace dtrace {

/// Predicted I/O cost of a B-way external merge sort over N pages (Sec. 4.3):
/// 2N * (1 + ceil(log_B ceil(N/B))) page accesses — each pass reads and
/// writes every page once. Returns 0 for N == 0.
uint64_t ExternalSortIoCost(uint64_t n_pages, uint64_t buffer_pages);

/// Number of passes of the same sort (1 run-formation pass + merge passes).
uint64_t ExternalSortPasses(uint64_t n_pages, uint64_t buffer_pages);

/// B-way external merge sort of trivially-copyable records over a SimDisk,
/// using at most `buffer_pages` in-memory page frames (the paper's
/// index-construction preprocessing: digital traces arrive unordered and
/// must be grouped by entity before signature computation). Records are
/// packed kPerPage to a page; runs live entirely on the simulated disk, so
/// the disk's read/write counters measure the true I/O cost, which
/// storage_test checks against ExternalSortIoCost.
template <typename Record, typename Less = std::less<Record>>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<Record>);

 public:
  ExternalSorter(SimDisk* disk, size_t buffer_pages, Less less = Less{})
      : disk_(disk), buffer_pages_(buffer_pages), less_(less) {
    DT_CHECK(disk != nullptr);
    DT_CHECK_MSG(buffer_pages >= 3, "merge sort needs >= 3 buffer pages");
  }

  static constexpr size_t kPerPage = kPageSize / sizeof(Record);

  /// Sorts `input` and returns the sorted sequence (materialized from the
  /// final on-disk run). The in-memory working set never exceeds
  /// buffer_pages pages of records (plus bookkeeping).
  std::vector<Record> Sort(const std::vector<Record>& input) {
    FormRuns(input);
    if (runs_.empty()) return {};
    MergePasses();
    return ReadRun(runs_[0]);
  }

 private:
  struct RunMeta {
    std::vector<PageId> pages;
    uint64_t num_records = 0;
  };

  // One-page streaming reader over a run.
  class RunReader {
   public:
    RunReader(SimDisk* disk, const RunMeta* run) : disk_(disk), run_(run) {}

    bool Next(Record* out) {
      if (consumed_ == run_->num_records) return false;
      const size_t in_page = consumed_ % kPerPage;
      if (in_page == 0) {
        disk_->Read(run_->pages[consumed_ / kPerPage], &page_);
      }
      std::memcpy(out, page_.data.data() + in_page * sizeof(Record),
                  sizeof(Record));
      ++consumed_;
      return true;
    }

   private:
    SimDisk* disk_;
    const RunMeta* run_;
    Page page_;
    uint64_t consumed_ = 0;
  };

  // Pass 0: run formation. Fill the buffer, sort, spill as one run.
  void FormRuns(const std::vector<Record>& input) {
    runs_.clear();
    const size_t run_capacity = buffer_pages_ * kPerPage;
    std::vector<Record> buffer;
    buffer.reserve(run_capacity);
    for (const Record& r : input) {
      buffer.push_back(r);
      if (buffer.size() == run_capacity) SpillRun(&buffer);
    }
    if (!buffer.empty()) SpillRun(&buffer);
  }

  void SpillRun(std::vector<Record>* buffer) {
    std::sort(buffer->begin(), buffer->end(), less_);
    RunMeta run;
    run.num_records = buffer->size();
    Page page;
    for (size_t i = 0; i < buffer->size(); ++i) {
      const size_t in_page = i % kPerPage;
      std::memcpy(page.data.data() + in_page * sizeof(Record), &(*buffer)[i],
                  sizeof(Record));
      if (in_page == kPerPage - 1 || i + 1 == buffer->size()) {
        const PageId id = disk_->Allocate();
        disk_->Write(id, page);
        run.pages.push_back(id);
      }
    }
    runs_.push_back(std::move(run));
    buffer->clear();
  }

  // Merge passes (B-1 input runs at a time, 1 output buffer page) until one
  // run remains.
  void MergePasses() {
    while (runs_.size() > 1) {
      std::vector<RunMeta> next;
      for (size_t i = 0; i < runs_.size(); i += buffer_pages_ - 1) {
        const size_t hi = std::min(runs_.size(), i + buffer_pages_ - 1);
        next.push_back(MergeRuns(i, hi));
      }
      runs_ = std::move(next);
    }
  }

  // K-way heap merge of runs [lo, hi) into one new run.
  RunMeta MergeRuns(size_t lo, size_t hi) {
    struct HeapItem {
      Record record;
      size_t reader;
    };
    auto greater = [this](const HeapItem& a, const HeapItem& b) {
      return less_(b.record, a.record);
    };
    std::vector<RunReader> readers;
    readers.reserve(hi - lo);
    std::vector<HeapItem> heap;
    for (size_t i = lo; i < hi; ++i) {
      readers.emplace_back(disk_, &runs_[i]);
      Record r;
      if (readers.back().Next(&r)) heap.push_back({r, readers.size() - 1});
    }
    std::make_heap(heap.begin(), heap.end(), greater);
    RunMeta out;
    Page page;
    size_t in_page = 0;
    auto flush = [&] {
      const PageId id = disk_->Allocate();
      disk_->Write(id, page);
      out.pages.push_back(id);
      in_page = 0;
    };
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), greater);
      HeapItem item = heap.back();
      heap.pop_back();
      std::memcpy(page.data.data() + in_page * sizeof(Record), &item.record,
                  sizeof(Record));
      ++out.num_records;
      if (++in_page == kPerPage) flush();
      if (readers[item.reader].Next(&item.record)) {
        heap.push_back(item);
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
    if (in_page > 0) flush();
    return out;
  }

  std::vector<Record> ReadRun(const RunMeta& run) {
    std::vector<Record> out;
    out.reserve(run.num_records);
    RunReader reader(disk_, &run);
    Record r;
    while (reader.Next(&r)) out.push_back(r);
    return out;
  }

  SimDisk* disk_;
  size_t buffer_pages_;
  Less less_;
  std::vector<RunMeta> runs_;
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_EXTERNAL_SORT_H_
