#ifndef DTRACE_BENCH_BENCH_UTIL_H_
#define DTRACE_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure-reproduction benches. Each bench binary
// regenerates one figure of the paper's Chapter 7 as an aligned text table;
// EXPERIMENTS.md records paper-vs-measured shapes.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/association.h"
#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace dtrace::bench {

struct NamedDataset {
  std::string name;
  Dataset dataset;
};

/// The two evaluation datasets at the given scale (SYN Sec. 7.1 + the
/// REAL-data substitute).
inline std::vector<NamedDataset> BothDatasets(uint32_t entities) {
  std::vector<NamedDataset> out;
  out.push_back({"REAL", MakeRealDataset(entities)});
  out.push_back({"SYN", MakeSynDataset(entities)});
  return out;
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("\n=== %s: %s ===\n", figure, what);
}

inline void PrintDatasetInfo(const NamedDataset& nd) {
  std::printf(
      "[%s] |E|=%u base_units=%u horizon=%u m=%d mean_C=%.1f records=%zu\n",
      nd.name.c_str(), nd.dataset.num_entities(),
      nd.dataset.hierarchy->num_base_units(), nd.dataset.horizon,
      nd.dataset.hierarchy->num_levels(), nd.dataset.store->mean_base_cells(),
      nd.dataset.records.size());
}

/// Minimal machine-readable bench output: rows of scalar fields serialized
/// as {"bench": <name>, "rows": [{...}, ...], "counters": {...}} into
/// BENCH_<name>.json in the working directory, so CI can track the perf
/// trajectory across PRs without scraping the human-facing tables. The
/// counters section carries run-wide perf signals (lock_wait_seconds, every
/// QueryStats counter, ...) accumulated across rows via Counter() and
/// Counters().
class BenchJson {
 public:
  class Row {
   public:
    Row& Num(const char* key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"%s\": %.10g", key, v);
      fields_.push_back(buf);
      return *this;
    }
    Row& Int(const char* key, uint64_t v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"%s\": %llu", key,
                    static_cast<unsigned long long>(v));
      fields_.push_back(buf);
      return *this;
    }
    Row& Str(const char* key, const std::string& v) {
      std::string out = "\"";
      out += key;
      out += "\": \"";
      for (char c : v) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      fields_.push_back(std::move(out));
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::string> fields_;
  };

  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Accumulates `v` into the run-wide counter `key` (first use creates it
  /// at 0). Counters land in a top-level "counters" object.
  void Counter(const std::string& key, double v) {
    for (auto& [k, total] : counters_) {
      if (k == key) {
        total += v;
        return;
      }
    }
    counters_.emplace_back(key, v);
  }

  /// Accumulates every listed QueryStats counter (QueryStats::ForEachCounter)
  /// under its field name.
  void Counters(const QueryStats& stats) {
    stats.ForEachCounter(
        [this](const char* name, double v) { Counter(name, v); });
  }

  /// Writes BENCH_<bench>.json and prints the path (skips on fopen error,
  /// e.g. a read-only working directory).
  void Write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("(could not write %s)\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [", bench_.c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s{", r == 0 ? "" : ", ");
      for (size_t i = 0; i < rows_[r].fields_.size(); ++i) {
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     rows_[r].fields_[i].c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]");
    if (!counters_.empty()) {
      std::fprintf(f, ", \"counters\": {");
      for (size_t i = 0; i < counters_.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.10g", i == 0 ? "" : ", ",
                     counters_[i].first.c_str(), counters_[i].second);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, double>> counters_;
};

}  // namespace dtrace::bench

#endif  // DTRACE_BENCH_BENCH_UTIL_H_
