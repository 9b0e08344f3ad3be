#ifndef DTRACE_UTIL_COUNTERS_H_
#define DTRACE_UTIL_COUNTERS_H_

#include <cstddef>

namespace dtrace {

// Counter lists for flat stats structs (TraceIoStats, QueryStats).
//
// A stats struct names its counters once, after their declarations, in
//
//   template <typename Visit>
//   static constexpr void Fields(Visit&& visit) {
//     visit("pages_read", &Stats::pages_read);
//     ...
//   }
//
// with one entry per field and the field's own name as the entry's name.
// Summing, walking by name and counting go through that list, so a new
// counter is its field plus one entry. Every counter is 8 bytes (uint64_t or
// double), so `static_assert(NumFields<Stats>() * 8 == sizeof(Stats))` after
// the struct fails the build when a field has no entry.

/// Number of entries in Stats::Fields.
template <typename Stats>
constexpr size_t NumFields() {
  size_t n = 0;
  Stats::Fields([&n](const char*, auto) { ++n; });
  return n;
}

/// into.field += from.field for every listed field.
template <typename Stats>
void AddFields(Stats& into, const Stats& from) {
  Stats::Fields([&](const char*, auto field) { into.*field += from.*field; });
}

/// Calls fn(name, value) for every listed field, in list order, with the
/// value widened to double.
template <typename Stats, typename Fn>
void ForEachField(const Stats& stats, Fn&& fn) {
  Stats::Fields([&](const char* name, auto field) {
    fn(name, static_cast<double>(stats.*field));
  });
}

}  // namespace dtrace

#endif  // DTRACE_UTIL_COUNTERS_H_
