#ifndef KIMDB_CATALOG_STATS_H_
#define KIMDB_CATALOG_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/value.h"
#include "util/coding.h"
#include "util/result.h"

namespace kimdb {

/// A small equi-depth histogram over an index's key domain. Bucket `i`
/// covers keys in `(bounds[i-1], bounds[i]]` (bucket 0 is open below), so
/// `counts[i] / total_entries` is the fraction of index entries whose key
/// falls in that bucket. Built by IndexManager::BuildHistogram from one
/// B+-tree leaf walk at `analyze` time.
struct EquiDepthHistogram {
  uint64_t total_entries = 0;
  uint64_t distinct_keys = 0;
  std::vector<Value> bounds;  // inclusive upper bound per bucket
  std::vector<uint64_t> counts;

  bool empty() const { return counts.empty() || total_entries == 0; }

  /// Estimated fraction of entries with key == `key`: the per-distinct-key
  /// average, capped by the containing bucket's fraction.
  double SelectivityEq(const Value& key) const;

  /// Estimated fraction of entries in [lo, hi] (unset bound = open end).
  /// Fully-covered buckets contribute whole; boundary buckets contribute
  /// half (the classic coarse-histogram compromise).
  double SelectivityRange(const std::optional<Value>& lo, bool lo_inclusive,
                          const std::optional<Value>& hi,
                          bool hi_inclusive) const;

  void EncodeTo(std::string* dst) const;
  static Result<EquiDepthHistogram> DecodeFrom(Decoder* dec);
};

/// Analyze-time snapshot of one class's cardinality profile plus the
/// mutation drift accumulated since. `extent_pages` / `live_objects` are
/// captured when `analyze <class>` runs so the planner never walks a page
/// chain; drift is tracked so the planner stops reading a stale snapshot
/// and prices from live counts and default selectivities until the
/// snapshot is re-analyzed.
struct ClassStats {
  uint64_t live_objects = 0;   // at analyze time
  uint64_t extent_pages = 0;   // at analyze time
  uint64_t mutations_since_analyze = 0;
  bool analyzed = false;
  /// Keyed by the joined attribute path of the index ("Weight",
  /// "Manufacturer.Location").
  std::map<std::string, EquiDepthHistogram> path_hists;

  /// A snapshot is trusted while drift stays under a quarter of the
  /// analyzed population (with a small absolute floor for tiny extents).
  bool Fresh() const {
    return analyzed &&
           mutations_since_analyze <= std::max<uint64_t>(64, live_objects / 4);
  }

  void EncodeTo(std::string* dst) const;
  static Result<ClassStats> DecodeFrom(Decoder* dec);
};

/// Per-class statistics registry: analyze-time snapshots plus a lock-free
/// mutation drift counter per class (bumped from the ObjectStore listener
/// on every insert/update/delete, so it must not serialize writers).
/// Persisted with the catalog in the meta record.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Notes one mutation against `cls` (insert, update, or delete).
  void RecordMutation(ClassId cls);

  /// Installs a fresh analyze snapshot for `cls`, resetting its drift.
  void Install(ClassId cls, ClassStats stats);

  /// Returns a copy of the snapshot with `mutations_since_analyze` filled
  /// from the live drift counter; nullopt if the class was never analyzed
  /// (and has seen no mutations).
  std::optional<ClassStats> Get(ClassId cls) const;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Decoder* dec);  // replaces current contents

 private:
  struct Entry {
    std::atomic<uint64_t> mutations{0};
    ClassStats snapshot;  // guarded by mu_
  };

  // Pointer-stable entries: RecordMutation only takes the shared lock once
  // a class has an entry.
  mutable std::shared_mutex mu_;
  std::unordered_map<ClassId, std::unique_ptr<Entry>> entries_;
};

}  // namespace kimdb

#endif  // KIMDB_CATALOG_STATS_H_
