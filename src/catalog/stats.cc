#include "catalog/stats.h"

#include <algorithm>
#include <mutex>

namespace kimdb {

namespace {

// Bucket i of `h` covers (bounds[i-1], bounds[i]]; returns the index of
// the bucket whose range contains `key`, or npos when key sorts above the
// last bound (outside the analyzed domain).
size_t BucketFor(const EquiDepthHistogram& h, const Value& key) {
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    if (key.Compare(h.bounds[i]) <= 0) return i;
  }
  return static_cast<size_t>(-1);
}

}  // namespace

double EquiDepthHistogram::SelectivityEq(const Value& key) const {
  if (empty()) return 0.0;
  size_t b = BucketFor(*this, key);
  if (b == static_cast<size_t>(-1)) return 0.0;
  double bucket_frac =
      static_cast<double>(counts[b]) / static_cast<double>(total_entries);
  double per_key = 1.0 / static_cast<double>(std::max<uint64_t>(1, distinct_keys));
  return std::min(bucket_frac, per_key);
}

double EquiDepthHistogram::SelectivityRange(const std::optional<Value>& lo,
                                            bool lo_inclusive,
                                            const std::optional<Value>& hi,
                                            bool hi_inclusive) const {
  if (empty()) return 0.0;
  double covered = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const Value& ub = bounds[i];
    const Value* lb = i > 0 ? &bounds[i - 1] : nullptr;  // exclusive
    // Entirely above [lo, hi]: every key in the bucket is > lb >= hi.
    if (hi && lb != nullptr && lb->Compare(*hi) >= 0) break;
    // Entirely below: the bucket's largest key is still under lo.
    if (lo) {
      int c = ub.Compare(*lo);
      if (c < 0) continue;
      if (c == 0 && !lo_inclusive) continue;
    }
    bool lo_covered = !lo || (lb != nullptr && lb->Compare(*lo) >= 0);
    bool hi_covered = true;
    if (hi) {
      int c = ub.Compare(*hi);
      hi_covered = c < 0 || (c == 0 && hi_inclusive);
    }
    covered += (lo_covered && hi_covered) ? counts[i] : counts[i] * 0.5;
  }
  double frac = covered / static_cast<double>(total_entries);
  return std::clamp(frac, 0.0, 1.0);
}

void EquiDepthHistogram::EncodeTo(std::string* dst) const {
  PutVarint64(dst, total_entries);
  PutVarint64(dst, distinct_keys);
  PutVarint32(dst, static_cast<uint32_t>(counts.size()));
  for (size_t i = 0; i < counts.size(); ++i) {
    bounds[i].EncodeTo(dst);
    PutVarint64(dst, counts[i]);
  }
}

Result<EquiDepthHistogram> EquiDepthHistogram::DecodeFrom(Decoder* dec) {
  EquiDepthHistogram h;
  auto total = dec->ReadVarint64();
  if (!total.ok()) return total.status();
  auto distinct = dec->ReadVarint64();
  if (!distinct.ok()) return distinct.status();
  auto n = dec->ReadVarint32();
  if (!n.ok()) return n.status();
  h.total_entries = *total;
  h.distinct_keys = *distinct;
  h.bounds.reserve(*n);
  h.counts.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto v = Value::DecodeFrom(dec);
    if (!v.ok()) return v.status();
    auto c = dec->ReadVarint64();
    if (!c.ok()) return c.status();
    h.bounds.push_back(std::move(*v));
    h.counts.push_back(*c);
  }
  return h;
}

void ClassStats::EncodeTo(std::string* dst) const {
  PutVarint64(dst, live_objects);
  PutVarint64(dst, extent_pages);
  PutVarint64(dst, mutations_since_analyze);
  PutFixed8(dst, analyzed ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(path_hists.size()));
  for (const auto& [path, hist] : path_hists) {
    PutLengthPrefixed(dst, path);
    hist.EncodeTo(dst);
  }
}

Result<ClassStats> ClassStats::DecodeFrom(Decoder* dec) {
  ClassStats s;
  auto live = dec->ReadVarint64();
  if (!live.ok()) return live.status();
  auto pages = dec->ReadVarint64();
  if (!pages.ok()) return pages.status();
  auto drift = dec->ReadVarint64();
  if (!drift.ok()) return drift.status();
  auto analyzed = dec->ReadFixed8();
  if (!analyzed.ok()) return analyzed.status();
  auto n = dec->ReadVarint32();
  if (!n.ok()) return n.status();
  s.live_objects = *live;
  s.extent_pages = *pages;
  s.mutations_since_analyze = *drift;
  s.analyzed = *analyzed != 0;
  for (uint32_t i = 0; i < *n; ++i) {
    auto path = dec->ReadLengthPrefixed();
    if (!path.ok()) return path.status();
    auto h = EquiDepthHistogram::DecodeFrom(dec);
    if (!h.ok()) return h.status();
    s.path_hists.emplace(std::string(*path), std::move(*h));
  }
  return s;
}

void StatsRegistry::RecordMutation(ClassId cls) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(cls);
    if (it != entries_.end()) {
      it->second->mutations.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& e = entries_[cls];
  if (e == nullptr) e = std::make_unique<Entry>();
  e->mutations.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::Install(ClassId cls, ClassStats stats) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& e = entries_[cls];
  if (e == nullptr) e = std::make_unique<Entry>();
  stats.mutations_since_analyze = 0;
  stats.analyzed = true;
  e->snapshot = std::move(stats);
  e->mutations.store(0, std::memory_order_relaxed);
}

std::optional<ClassStats> StatsRegistry::Get(ClassId cls) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(cls);
  if (it == entries_.end()) return std::nullopt;
  ClassStats out = it->second->snapshot;
  out.mutations_since_analyze =
      it->second->mutations.load(std::memory_order_relaxed);
  return out;
}

void StatsRegistry::EncodeTo(std::string* dst) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ClassId> ids;
  ids.reserve(entries_.size());
  for (const auto& [cls, e] : entries_) {
    if (e->snapshot.analyzed) ids.push_back(cls);  // drift-only entries skip
  }
  std::sort(ids.begin(), ids.end());
  PutVarint32(dst, static_cast<uint32_t>(ids.size()));
  for (ClassId cls : ids) {
    const auto& e = *entries_.at(cls);
    PutVarint32(dst, cls);
    ClassStats s = e.snapshot;
    s.mutations_since_analyze = e.mutations.load(std::memory_order_relaxed);
    s.EncodeTo(dst);
  }
}

Status StatsRegistry::DecodeFrom(Decoder* dec) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.clear();
  auto n = dec->ReadVarint32();
  if (!n.ok()) return n.status();
  for (uint32_t i = 0; i < *n; ++i) {
    auto cls = dec->ReadVarint32();
    if (!cls.ok()) return cls.status();
    auto s = ClassStats::DecodeFrom(dec);
    if (!s.ok()) return s.status();
    auto e = std::make_unique<Entry>();
    e->mutations.store(s->mutations_since_analyze, std::memory_order_relaxed);
    e->snapshot = std::move(*s);
    entries_[static_cast<ClassId>(*cls)] = std::move(e);
  }
  return Status::OK();
}

}  // namespace kimdb
