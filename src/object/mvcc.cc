#include "object/mvcc.h"

#include <algorithm>

namespace kimdb {

void Snapshot::Release() {
  if (table_ == nullptr) return;
  std::shared_ptr<MvccTable> t = std::move(table_);
  t->ReleaseSnapshot(read_ts_, epoch_);
  read_ts_ = 0;
}

void MvccTable::Publish(uint64_t ts) {
  uint64_t cur = visible_ts_.load(std::memory_order_relaxed);
  while (cur < ts && !visible_ts_.compare_exchange_weak(
                         cur, ts, std::memory_order_release,
                         std::memory_order_relaxed)) {
  }
}

void MvccTable::FinishCommit(uint64_t ts) {
  uint64_t frontier = 0;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    publish_done_.insert(ts);
    // Advance the dense frontier over every contiguously finished ts.
    auto it = publish_done_.begin();
    while (it != publish_done_.end() && *it == publish_frontier_ + 1) {
      ++publish_frontier_;
      it = publish_done_.erase(it);
    }
    frontier = publish_frontier_;
  }
  Publish(frontier);
}

void MvccTable::RestoreClock(uint64_t max_commit_ts) {
  uint64_t next = next_ts_.load(std::memory_order_relaxed);
  if (next <= max_commit_ts) {
    next_ts_.store(max_commit_ts + 1, std::memory_order_relaxed);
  }
  {
    // Jump the dense frontier: recovery replayed everything <= max_commit_ts
    // and no concurrent committers exist at restore time.
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (publish_frontier_ < max_commit_ts) publish_frontier_ = max_commit_ts;
    publish_done_.erase(publish_done_.begin(),
                        publish_done_.upper_bound(publish_frontier_));
  }
  Publish(max_commit_ts);
}

Snapshot MvccTable::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  uint64_t ts = visible_ts();
  live_.insert(ts);
  live_epochs_.insert(abort_epoch_);
  snapshots_acquired_.fetch_add(1, std::memory_order_relaxed);
  return Snapshot(shared_from_this(), ts, abort_epoch_);
}

void MvccTable::ReleaseSnapshot(uint64_t read_ts, uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = live_.find(read_ts);
    if (it != live_.end()) live_.erase(it);
    auto ep = live_epochs_.find(epoch);
    if (ep != live_epochs_.end()) live_epochs_.erase(ep);
  }
  Prune();
}

uint64_t MvccTable::Watermark(uint64_t* oldest_epoch) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  uint64_t wm = visible_ts();
  *oldest_epoch = UINT64_MAX;
  if (!live_.empty()) {
    wm = std::min(wm, *live_.begin());
    *oldest_epoch = *live_epochs_.begin();
  }
  return wm;
}

namespace {

/// Inserts {ts, image} at its sorted position in a newest-first version
/// list. Commits finish off the commit clock now, so a larger timestamp
/// can reach a chain before a smaller one (e.g. a CommitDirect under
/// commit_mu() racing a transactional Promote that already left it);
/// unconditional front-insertion would break the descending order that
/// Resolve/NewestCommittedTs/CacheFillTs scans rely on.
template <typename Version>
void InsertSorted(std::vector<Version>& versions, uint64_t ts,
                  std::shared_ptr<const Object> image) {
  auto pos = std::find_if(versions.begin(), versions.end(),
                          [ts](const Version& v) { return v.ts < ts; });
  versions.insert(pos, Version{ts, std::move(image)});
}

}  // namespace

void MvccTable::StageWrite(uint64_t txn, Oid oid,
                           std::shared_ptr<const Object> committed_base,
                           std::shared_ptr<const Object> image) {
  bool track = false;
  {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [it, created] = sh.chains.try_emplace(oid);
    Chain& c = it->second;
    if (created) {
      // Base anchor: the image committed before this writer touched the
      // object (ts 0 => visible to every snapshot; correctness argument in
      // DESIGN.md §13 -- any history older than the youngest live snapshot
      // has already been pruned away, so ts 0 never over-exposes).
      c.versions.push_back(Version{0, std::move(committed_base)});
      class_chains_[oid.class_id() & (kClassSlots - 1)].fetch_add(
          1, std::memory_order_relaxed);
      total_chains_.fetch_add(1, std::memory_order_relaxed);
      total_entries_.fetch_add(1, std::memory_order_relaxed);
    }
    track = !c.has_pending || c.pending_txn != txn;
    c.has_pending = true;
    c.pending_txn = txn;
    c.pending_image = std::move(image);
  }
  if (track) {
    std::lock_guard<std::mutex> lock(ws_mu_);
    write_sets_[txn].push_back(oid);
  }
}

bool MvccTable::HasWrites(uint64_t txn) const {
  std::lock_guard<std::mutex> lock(ws_mu_);
  auto it = write_sets_.find(txn);
  return it != write_sets_.end() && !it->second.empty();
}

std::vector<Oid> MvccTable::Promote(uint64_t txn, uint64_t commit_ts) {
  std::vector<Oid> oids;
  {
    std::lock_guard<std::mutex> lock(ws_mu_);
    auto it = write_sets_.find(txn);
    if (it == write_sets_.end()) return oids;
    oids = std::move(it->second);
    write_sets_.erase(it);
  }
  for (Oid oid : oids) {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.chains.find(oid);
    if (it == sh.chains.end()) continue;
    Chain& c = it->second;
    if (!c.has_pending || c.pending_txn != txn) continue;
    InsertSorted(c.versions, commit_ts, std::move(c.pending_image));
    c.has_pending = false;
    c.pending_txn = 0;
    c.pending_image = nullptr;
    total_entries_.fetch_add(1, std::memory_order_relaxed);
    versions_installed_.fetch_add(1, std::memory_order_relaxed);
  }
  return oids;
}

void MvccTable::Demote(uint64_t txn, uint64_t commit_ts,
                       const std::vector<Oid>& oids) {
  std::vector<Oid> restaged;
  restaged.reserve(oids.size());
  for (Oid oid : oids) {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.chains.find(oid);
    if (it == sh.chains.end()) continue;
    Chain& c = it->second;
    auto pos = std::find_if(
        c.versions.begin(), c.versions.end(),
        [commit_ts](const Version& v) { return v.ts == commit_ts; });
    if (pos == c.versions.end()) continue;
    // The frontier has not passed commit_ts yet (FinishCommit runs after
    // us), so no snapshot ever resolved this version: removing it cannot
    // change what any reader already saw. The txn still holds its X lock,
    // so the pending slot is necessarily free.
    if (!c.has_pending) {
      c.has_pending = true;
      c.pending_txn = txn;
      c.pending_image = std::move(pos->image);
      restaged.push_back(oid);
    }
    c.versions.erase(pos);
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (restaged.empty()) return;
  std::lock_guard<std::mutex> lock(ws_mu_);
  auto& ws = write_sets_[txn];
  ws.insert(ws.end(), restaged.begin(), restaged.end());
}

void MvccTable::CommitDirect(Oid oid,
                             std::shared_ptr<const Object> committed_base,
                             std::shared_ptr<const Object> image) {
  // Serialize with transactional commits so the allocated timestamp keeps
  // the promote-before-larger-publish invariant, and with snapshot
  // acquisition so the liveness check linearizes: a snapshot registered
  // after the check reads the heap image this write just produced, which
  // is exactly the committed state at its read_ts.
  std::lock_guard<std::mutex> clk(commit_mu_);
  bool need_version;
  {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    need_version = sh.chains.count(oid) > 0;
  }
  if (!need_version) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    need_version = !live_.empty();
  }
  if (!need_version) return;  // heap alone serves every possible reader

  uint64_t ts = AllocateCommitTs();
  {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto [it, created] = sh.chains.try_emplace(oid);
    Chain& c = it->second;
    if (created) {
      c.versions.push_back(Version{0, std::move(committed_base)});
      class_chains_[oid.class_id() & (kClassSlots - 1)].fetch_add(
          1, std::memory_order_relaxed);
      total_chains_.fetch_add(1, std::memory_order_relaxed);
      total_entries_.fetch_add(1, std::memory_order_relaxed);
    }
    InsertSorted(c.versions, ts, std::move(image));
    total_entries_.fetch_add(1, std::memory_order_relaxed);
    versions_installed_.fetch_add(1, std::memory_order_relaxed);
  }
  // The commit record for a direct write is its op record (already in the
  // WAL); no kCommit is stamped, so the recovered clock simply restarts
  // from the durable transactional frontier -- correct, because chains are
  // volatile and rebuilt empty. FinishCommit (not Publish) because
  // transactional committers may have allocated smaller timestamps that
  // have not finished promoting yet.
  FinishCommit(ts);
  Prune();
}

void MvccTable::Discard(uint64_t txn) {
  std::vector<Oid> oids;
  {
    std::lock_guard<std::mutex> lock(ws_mu_);
    auto it = write_sets_.find(txn);
    if (it == write_sets_.end()) return;
    oids = std::move(it->second);
    write_sets_.erase(it);
  }
  // Snapshots acquired from here on read the rolled-back heap (Discard
  // runs after the rollback); only older ones can be mid-scan over it.
  uint64_t retain_epoch;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    retain_epoch = ++abort_epoch_;
  }
  for (Oid oid : oids) {
    Shard& sh = ShardFor(oid);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.chains.find(oid);
    if (it == sh.chains.end()) continue;
    Chain& c = it->second;
    if (!c.has_pending || c.pending_txn != txn) continue;
    c.has_pending = false;
    c.pending_txn = 0;
    c.pending_image = nullptr;
    c.retain_epoch = retain_epoch;
  }
  Prune();
}

MvccLookup MvccTable::Resolve(Oid oid, uint64_t read_ts,
                              std::shared_ptr<const Object>* image) const {
  if (!MayHaveVersions(oid.class_id())) return MvccLookup::kNoChain;
  Shard& sh = ShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.chains.find(oid);
  if (it == sh.chains.end()) return MvccLookup::kNoChain;
  for (const Version& v : it->second.versions) {
    if (v.ts <= read_ts) {
      if (v.image == nullptr) return MvccLookup::kInvisible;
      *image = v.image;
      return MvccLookup::kImage;
    }
  }
  return MvccLookup::kInvisible;
}

bool MvccTable::PendingByTxn(uint64_t txn, Oid oid,
                             std::shared_ptr<const Object>* image) const {
  if (!MayHaveVersions(oid.class_id())) return false;
  Shard& sh = ShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.chains.find(oid);
  if (it == sh.chains.end()) return false;
  const Chain& c = it->second;
  if (!c.has_pending || c.pending_txn != txn) return false;
  *image = c.pending_image;
  return true;
}

bool MvccTable::HasChain(Oid oid) const {
  if (!MayHaveVersions(oid.class_id())) return false;
  Shard& sh = ShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.chains.count(oid) > 0;
}

uint64_t MvccTable::NewestCommittedTs(Oid oid) const {
  if (!MayHaveVersions(oid.class_id())) return 0;
  Shard& sh = ShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.chains.find(oid);
  if (it == sh.chains.end()) return 0;
  const Chain& c = it->second;
  return c.versions.empty() ? 0 : c.versions.front().ts;
}

bool MvccTable::CacheFillTs(Oid oid, uint64_t* ts) const {
  *ts = 0;
  if (!MayHaveVersions(oid.class_id())) return true;
  Shard& sh = ShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.chains.find(oid);
  if (it == sh.chains.end()) return true;
  const Chain& c = it->second;
  if (c.has_pending) return false;
  if (!c.versions.empty()) *ts = c.versions.front().ts;
  return true;
}

std::vector<std::pair<Oid, std::shared_ptr<const Object>>>
MvccTable::CollectVisible(ClassId cls, uint64_t read_ts) const {
  std::vector<std::pair<Oid, std::shared_ptr<const Object>>> out;
  if (!MayHaveVersions(cls)) return out;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [oid, chain] : sh.chains) {
      if (oid.class_id() != cls) continue;
      for (const Version& v : chain.versions) {
        if (v.ts <= read_ts) {
          if (v.image != nullptr) out.emplace_back(oid, v.image);
          break;
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void MvccTable::Prune() {
  std::vector<Oid> erased;
  if (total_chains_.load(std::memory_order_relaxed) == 0) {
    if (prune_hook_) prune_hook_(erased);
    return;
  }
  uint64_t oldest_epoch = 0;
  const uint64_t wm = Watermark(&oldest_epoch);
  for (size_t i = 0; i < kShards; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto it = sh.chains.begin(); it != sh.chains.end();) {
      Chain& c = it->second;
      // Keep the newest version <= wm plus everything newer; drop the rest.
      size_t keep = c.versions.size();
      for (size_t k = 0; k < c.versions.size(); ++k) {
        if (c.versions[k].ts <= wm) {
          keep = k + 1;
          break;
        }
      }
      if (keep < c.versions.size()) {
        size_t dropped = c.versions.size() - keep;
        c.versions.resize(keep);
        total_entries_.fetch_sub(dropped, std::memory_order_relaxed);
        versions_pruned_.fetch_add(dropped, std::memory_order_relaxed);
      }
      // The chain is redundant once every live and future snapshot would
      // read the same image straight from the heap: no writer in flight,
      // the single surviving version is at or below the watermark, and no
      // snapshot that predates an aborted writer's rollback is live.
      if (!c.has_pending && c.versions.size() == 1 &&
          c.versions.front().ts <= wm && oldest_epoch >= c.retain_epoch) {
        class_chains_[it->first.class_id() & (kClassSlots - 1)].fetch_sub(
            1, std::memory_order_relaxed);
        total_chains_.fetch_sub(1, std::memory_order_relaxed);
        total_entries_.fetch_sub(1, std::memory_order_relaxed);
        versions_pruned_.fetch_add(1, std::memory_order_relaxed);
        if (prune_hook_) erased.push_back(it->first);
        it = sh.chains.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (prune_hook_) prune_hook_(erased);
}

MvccStats MvccTable::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  MvccStats s;
  s.snapshots_acquired = snapshots_acquired_.load(kRelaxed);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    s.snapshots_live = live_.size();
  }
  s.commit_ts = next_ts_.load(kRelaxed) - 1;
  s.visible_ts = visible_ts_.load(std::memory_order_acquire);
  s.write_conflicts = write_conflicts_.load(kRelaxed);
  s.versions_installed = versions_installed_.load(kRelaxed);
  s.versions_pruned = versions_pruned_.load(kRelaxed);
  s.versions_chains = total_chains_.load(kRelaxed);
  s.versions_entries = total_entries_.load(kRelaxed);
  return s;
}

}  // namespace kimdb
