#ifndef KIMDB_OBJECT_MVCC_H_
#define KIMDB_OBJECT_MVCC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/object.h"
#include "model/oid.h"

namespace kimdb {

class MvccTable;

/// RAII read-timestamp handle. An active snapshot pins every committed
/// version with commit-ts > read_ts' predecessor against pruning, so a
/// reader carrying it sees one transaction-consistent state of the store
/// no matter how long it lives (the paper's long-duration transaction,
/// §3.3). Move-only; releasing (or destroying) it retires the pin. It
/// shares ownership of its table, so a long-lived holder (a checked-out
/// PrivateDb) may outlive the database whose table it pins.
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot() { Release(); }
  Snapshot(Snapshot&& other) noexcept
      : table_(std::move(other.table_)),
        read_ts_(other.read_ts_),
        epoch_(other.epoch_) {
    other.read_ts_ = 0;
  }
  Snapshot& operator=(Snapshot&& other) noexcept {
    if (this != &other) {
      Release();
      table_ = std::move(other.table_);
      read_ts_ = other.read_ts_;
      epoch_ = other.epoch_;
      other.read_ts_ = 0;
    }
    return *this;
  }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  bool active() const { return table_ != nullptr; }
  uint64_t read_ts() const { return read_ts_; }
  /// Retires the pin (idempotent). Triggers a prune pass so versions kept
  /// alive only for this snapshot are reclaimed promptly.
  void Release();

 private:
  friend class MvccTable;
  Snapshot(std::shared_ptr<MvccTable> table, uint64_t read_ts,
           uint64_t epoch)
      : table_(std::move(table)), read_ts_(read_ts), epoch_(epoch) {}
  std::shared_ptr<MvccTable> table_;
  uint64_t read_ts_ = 0;
  uint64_t epoch_ = 0;  // abort epoch at acquisition (MvccTable::Discard)
};

/// Point-in-time counters of the MVCC table (read via collectors as
/// `txn.snapshot_*` / `objectstore.versions_*`).
struct MvccStats {
  uint64_t snapshots_acquired = 0;
  uint64_t snapshots_live = 0;
  uint64_t commit_ts = 0;   // newest allocated commit timestamp
  uint64_t visible_ts = 0;  // newest durably published timestamp
  uint64_t write_conflicts = 0;
  uint64_t versions_installed = 0;
  uint64_t versions_pruned = 0;
  uint64_t versions_chains = 0;
  uint64_t versions_entries = 0;
};

/// Outcome of resolving an OID against the version table.
enum class MvccLookup {
  kNoChain,    // no chain: the committed heap image is authoritative
  kImage,      // out-param holds the visible version
  kInvisible,  // a chain exists but nothing is visible at read_ts
               // (deleted before, or born after, the snapshot)
};

/// In-memory commit-timestamp version table: the multiversion half of the
/// concurrency protocol (DESIGN.md §13). Writers stay under 2PL X locks
/// and stage copy-on-write version chains here as they mutate the heap in
/// place; commit promotes the staged image with a monotonically increasing
/// commit timestamp; snapshot readers resolve each OID to the newest
/// committed version <= their read_ts without any lock-manager traffic.
///
/// Chain anatomy (per OID, newest committed first):
///
///   pending {txn, image}        -- at most one, guarded by the writer's X
///                                  lock; image == nullptr encodes delete
///   versions [{ts, image}, ...] -- committed history; the tail is the
///                                  "base" anchored on the heap image that
///                                  was committed when the chain was born
///                                  (ts 0 == visible to every snapshot)
///
/// A chain exists only while a writer is in flight or history is still
/// pinned by a live snapshot; the watermark-driven pruner erases versions
/// older than the oldest live read_ts and whole chains once the heap image
/// alone serves every possible reader again. The common no-writer case
/// therefore costs readers exactly one relaxed atomic load.
///
/// Thread safety: fully internally synchronized (sharded chain mutexes,
/// a registry mutex for snapshots, a commit mutex serializing timestamp
/// allocation with WAL commit-record append order).
///
/// Always owned by a shared_ptr (TxnManager's): every Snapshot shares it.
class MvccTable : public std::enable_shared_from_this<MvccTable> {
 public:
  MvccTable() = default;
  MvccTable(const MvccTable&) = delete;
  MvccTable& operator=(const MvccTable&) = delete;

  // --- commit clock ---------------------------------------------------------

  /// Newest timestamp whose commit record is durable (WAL synced); the
  /// upper bound for new snapshots.
  uint64_t visible_ts() const {
    return visible_ts_.load(std::memory_order_acquire);
  }

  /// Serializes commit-ts allocation with WAL log-slot *reservation* so
  /// the log's commit order equals timestamp order (recovery relies on a
  /// durable log prefix covering every smaller timestamp). The append and
  /// fdatasync themselves run outside this mutex (DESIGN.md §14).
  std::mutex& commit_mu() { return commit_mu_; }

  /// Next commit timestamp. Caller holds commit_mu().
  uint64_t AllocateCommitTs() {
    return next_ts_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Publishes `ts` as durable (CAS-max). Callers that allocate and finish
  /// timestamps one at a time under commit_mu() (CommitDirect) may use it
  /// directly; concurrent committers must go through FinishCommit().
  void Publish(uint64_t ts);

  /// Reports that commit `ts` has finished (promoted its versions and
  /// resolved its WAL append, successfully or not). Because appends happen
  /// off commit_mu(), timestamps can finish out of order; this advances
  /// visible_ts only along the *dense* frontier -- the largest ts such that
  /// every timestamp <= ts has finished -- so a snapshot can never read
  /// past a commit that is still promoting. EVERY allocated timestamp must
  /// be reported exactly once, on success and failure paths alike, or the
  /// frontier (and thus every future snapshot) wedges.
  void FinishCommit(uint64_t ts);

  /// Fast-forwards the clock after recovery: the next allocation returns
  /// max_commit_ts + 1 and snapshots see everything replayed.
  void RestoreClock(uint64_t max_commit_ts);

  // --- snapshots ------------------------------------------------------------

  /// Pins the current visible_ts as a read timestamp. Acquisition is
  /// linearized with pruning through the registry mutex, so a snapshot can
  /// never observe a chain pruned past its read_ts.
  Snapshot AcquireSnapshot();

  // --- writer staging (store mutators, under the per-class write latch) -----

  /// Stages `txn`'s write of `oid`: creates the chain if absent (anchoring
  /// `committed_base`, the materialized image committed before this write;
  /// nullptr for a fresh insert) and installs/replaces the pending image
  /// (nullptr encodes delete). The caller serializes writers per object
  /// (2PL X lock) and against readers' heap access (the object's class
  /// write latch).
  void StageWrite(uint64_t txn, Oid oid,
                  std::shared_ptr<const Object> committed_base,
                  std::shared_ptr<const Object> image);

  /// True if `txn` has staged writes (read-only commits skip the clock).
  bool HasWrites(uint64_t txn) const;

  /// Promotes every pending image staged by `txn` to a committed version
  /// tagged `commit_ts`. Runs *outside* commit_mu(): the caller has
  /// reserved (not necessarily appended) the WAL commit record carrying
  /// the same timestamp. Versions are inserted at their ts-sorted chain
  /// position because concurrent committers and CommitDirect can now
  /// interleave per shard. The promoted images stay invisible until
  /// FinishCommit(commit_ts) advances the dense frontier. Returns the
  /// promoted OIDs so a failed commit can Demote() them.
  std::vector<Oid> Promote(uint64_t txn, uint64_t commit_ts);

  /// Reverses a Promote whose WAL commit record failed to become durable:
  /// strips every version tagged `commit_ts` from the chains of `oids` and
  /// re-stages it as `txn`'s pending image, re-arming the write set for
  /// the Abort that must follow. MUST run before FinishCommit(commit_ts)
  /// -- until then the dense frontier is below commit_ts, so no snapshot
  /// can have observed the promoted versions; once demoted, the consumed
  /// timestamp exposes nothing. Re-staging (rather than dropping) keeps
  /// the chains alive and the cache-fill gate closed while the heap still
  /// carries the failed transaction's writes.
  void Demote(uint64_t txn, uint64_t commit_ts, const std::vector<Oid>& oids);

  /// Drops `txn`'s pending images (abort). Call *after* the heap rollback
  /// so the base image and the heap agree once the pending tag is gone.
  void Discard(uint64_t txn);

  /// Records a *non-transactional* write (ObjectStore mutators called with
  /// txn 0: loaders, system-attribute writes, examples) as an instant
  /// commit. If no chain exists and no snapshot is live, this is a no-op --
  /// the heap image alone is the committed state and the write costs no
  /// timestamp. Otherwise the write is versioned exactly like a committed
  /// transaction: the chain is created if needed (anchoring
  /// `committed_base`), the new image is installed at a freshly allocated
  /// timestamp, and the timestamp is published -- so live snapshots keep
  /// reading their pinned epoch even across direct writes. Never leaves a
  /// pending entry (txn 0 has no commit/abort to resolve one).
  void CommitDirect(Oid oid, std::shared_ptr<const Object> committed_base,
                    std::shared_ptr<const Object> image);

  // --- readers --------------------------------------------------------------

  /// Cheap pre-filter: false guarantees no chain exists for any object of
  /// `cls` right now (one relaxed load, no mutex). May return true
  /// spuriously.
  bool MayHaveVersions(ClassId cls) const {
    if (total_chains_.load(std::memory_order_relaxed) == 0) return false;
    return class_chains_[cls & (kClassSlots - 1)].load(
               std::memory_order_relaxed) > 0;
  }

  /// Resolves `oid` to the newest committed version <= read_ts.
  MvccLookup Resolve(Oid oid, uint64_t read_ts,
                     std::shared_ptr<const Object>* image) const;

  /// `txn`'s own pending write of `oid`, if any (read-your-own-writes).
  /// Returns true with *image set (nullptr == pending delete).
  bool PendingByTxn(uint64_t txn, Oid oid,
                    std::shared_ptr<const Object>* image) const;

  /// True while `oid` has a chain: a writer is in flight on it, or some
  /// live snapshot may still read a version the heap image no longer
  /// holds. False means every live and future snapshot reads the heap.
  bool HasChain(Oid oid) const;

  /// Commit-ts of the newest committed version of `oid` (0 if no chain or
  /// only the base). First-committer-wins: a writer holding a snapshot at
  /// read_ts aborts if this exceeds read_ts.
  uint64_t NewestCommittedTs(Oid oid) const;

  /// Cache-fill gate: false while a pending write exists (the heap image
  /// is dirty -- do not cache); otherwise sets *ts to the tag a cache
  /// entry filled from the heap must carry (newest committed ts, 0 if no
  /// chain).
  bool CacheFillTs(Oid oid, uint64_t* ts) const;

  /// Every chain entry of `cls` visible at `read_ts`, sorted by OID (the
  /// end-of-scan ghost pass: versions whose heap record moved or vanished
  /// mid-scan).
  std::vector<std::pair<Oid, std::shared_ptr<const Object>>> CollectVisible(
      ClassId cls, uint64_t read_ts) const;

  // --- maintenance ----------------------------------------------------------

  /// Trims every chain to the newest version <= the watermark (the oldest
  /// live read_ts, capped by visible_ts) and erases chains whose remaining
  /// history the heap image alone can serve. Ran on snapshot release and
  /// after every publish. Every pass ends by running the prune hook.
  void Prune();

  /// Runs at the end of every Prune pass with the OIDs whose chains that
  /// pass erased (often none; the index manager retires the deferred index
  /// removals those writes caused, DESIGN.md §13). Prune runs under the
  /// caller's locks -- a class write latch on the CommitDirect path -- so
  /// the hook must not block on locks held across store reads. Set once,
  /// before concurrent use; the owning TxnManager clears it on destruction,
  /// because a snapshot that outlives it still prunes on release.
  using PruneHook = std::function<void(const std::vector<Oid>& erased)>;
  void SetPruneHook(PruneHook hook) { prune_hook_ = std::move(hook); }

  void CountConflict() {
    write_conflicts_.fetch_add(1, std::memory_order_relaxed);
  }

  MvccStats stats() const;

 private:
  friend class Snapshot;

  struct Version {
    uint64_t ts = 0;
    std::shared_ptr<const Object> image;  // nullptr == not present
  };
  struct Chain {
    std::vector<Version> versions;  // newest first; back() is the base
    bool has_pending = false;
    uint64_t pending_txn = 0;
    std::shared_ptr<const Object> pending_image;
    // Set by Discard to the abort epoch it opened. An aborted writer's
    // rollback rewrote (maybe moved) the heap record under scans already
    // in flight; they resolve the bytes they copied, and find a record
    // moved behind them, through this chain. It stays while a snapshot
    // acquired before that abort (epoch < retain_epoch) is live.
    uint64_t retain_epoch = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Oid, Chain> chains;
  };

  static constexpr size_t kShards = 16;        // power of two
  static constexpr size_t kClassSlots = 64;    // power of two

  Shard& ShardFor(Oid oid) const {
    return shards_[std::hash<Oid>{}(oid) & (kShards - 1)];
  }

  void ReleaseSnapshot(uint64_t read_ts, uint64_t epoch);
  /// The pruning watermark (oldest live read_ts, capped by visible_ts) and
  /// the oldest abort epoch among live snapshots (UINT64_MAX when none is
  /// live).
  uint64_t Watermark(uint64_t* oldest_epoch) const;

  mutable Shard shards_[kShards];
  /// Per-class-slot chain counts: the reader fast path. Sized a small
  /// power of two; collisions only cost a spurious shard lookup.
  std::atomic<uint64_t> class_chains_[kClassSlots] = {};
  std::atomic<uint64_t> total_chains_{0};
  std::atomic<uint64_t> total_entries_{0};

  std::mutex commit_mu_;
  std::atomic<uint64_t> next_ts_{1};
  std::atomic<uint64_t> visible_ts_{0};

  /// Dense-frontier publish state (FinishCommit). publish_frontier_ is the
  /// largest ts such that every allocated ts <= it has finished;
  /// publish_done_ holds finished timestamps above the frontier.
  std::mutex publish_mu_;
  uint64_t publish_frontier_ = 0;
  std::set<uint64_t> publish_done_;

  mutable std::mutex snap_mu_;
  std::multiset<uint64_t> live_;         // read_ts of live snapshots
  std::multiset<uint64_t> live_epochs_;  // their abort epochs
  uint64_t abort_epoch_ = 0;             // bumped by every Discard

  mutable std::mutex ws_mu_;
  std::unordered_map<uint64_t, std::vector<Oid>> write_sets_;

  std::atomic<uint64_t> snapshots_acquired_{0};
  std::atomic<uint64_t> write_conflicts_{0};
  std::atomic<uint64_t> versions_installed_{0};
  std::atomic<uint64_t> versions_pruned_{0};

  PruneHook prune_hook_;
};

}  // namespace kimdb

#endif  // KIMDB_OBJECT_MVCC_H_
