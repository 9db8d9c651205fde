#ifndef KIMDB_TXN_TRANSACTION_H_
#define KIMDB_TXN_TRANSACTION_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "object/mvcc.h"
#include "object/object_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/lock_manager.h"

namespace kimdb {

struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

/// Transaction manager: MVCC snapshot reads over 2PL writers (DESIGN.md
/// §13). Writers keep strict two-phase locking (IX class + X object
/// locks), WAL logging and in-memory undo; readers carry a Snapshot and
/// resolve against commit-timestamped version chains with zero
/// lock-manager traffic. Concretely:
///
///  * Get/GetShared pin a snapshot lazily on the transaction's first read
///    and resolve every OID to the newest version <= read_ts -- no IS/S
///    locks, no blocking behind writers, repeatable reads for free,
///  * writes take IX(class) + X(object) and stage copy-on-write versions;
///    a writer whose snapshot predates the newest committed version of the
///    object aborts (first-committer-wins write-write conflict),
///  * commit holds the table's commit mutex only long enough to allocate
///    a monotonically increasing commit timestamp and reserve the WAL
///    commit record's log slot (timestamp order == log order); staged
///    versions are promoted, the record is appended and the log forced
///    off the mutex, and the timestamp is published for new snapshots
///    along a dense frontier so out-of-order finishers never expose an
///    unpromoted commit,
///  * abort rolls back via the inverse operations in reverse order and
///    discards the staged versions,
///  * extent scans / schema changes keep their 2PL entry points (LockScan,
///    LockSchemaChange) for callers that need serializable writes; query
///    reads use snapshots instead.
class TxnManager {
 public:
  /// Owns the MVCC version table and attaches it to `store` so the store's
  /// mutators stage version chains. Detached stores (private databases)
  /// simply never get a table attached and keep pure 2PL behavior.
  TxnManager(ObjectStore* store, LockManager* locks)
      : store_(store), locks_(locks), mvcc_(std::make_shared<MvccTable>()) {
    store_->AttachMvcc(mvcc_.get());
  }
  ~TxnManager() {
    if (store_ != nullptr) store_->AttachMvcc(nullptr);
    // A snapshot still pinned elsewhere keeps the table alive; its release
    // must not call into an owner that is gone.
    mvcc_->SetPruneHook(nullptr);
  }

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  Result<uint64_t> Begin();
  Status Commit(uint64_t txn);
  Status Abort(uint64_t txn);
  bool IsActive(uint64_t txn) const;
  size_t active_count() const;

  // --- object operations ----------------------------------------------------

  Result<Oid> Insert(uint64_t txn, ClassId cls, Object contents,
                     Oid cluster_hint = kNilOid);
  /// Snapshot read: pins the transaction's snapshot on first use and
  /// serves the newest version <= read_ts (the transaction's own staged
  /// writes win). Lock-free -- never blocks behind a writer.
  Result<Object> Get(uint64_t txn, Oid oid);
  /// As Get, without the defensive copy: a shared reference to the
  /// immutable version image (cache entry or chain version).
  Result<std::shared_ptr<const Object>> GetShared(uint64_t txn, Oid oid);
  Status Update(uint64_t txn, const Object& obj);
  Status SetAttr(uint64_t txn, Oid oid, std::string_view attr, Value value);
  Status Delete(uint64_t txn, Oid oid);

  /// Lock an extent for scanning (S on the class; with `hierarchy`, S on
  /// every class of the subtree). 2PL-writer entry point; snapshot-backed
  /// query reads no longer need it.
  Status LockScan(uint64_t txn, ClassId cls, bool hierarchy);

  /// Lock classes exclusively (schema evolution).
  Status LockSchemaChange(uint64_t txn, ClassId cls);

  /// Pins a standalone snapshot (long-lived readers: checkout's private
  /// database, query execution).
  Snapshot AcquireSnapshot() { return mvcc_->AcquireSnapshot(); }

  TxnStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  LockManager* lock_manager() const { return locks_; }
  MvccTable* mvcc() const { return mvcc_.get(); }

  /// Restores the commit-timestamp clock after recovery (the next commit
  /// gets max_commit_ts + 1; snapshots see everything replayed).
  void RestoreCommitClock(uint64_t max_commit_ts) {
    mvcc_->RestoreClock(max_commit_ts);
  }

  /// Points the manager at its commit/abort latency histograms
  /// (`txn.commit_ns` spans the WAL commit record + group-commit fsync;
  /// `txn.abort_ns` spans undo + the abort record). Null detaches. Not
  /// thread-safe against in-flight transactions -- attach before use.
  void AttachMetrics(obs::Histogram* commit_ns, obs::Histogram* abort_ns) {
    commit_ns_ = commit_ns;
    abort_ns_ = abort_ns;
  }

  /// Wires the flight recorder and slow-operation log: Commit then emits
  /// per-stage spans (clock hold, promote, WAL append, sync wait, publish,
  /// prune) under the transaction id, and a commit whose total crosses the
  /// slow-op threshold logs its complete stage breakdown. Either may be
  /// null. Not thread-safe against in-flight transactions -- attach
  /// before use.
  void AttachTrace(obs::FlightRecorder* trace, obs::SlowOpLog* slow_ops) {
    trace_ = trace;
    slow_ops_ = slow_ops;
  }

 private:
  enum class UndoKind { kInsert, kUpdate, kDelete };
  struct UndoRecord {
    UndoKind kind;
    Oid oid;
    Object before;  // valid for kUpdate/kDelete
  };
  struct TxnState {
    std::vector<UndoRecord> undo;
    Snapshot snapshot;  // pinned lazily on the first read
    /// Set when a Commit attempt failed its WAL append/sync: the staged
    /// writes were demoted back to pending and the transaction is
    /// abort-only. A retried Commit must fail -- Promote consumed the
    /// original write set, so without this flag the retry would take the
    /// read-only branch and report a spurious success whose data is lost
    /// at recovery.
    bool poisoned = false;
  };

  Status CheckActive(uint64_t txn) const;
  Status LogControl(uint64_t txn, WalRecordType type, uint64_t key = 0);
  /// Records an undo entry for `txn`, or -- if the transaction completed
  /// concurrently -- rolls the orphaned store effect back and fails
  /// instead of resurrecting a phantom active-table entry.
  Status PushUndo(uint64_t txn, UndoRecord rec);
  /// The transaction's snapshot read_ts, pinning one lazily on first use.
  Result<uint64_t> SnapshotTs(uint64_t txn);
  /// First-committer-wins: fails with Aborted if `txn` holds a snapshot
  /// older than the newest committed version of `oid`. Call after the X
  /// lock is granted (the chain head is then stable).
  Status CheckWriteConflict(uint64_t txn, Oid oid);

  ObjectStore* store_;
  LockManager* locks_;
  std::shared_ptr<MvccTable> mvcc_;  // shared with every live Snapshot
  mutable std::mutex mu_;
  uint64_t next_txn_ = 1;
  std::unordered_map<uint64_t, TxnState> active_;
  TxnStats stats_;
  obs::Histogram* commit_ns_ = nullptr;
  obs::Histogram* abort_ns_ = nullptr;
  obs::FlightRecorder* trace_ = nullptr;
  obs::SlowOpLog* slow_ops_ = nullptr;
};

}  // namespace kimdb

#endif  // KIMDB_TXN_TRANSACTION_H_
