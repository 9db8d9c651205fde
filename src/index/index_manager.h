#ifndef KIMDB_INDEX_INDEX_MANAGER_H_
#define KIMDB_INDEX_INDEX_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/stats.h"
#include "index/btree.h"
#include "object/object_store.h"

namespace kimdb {

using IndexId = uint32_t;

/// The three index shapes of paper §3.2:
///
///  * kSingleClass      -- the relational technique applied per class: one
///                         index covering exactly one class's extent;
///  * kClassHierarchy   -- one index covering a class *and all its
///                         subclasses* (KIM89b), postings partitioned by
///                         class so narrower scopes filter cheaply;
///  * kNested           -- an index on a *nested attribute* reached through
///                         a path of reference attributes (BERT89): keys
///                         are terminal values, postings are the OIDs of
///                         the *target-class* objects whose path reaches
///                         that value.
enum class IndexKind { kSingleClass, kClassHierarchy, kNested };

/// What a snapshot reader must do with a probe's answer (DESIGN.md §13),
/// decided under the probe's lock:
///
///  * kNone    -- no chains on any path class and nothing deferred: the
///                answer is exact for every snapshot;
///  * kRecheck -- the answer is a superset of what a snapshot sees: fetch
///                each candidate at the snapshot and re-test the conjunct;
///  * kScan    -- a nested index while some path class has version chains:
///                keys are derived from heap images, so a snapshot can read
///                a combination of versions no key was derived from, and
///                the answer may miss rows. Only a version-resolving scan
///                of the scope answers exactly.
enum class SnapshotCheck { kNone, kRecheck, kScan };

struct IndexInfo {
  IndexId id = 0;
  IndexKind kind = IndexKind::kSingleClass;
  ClassId target_class = kInvalidClassId;
  std::vector<std::string> path;   // attribute names; size 1 unless kNested
  std::vector<AttrId> path_ids;    // resolved at creation time

  BPlusTree tree;

  // -- nested-index maintenance state (empty for path length 1) --
  // rev[k] maps a level-(k+1) object to the level-k objects that reference
  // it through path attribute k (the backward chains BERT89 uses to find
  // the targets affected by an update deep in the path).
  std::vector<std::unordered_map<Oid, std::vector<Oid>>> rev;
  // Keys currently in the tree for each target object (so an update can
  // remove the stale entries without re-deriving the old path state).
  std::unordered_map<Oid, std::vector<Value>> stored_keys;
  // Deferred removals, by target: superseded (key, target) entries left in
  // the tree because a snapshot may still read the version that carried
  // them. `cause` is the object whose write superseded the key (the target
  // itself, or a path object for nested indexes); the entry retires once
  // the cause's version chain is erased (DESIGN.md §13).
  struct Deferred {
    Value key;
    Oid cause;
  };
  std::unordered_map<Oid, std::vector<Deferred>> deferred;
  // The targets each cause deferred entries of (may repeat), so a retire
  // pass visits only the causes whose chains were just erased.
  std::unordered_map<Oid, std::vector<Oid>> deferred_by_cause;
  size_t deferred_count = 0;
  // Classes participating at each path level (level 0 = targets).
  std::vector<std::vector<ClassId>> level_classes;
  // Commit timestamp the build read the heap at. The index holds the
  // superset only for snapshots at or after it: an older snapshot may read
  // versions whose keys the heap no longer had when the index was built.
  uint64_t built_ts = 0;
};

struct IndexManagerStats {
  uint64_t maintenance_ops = 0;    // listener-driven index mutations
  uint64_t key_recomputations = 0; // nested-path key re-derivations
  uint64_t deferred_entries = 0;   // superseded entries awaiting retirement
  uint64_t deferred_retired = 0;   // deferred entries retired so far
};

/// Owns all indexes and keeps them consistent with the object store by
/// listening to committed mutations. Provides the lookup entry points the
/// query evaluator and the planner use.
///
/// Snapshot superset (DESIGN.md §13): under MVCC every index holds a
/// superset of the (key, OID) pairs any live or future snapshot can see.
/// Maintenance runs at write time, so a key a write supersedes is not
/// removed while the writing object has a version chain; RetireDeferred
/// (wired to MvccTable's prune hook) removes it once the chain is gone.
/// Lookups report whether their answer may hold such entries, so the
/// caller re-checks the candidates against its snapshot (SnapshotCheck).
///
/// Thread safety: store mutations of distinct classes notify listeners
/// concurrently (the per-class write latches, DESIGN.md §14), so index
/// maintenance runs under an internal writer lock; lookups take the
/// shared side. Maintenance reads objects back through the store while
/// holding the writer lock -- safe, because lookup paths never touch the
/// store, so the lock order (class latch before index lock) is acyclic.
/// CreateIndex/DropIndex remain DDL: run them with writers on every path
/// class quiesced (LockSchemaChange on each), as with every schema
/// operation. The snapshot superset relies on it too: the build reads the
/// heap, so a writer left open would have its uncommitted image indexed in
/// place of the committed one that snapshots after built_ts read.
class IndexManager : public ObjectStoreListener {
 public:
  explicit IndexManager(ObjectStore* store) : store_(store) {
    store->AddListener(this);
  }
  ~IndexManager() override { store_->RemoveListener(this); }

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Creates an index and builds it from existing data. For kNested the
  /// path must be a chain of single- or set-valued reference attributes
  /// with declared (non-Any) domain classes, ending in any attribute.
  Result<IndexId> CreateIndex(IndexKind kind, ClassId target_class,
                              std::vector<std::string> path);
  Status DropIndex(IndexId id);
  Result<const IndexInfo*> GetIndex(IndexId id) const;
  std::vector<const IndexInfo*> AllIndexes() const;

  /// Planner hook: an index usable for a predicate on `path` against
  /// `target` with the given scope, or nullptr. A class-hierarchy (or
  /// nested) index rooted at an ancestor of `target` qualifies for both
  /// scopes; a single-class index qualifies only for single-class scope on
  /// exactly its class. A reader at snapshot `read_ts` cannot use an index
  /// built after it (IndexInfo::built_ts). That rule assumes the build ran
  /// with writers on every path class quiesced, as CreateIndex requires.
  const IndexInfo* FindIndexFor(
      ClassId target, const std::vector<std::string>& path,
      bool hierarchy_scope,
      std::optional<uint64_t> read_ts = std::nullopt) const;

  /// Exact-match lookup restricted to `scope_class` (+subtree if
  /// `hierarchy`). Appends matching OIDs to `out`. If `check` is given it
  /// is set, under the same lock as the probe, to what a snapshot reader
  /// must do with the answer (SnapshotCheck).
  Status LookupEq(const IndexInfo& info, const Value& key, ClassId scope_class,
                  bool hierarchy, std::vector<Oid>* out,
                  SnapshotCheck* check = nullptr) const;

  /// Range lookup [lo, hi] with open ends via nullopt.
  Status LookupRange(const IndexInfo& info, const std::optional<Value>& lo,
                     bool lo_inclusive, const std::optional<Value>& hi,
                     bool hi_inclusive, ClassId scope_class, bool hierarchy,
                     std::vector<Oid>* out,
                     SnapshotCheck* check = nullptr) const;

  /// MvccTable's prune hook. Retires the deferred entries caused by the
  /// objects in `erased_chains` (and by causes queued on earlier passes),
  /// unless the target's current keys or another pending deferral still
  /// hold the key. Costs one atomic load while nothing is deferred. Queues
  /// the causes and returns when the index lock is busy (the next pass
  /// retries), because Prune may run under a class write latch that a
  /// maintainer holding the lock waits on.
  void RetireDeferred(const std::vector<Oid>& erased_chains);

  /// B+-tree shape of one index (key count, entry count, height) for the
  /// cost model; zeros if the index does not exist.
  struct TreeStats {
    uint64_t keys = 0;
    uint64_t entries = 0;
    int height = 0;
  };
  TreeStats StatsFor(IndexId id) const;

  /// Builds an equi-depth histogram over the index's key domain with one
  /// leaf walk (at most `buckets` buckets; fewer when there are fewer
  /// distinct keys). `analyze <class>` calls this per covering index.
  Result<EquiDepthHistogram> BuildHistogram(IndexId id, size_t buckets) const;

  IndexManagerStats stats() const {
    IndexManagerStats s;
    s.maintenance_ops = maintenance_ops_.load(std::memory_order_relaxed);
    s.key_recomputations =
        key_recomputations_.load(std::memory_order_relaxed);
    s.deferred_entries = deferred_entries_.load(std::memory_order_relaxed);
    s.deferred_retired = deferred_retired_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    maintenance_ops_.store(0, std::memory_order_relaxed);
    key_recomputations_.store(0, std::memory_order_relaxed);
    deferred_retired_.store(0, std::memory_order_relaxed);
  }

  // ObjectStoreListener
  void OnInsert(const Object& obj) override;
  void OnUpdate(const Object& before, const Object& after) override;
  void OnDelete(const Object& before) override;

 private:
  /// Scope classes of the posting filter for a lookup.
  std::vector<ClassId> ScopeClasses(ClassId scope_class, bool hierarchy) const;

  /// True if objects of `cls` are indexed at path level `level` (level 0:
  /// the targets).
  bool ClassAtLevel(const IndexInfo& info, size_t level, ClassId cls) const;

  /// Derives the index keys of a target object by forward path traversal
  /// (multi-valued steps fan out; broken/nil links contribute no key).
  std::vector<Value> DeriveKeys(const IndexInfo& info,
                                const Object& target) const;

  /// The keys of a target as the store holds it now (none if it is gone).
  /// Listener images are raw heap images that lack defaulted attributes,
  /// so maintenance fetches the materialized object instead.
  std::vector<Value> KeysOf(const IndexInfo& info, Oid target) const;

  /// Replaces the tree entries of one target with `keys`, its freshly
  /// derived keys. A superseded key is deferred instead of removed while
  /// `cause` (the written object) has a version chain.
  void RefreshTarget(IndexInfo* info, Oid target, Oid cause,
                     std::vector<Value> keys);

  /// Records the removal of `gone` from `target`'s entries as deferred by
  /// `cause`. False (nothing recorded) when `cause` has no chain, so no
  /// snapshot can read a version carrying those keys.
  bool Defer(IndexInfo* info, Oid target, Oid cause,
             const std::vector<Value>& gone);

  /// True while a pending deferral on `target` holds `key` in the tree.
  static bool DeferralHolds(const IndexInfo& info, Oid target,
                            const Value& key);

  /// Retires every entry `cause` deferred in `info`; returns how many.
  size_t RetireCause(IndexInfo* info, Oid cause);

  /// See SnapshotCheck. Caller holds mu_ (either side).
  SnapshotCheck CheckFor(const IndexInfo& info) const;

  /// Collects the reference targets of `obj` through attribute `attr`.
  static std::vector<Oid> RefsThrough(const Object& obj, AttrId attr);

  void AddRevEdges(IndexInfo* info, size_t level, const Object& obj);
  void RemoveRevEdges(IndexInfo* info, size_t level, const Object& obj);

  /// Level-0 targets whose paths pass through `oid` at `level` (at level 0,
  /// the object itself).
  std::vector<Oid> AffectedTargets(const IndexInfo& info, size_t level,
                                   Oid oid) const;

  ObjectStore* store_;
  /// Exclusive: listener maintenance and DDL (index create/drop).
  /// Shared: planner/evaluator lookups. IndexInfo nodes are pointer-
  /// stable (unique_ptr values), so a lookup holding the shared side
  /// reads a tree no maintainer is concurrently mutating.
  mutable std::shared_mutex mu_;
  IndexId next_id_ = 1;
  std::unordered_map<IndexId, std::unique_ptr<IndexInfo>> indexes_;
  mutable std::atomic<uint64_t> maintenance_ops_{0};
  mutable std::atomic<uint64_t> key_recomputations_{0};
  std::atomic<uint64_t> deferred_entries_{0};
  std::atomic<uint64_t> deferred_retired_{0};
  // Causes whose chains a prune pass erased while mu_ was busy.
  std::mutex retire_mu_;
  std::vector<Oid> retire_queue_;
};

}  // namespace kimdb

#endif  // KIMDB_INDEX_INDEX_MANAGER_H_
