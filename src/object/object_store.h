#ifndef KIMDB_OBJECT_OBJECT_STORE_H_
#define KIMDB_OBJECT_OBJECT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "model/object.h"
#include "object/mvcc.h"
#include "object/object_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {

/// Observer of committed-path object mutations. Index maintenance, change
/// notification and the composite-object child map all hang off this.
class ObjectStoreListener {
 public:
  virtual ~ObjectStoreListener() = default;
  virtual void OnInsert(const Object& obj) = 0;
  virtual void OnUpdate(const Object& before, const Object& after) = 0;
  virtual void OnDelete(const Object& before) = 0;
};

/// Builds an Object's attribute map from (name, value) pairs, resolving
/// names against `cls`'s effective schema and type-checking each value.
Result<Object> BuildObject(
    const Catalog& catalog, ClassId cls,
    const std::vector<std::pair<std::string, Value>>& attrs);

/// The persistent object repository: one heap-file extent per class, a
/// logical object directory (OID -> RecordId), and WAL logging of logical
/// before/after images.
///
/// Responsibilities the paper assigns to the storage architecture (§3.2,
/// §4.2): object directory management, per-class extents enabling
/// single-class and class-hierarchy scans, physical clustering hints, and
/// lazy schema evolution on read (missing attributes materialize as their
/// declared defaults; values of dropped attributes are skipped).
///
/// Concurrency (DESIGN.md §12, §14): writer serialization is *per class*.
/// Each class hashes to one of 64 write latches; a mutator owns its
/// class's latch exclusively for the physical mutation (validate, WAL,
/// heap, directory, version staging, cache invalidation), then DOWNGRADES
/// to shared and notifies listeners -- so index maintenance on class A
/// never blocks writers of class B, and a listener reading back through
/// the store (even another class) can never deadlock against a concurrent
/// writer (exclusive phases only ever take leaf locks and terminate).
/// Point reads share the latch of their object's class; extent scans
/// snapshot the page list and take the class-SHARED latch only for the
/// per-page byte copy (writers rewrite records in place on the buffer
/// frame, so an unlatched decode could tear) -- decode and callbacks run
/// off-latch, so scans on the server's worker pool never serialize on
/// the store. The
/// object directory is sharded by OID under its own leaf mutexes. Get()
/// is fronted by a bounded deserialized-object cache (`object_cache()`);
/// a capacity of 0 restores the decode-per-read behavior. Fine-grained
/// isolation stays the lock manager's job (logical locks); the latches
/// only protect physical structures.
class ObjectStore {
 public:
  /// Default byte budget of the deserialized-object cache.
  static constexpr size_t kDefaultCacheBytes = 4u << 20;  // 4 MiB

  /// Opens the store: creates missing extents and rebuilds the object
  /// directory (and per-class OID serial high-water marks) by scanning.
  /// `wal` may be null for non-durable stores (private databases, tests).
  ///
  /// `attach_to_catalog` selects where extent heads live: the shared store
  /// records them in the catalog (persisted with it); a *private database*
  /// (checkout workspace, §3.3) passes false and keeps a volatile local
  /// map, so several stores can share one catalog without clashing.
  ///
  /// `object_cache_bytes` bounds the deserialized-object cache; 0 disables
  /// it (every Get decodes from the heap, the pre-cache behavior).
  static Result<std::unique_ptr<ObjectStore>> Open(
      BufferPool* bp, Catalog* catalog, Wal* wal,
      bool attach_to_catalog = true,
      size_t object_cache_bytes = kDefaultCacheBytes);

  // --- transactional operations (logged) -----------------------------------

  /// Validates `contents` (attribute ids must be in the class's effective
  /// schema or system attributes; values must satisfy their domains),
  /// assigns an OID and stores the object. `cluster_hint`, if non-nil,
  /// requests placement on/near that object's page (composite clustering).
  Result<Oid> Insert(uint64_t txn, ClassId cls, Object contents,
                     Oid cluster_hint = kNilOid);

  /// Replaces the object's full image (the object is identified by
  /// `obj.oid()`).
  Status Update(uint64_t txn, const Object& obj);

  /// Reads, modifies one attribute, validates and updates.
  Status SetAttr(uint64_t txn, Oid oid, std::string_view attr_name,
                 Value value);

  /// Sets (or, for Null, clears) a reserved system attribute directly by
  /// id. System attributes bypass schema validation; they implement
  /// composites, versions and checkout bookkeeping.
  Status SetAttrSystem(uint64_t txn, Oid oid, AttrId attr, Value value);

  Status Delete(uint64_t txn, Oid oid);

  // --- reads ----------------------------------------------------------------

  bool Exists(Oid oid) const;
  /// Materializes the object against the *current* schema: defaults filled
  /// in for attributes added since the object was written; dropped
  /// attributes elided (system attributes always kept). Served from the
  /// deserialized-object cache when possible.
  Result<Object> Get(Oid oid) const;
  /// As Get; additionally reports whether the read was served from the
  /// object cache (per-operator accounting in EXPLAIN ANALYZE).
  Result<Object> Get(Oid oid, bool* cache_hit) const;
  /// As Get, but hands back a shared reference to the immutable resident
  /// image instead of a copy -- the zero-copy read for traversal-style
  /// consumers (path-expression hops) that only inspect the object. A hit
  /// costs a map lookup plus one refcount bump; the instance stays valid
  /// (and fixed at its lookup-time state) even if the entry is
  /// invalidated or evicted afterwards.
  Result<std::shared_ptr<const Object>> GetShared(Oid oid) const;
  Result<std::shared_ptr<const Object>> GetShared(Oid oid,
                                                  bool* cache_hit) const;
  /// The stored image, no schema adjustment (never cached).
  Result<Object> GetRaw(Oid oid) const;

  // --- snapshot reads (MVCC, DESIGN.md §13) ---------------------------------

  /// Resolves `oid` to the newest version committed at or before `read_ts`
  /// (which must belong to a live Snapshot). Takes no lock-manager locks;
  /// version-chain hits and commit-ts-tagged cache hits bypass even the
  /// shared class latch, so a full-speed writer cannot stall this path.
  /// Returns NotFound when the object is deleted at (or born after) the
  /// snapshot. Falls back to plain GetShared when no MVCC table is
  /// attached.
  Result<std::shared_ptr<const Object>> GetSharedSnapshot(
      Oid oid, uint64_t read_ts, bool* cache_hit) const;
  /// By-value convenience over GetSharedSnapshot.
  Result<Object> GetSnapshot(Oid oid, uint64_t read_ts,
                             bool* cache_hit) const;

  /// Scans the extent of exactly `cls` (single-class scope). The page
  /// list is snapshotted up front and iterated without the class latch, so
  /// concurrent scans proceed in parallel; records inserted after the
  /// snapshot onto new pages are not visited (isolation against concurrent
  /// writers is the lock manager's job).
  Status ForEachInClass(
      ClassId cls, const std::function<Status(const Object&)>& fn) const;
  /// Scans `cls` and all its subclasses (class-hierarchy scope, §3.2).
  Status ForEachInHierarchy(
      ClassId cls, const std::function<Status(const Object&)>& fn) const;

  Result<uint64_t> CountClass(ClassId cls) const;

  /// Exact live-object count of `cls`'s extent (this class only, not the
  /// hierarchy), maintained by the object directory on every insert and
  /// delete. O(shards), no I/O -- safe to call per query plan.
  uint64_t LiveCount(ClassId cls) const;

  /// Page ids of `cls`'s extent in chain order (empty if the extent was
  /// never created); scans walk it with ForEachInClassOnPage.
  Result<std::vector<PageId>> ExtentPages(ClassId cls) const;

  /// Scans the records of `cls` stored on one extent page, with schema
  /// materialization. No latch is held across user callbacks, so the
  /// server's worker pool can scan one extent from several queries
  /// concurrently. The callback receives a mutable reference to a
  /// freshly decoded Object it may move from -- the decoded image is
  /// per-call scratch, not shared state.
  Status ForEachInClassOnPage(ClassId cls, PageId page,
                              const std::function<Status(Object&)>& fn) const;

  /// Raw extent scan: stored images with their physical addresses (used by
  /// the consistency checker and physical tooling). No schema
  /// materialization is applied.
  Status ForEachRawInClass(
      ClassId cls,
      const std::function<Status(RecordId, const Object&)>& fn) const;

  /// Copy of the object directory (OID -> record address).
  std::vector<std::pair<Oid, RecordId>> DirectorySnapshot() const;

  /// Physical address of an object (clustering experiments, swizzling).
  Result<RecordId> DirectoryLookup(Oid oid) const;

  // --- raw (unlogged) operations: recovery and rollback ---------------------

  Status ApplyInsert(const Object& obj);
  Status ApplyUpdate(const Object& obj);
  Status ApplyDelete(Oid oid);

  // --- schema evolution support ---------------------------------------------

  /// Eagerly rewrites every instance of `cls` (only) to the current schema
  /// (experiment E6 contrasts this with the default lazy conversion).
  Status RewriteExtent(ClassId cls);

  // --- plumbing ---------------------------------------------------------------

  void AddListener(ObjectStoreListener* listener);
  void RemoveListener(ObjectStoreListener* listener);
  Wal* wal() const { return wal_; }
  Catalog* catalog() const { return catalog_; }
  BufferPool* buffer_pool() const { return bp_; }
  /// Creates the extent for a class added after Open.
  Status EnsureExtent(ClassId cls);

  /// The deserialized-object cache (counters for tests / the obs layer).
  const ObjectCache& object_cache() const { return cache_; }

  /// Record-placement counters of every extent (storage.heap.*).
  const HeapFileStats& heap_stats() const { return heap_stats_; }

  /// Retargets the object-cache byte budget at runtime (shell
  /// `.set cache_bytes N`; experiment E8).
  void ResizeObjectCache(size_t bytes) { cache_.Resize(bytes); }

  /// Attaches the MVCC version table (owned by the TxnManager). Mutators
  /// then stage copy-on-write version chains and the snapshot read paths
  /// come alive. Attach before concurrent use; null detaches.
  void AttachMvcc(MvccTable* mvcc) { mvcc_ = mvcc; }
  MvccTable* mvcc() const { return mvcc_; }

  /// Wires the Get() latency histogram (`objectstore.get_ns`); null
  /// detaches. Call before concurrent use.
  void AttachMetrics(obs::Histogram* get_ns) { get_ns_ = get_ns; }

  /// Wires the flight recorder: contended class-latch acquisitions emit
  /// kLatchWait spans (begin arg = class id, end arg = wait ns). Null
  /// detaches. Call before concurrent use.
  void AttachTrace(obs::FlightRecorder* trace) { trace_ = trace; }

  /// Times a mutator found its class write latch contended
  /// (`objectstore.class_write_waits`).
  uint64_t class_write_waits() const {
    return class_write_waits_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-class reader/writer latch with an exclusive->shared DOWNGRADE.
  /// One mutation follows the protocol
  ///
  ///   lock()            physical mutation: WAL, heap, directory, version
  ///                     staging, cache invalidation (leaf locks only)
  ///   downgrade()       atomically exchange exclusive for shared: the
  ///                     mutated state is published, but no other writer
  ///                     of this class can start yet
  ///   ...notify...      listeners (index maintenance, composites,
  ///                     notifications) run holding only the shared side,
  ///                     so they may read back through the store -- same
  ///                     or other classes -- without blocking writers of
  ///                     other classes
  ///   unlock_shared()   the next writer of this class may proceed
  ///
  /// Per-class notification order is preserved: the next writer's
  /// exclusive acquisition waits for the previous writer's shared release.
  /// Writers are favored over *top-level* readers (a reader arriving
  /// while a writer waits queues behind it), but a reader that already
  /// holds any class latch *of this store* (a listener reading back)
  /// bypasses that fairness gate -- it can only be blocked by an exclusive
  /// *mutation* phase, which always terminates, so the latch graph has no
  /// hold-and-wait cycle. The held-latch count is kept per (thread, store),
  /// so holding a latch in one store grants no bypass in another. Exclusive acquisition is re-entrant for its
  /// owner; lock_shared by the exclusive owner is a no-op (listener
  /// self-reads can never self-deadlock). Listeners must not call store
  /// mutators synchronously (none do).
  class ClassLatch {
   public:
    /// Exclusive acquisition; bumps `wait_counter` (if non-null) when the
    /// latch was contended, and emits a kLatchWait span through `trace`
    /// (if attached and enabled) covering the wait. `cls` tags the span
    /// with the contended class.
    void lock(std::atomic<uint64_t>* wait_counter,
              obs::FlightRecorder* trace = nullptr, uint64_t cls = 0);
    void unlock();
    /// Exclusive -> shared, atomically (depth must be 1).
    void downgrade();
    void lock_shared();
    void unlock_shared();
    /// Tags the latch with its owning store so the per-thread held-latch
    /// count (the nested-reader fairness bypass) is scoped per store, not
    /// process-wide. Set once, before any acquisition.
    void set_owner(const void* owner) { owner_ = owner; }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    int readers_ = 0;
    int writers_waiting_ = 0;
    int writer_depth_ = 0;
    bool writer_held_ = false;
    std::thread::id writer_;
    const void* owner_ = nullptr;
  };

  /// RAII driver of the mutator protocol above: constructs exclusive,
  /// releases whichever mode is held (early error returns drop the
  /// exclusive side without ever publishing to listeners).
  class WriteGuard {
   public:
    WriteGuard(ClassLatch& latch, std::atomic<uint64_t>* wait_counter,
               obs::FlightRecorder* trace = nullptr, uint64_t cls = 0)
        : latch_(latch) {
      latch_.lock(wait_counter, trace, cls);
    }
    ~WriteGuard() {
      if (shared_) {
        latch_.unlock_shared();
      } else {
        latch_.unlock();
      }
    }
    void Downgrade() {
      latch_.downgrade();
      shared_ = true;
    }

   private:
    ClassLatch& latch_;
    bool shared_ = false;
  };

  /// RAII shared acquisition for point readers.
  class ReadGuard {
   public:
    explicit ReadGuard(ClassLatch& latch) : latch_(latch) {
      latch_.lock_shared();
    }
    ~ReadGuard() { latch_.unlock_shared(); }

   private:
    ClassLatch& latch_;
  };

  ObjectStore(BufferPool* bp, Catalog* catalog, Wal* wal, bool attach,
              size_t cache_bytes)
      : bp_(bp),
        catalog_(catalog),
        wal_(wal),
        attach_to_catalog_(attach),
        cache_(cache_bytes) {
    for (ClassLatch& l : latches_) l.set_owner(this);
  }

  /// Extent-head lookup; caller holds extents_mu_.
  Result<PageId> ExtentHeadOfLocked(ClassId cls) const;

  /// Opens the existing extent of `cls` (no-op for one EnsureExtent just
  /// created), handing every record to `visit` in the same chain walk
  /// that rebuilds the heap's free-space map.
  Status OpenExtent(ClassId cls, const HeapFile::RecordVisitor& visit);

  /// Resolves (lazily opening) the heap file of `cls`. Internally
  /// synchronized by extents_mu_ (a leaf lock); the returned pointer is
  /// node-stable for the store's lifetime.
  Result<HeapFile*> ExtentOf(ClassId cls) const;

  /// Directory lookup (internally takes the OID's shard mutex).
  Result<RecordId> DirectoryGet(Oid oid) const;
  /// Maps `oid` to `rid`; returns the RecordId it replaced (invalid when
  /// the OID is new).
  RecordId DirectoryPut(Oid oid, RecordId rid);
  void DirectoryErase(Oid oid);

  /// Stored-image read; caller holds the class latch of `oid` (either
  /// mode) so the heap record cannot move underneath the read.
  Result<Object> GetRawHeld(Oid oid) const;

  /// Copy of the listener list (taken at notify time, under
  /// listeners_mu_).
  std::vector<ObjectStoreListener*> ListenersSnapshot() const;

  /// Shared tail of Update/SetAttr/SetAttrSystem: physical update under
  /// `g`'s exclusive latch, then downgrade + notify. `g` must hold the
  /// latch of `obj`'s class exclusively.
  Status UpdateHeld(WriteGuard& g, uint64_t txn, const Object& obj);
  /// Shared body of ApplyInsert/ApplyUpdate (idempotent redo/undo
  /// upsert). `g` as for UpdateHeld.
  Status ApplyUpsertHeld(WriteGuard& g, const Object& obj);

  Status ValidateContents(ClassId cls, const Object& contents) const;
  /// Applies schema materialization to a decoded object.
  Status MaterializeInPlace(Object* obj) const;
  Status LogOp(uint64_t txn, WalRecordType type, Oid oid,
               const Object* before, const Object* after);

  BufferPool* bp_;
  Catalog* catalog_;
  Wal* wal_;
  bool attach_to_catalog_;

  static constexpr size_t kLatchStripes = 64;  // power of two
  static constexpr size_t kDirShards = 16;     // power of two

  ClassLatch& LatchFor(ClassId cls) const {
    return latches_[cls & (kLatchStripes - 1)];
  }

  /// Per-class write latches: writer serialization and writer-vs-point-
  /// reader ordering, striped so distinct classes almost never share one.
  mutable ClassLatch latches_[kLatchStripes];

  /// Leaf lock guarding the lazy extent tables (extents_, local extent
  /// heads). Acquired under any latch or with no latch at all; never held
  /// while acquiring a latch.
  mutable std::mutex extents_mu_;

  // Extent heads for detached (private) stores.
  std::unordered_map<ClassId, PageId> local_extent_heads_;
  mutable std::unordered_map<ClassId, HeapFile> extents_;
  /// Shared by every extent; atomics, bumped under each class's latch.
  mutable HeapFileStats heap_stats_;

  /// Object directory, sharded by OID hash under leaf mutexes so writers
  /// of distinct classes never contend on one map. Mutators touch it
  /// under their class latch; Exists/DirectoryLookup need only the shard
  /// mutex (they return a point-in-time fact either way).
  struct DirShard {
    mutable std::mutex mu;
    std::unordered_map<Oid, RecordId> map;
    /// Live objects per class in this shard (OIDs embed the class, so the
    /// directory is the one choke point every mutation path crosses --
    /// Insert, Delete, recovery Apply*, Open's rebuild, RewriteExtent).
    std::unordered_map<ClassId, uint64_t> class_counts;
  };
  DirShard& DirShardFor(Oid oid) const {
    return dir_shards_[std::hash<Oid>{}(oid) & (kDirShards - 1)];
  }
  mutable DirShard dir_shards_[kDirShards];

  /// Leaf lock over the listener list (registration is rare; notify
  /// copies the list and runs callbacks outside it).
  mutable std::mutex listeners_mu_;
  std::vector<ObjectStoreListener*> listeners_;

  /// OID -> materialized object. Mutators invalidate before downgrading;
  /// readers fill it under their class-shared latch (see ObjectCache).
  mutable ObjectCache cache_;
  /// Version table for MVCC snapshot reads (null for detached stores:
  /// private databases, standalone tests -- they keep the pure 2PL
  /// behavior). Mutators stage chains under their class's exclusive
  /// latch; snapshot readers resolve against it without any latch.
  MvccTable* mvcc_ = nullptr;
  obs::Histogram* get_ns_ = nullptr;
  obs::FlightRecorder* trace_ = nullptr;
  /// Contended class-latch acquisitions (`objectstore.class_write_waits`).
  mutable std::atomic<uint64_t> class_write_waits_{0};
};

}  // namespace kimdb

#endif  // KIMDB_OBJECT_OBJECT_STORE_H_
