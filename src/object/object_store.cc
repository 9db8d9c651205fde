#include "object/object_store.h"

#include <algorithm>
#include <utility>

namespace kimdb {

namespace {
/// Class latches (shared or exclusive) held by this thread, counted per
/// owning store. Non-zero for a store means we are inside one of its
/// calls already -- typically a listener reading back during a notify
/// phase -- so nested shared acquisitions of that store's latches bypass
/// the writer-fairness gate (see ClassLatch::lock_shared): they can only
/// be blocked by an exclusive mutation phase, which always terminates,
/// never by a writer that is itself waiting on us. Scoping the count per
/// store keeps the bypass from leaking across stores (a listener of store
/// A reading store B is a top-level reader of B and must queue behind B's
/// writers like anyone else).
struct TlsLatchCounts {
  static constexpr size_t kSlots = 8;
  const void* owner[kSlots] = {};
  int count[kSlots] = {};
  /// Shared by stores beyond kSlots concurrently-latched-by-this-thread
  /// distinct stores -- for them the bypass degrades to the old
  /// process-wide behavior (weaker fairness, never a deadlock).
  int overflow = 0;
  int& For(const void* o) {
    for (size_t i = 0; i < kSlots; ++i) {
      if (owner[i] == o) return count[i];
      if (owner[i] == nullptr) {
        owner[i] = o;  // slot stays claimed for the thread's lifetime
        return count[i];
      }
    }
    return overflow;
  }
};
thread_local TlsLatchCounts tls_class_latches;
}  // namespace

void ObjectStore::ClassLatch::lock(std::atomic<uint64_t>* wait_counter,
                                   obs::FlightRecorder* trace,
                                   uint64_t cls) {
  std::unique_lock<std::mutex> lk(mu_);
  if (writer_held_ && writer_ == std::this_thread::get_id()) {
    ++writer_depth_;
    return;
  }
  ++writers_waiting_;
  if (readers_ > 0 || writer_held_) {
    if (wait_counter != nullptr) {
      wait_counter->fetch_add(1, std::memory_order_relaxed);
    }
    if (trace != nullptr && trace->enabled()) {
      uint64_t t0 = trace->NowNs();
      trace->Record(obs::TraceStage::kLatchWait, obs::TraceEventKind::kBegin,
                    0, cls);
      cv_.wait(lk, [&] { return readers_ == 0 && !writer_held_; });
      trace->Record(obs::TraceStage::kLatchWait, obs::TraceEventKind::kEnd,
                    0, trace->NowNs() - t0);
    } else {
      cv_.wait(lk, [&] { return readers_ == 0 && !writer_held_; });
    }
  }
  --writers_waiting_;
  writer_held_ = true;
  writer_depth_ = 1;
  writer_ = std::this_thread::get_id();
  ++tls_class_latches.For(owner_);
}

void ObjectStore::ClassLatch::unlock() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (--writer_depth_ > 0) return;
    writer_held_ = false;
    writer_ = std::thread::id();
    --tls_class_latches.For(owner_);
  }
  cv_.notify_all();
}

void ObjectStore::ClassLatch::downgrade() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Mutators never downgrade from a re-entrant depth: the protocol is
    // one lock / one downgrade / one unlock_shared per public mutator.
    writer_held_ = false;
    writer_depth_ = 0;
    writer_ = std::thread::id();
    ++readers_;
    // tls count unchanged: still holding this latch, now shared.
  }
  // Wake readers queued on the exclusive phase (and nested sharers);
  // waiting writers keep waiting for our shared release.
  cv_.notify_all();
}

void ObjectStore::ClassLatch::lock_shared() {
  std::unique_lock<std::mutex> lk(mu_);
  if (writer_held_ && writer_ == std::this_thread::get_id()) {
    return;  // no-op under own exclusive: reads see the mutation in flight
  }
  const bool nested = tls_class_latches.For(owner_) > 0;
  cv_.wait(lk, [&] {
    // Top-level readers queue behind waiting writers (writer preference);
    // nested readers bypass that gate to keep the latch graph acyclic.
    return !writer_held_ && (nested || writers_waiting_ == 0);
  });
  ++readers_;
  ++tls_class_latches.For(owner_);
}

void ObjectStore::ClassLatch::unlock_shared() {
  bool wake;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (writer_held_ && writer_ == std::this_thread::get_id()) {
      return;  // matching the lock_shared no-op
    }
    --tls_class_latches.For(owner_);
    wake = (--readers_ == 0);
  }
  if (wake) cv_.notify_all();
}

Result<Object> BuildObject(
    const Catalog& catalog, ClassId cls,
    const std::vector<std::pair<std::string, Value>>& attrs) {
  Object obj;
  for (const auto& [name, value] : attrs) {
    KIMDB_ASSIGN_OR_RETURN(const AttributeDef* def,
                           catalog.ResolveAttr(cls, name));
    KIMDB_RETURN_IF_ERROR(catalog.CheckValue(def->domain, value));
    obj.Set(def->id, value);
  }
  return obj;
}

Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(
    BufferPool* bp, Catalog* catalog, Wal* wal, bool attach_to_catalog,
    size_t object_cache_bytes) {
  auto store = std::unique_ptr<ObjectStore>(new ObjectStore(
      bp, catalog, wal, attach_to_catalog, object_cache_bytes));
  // Create extents for classes that lack one; rebuild the directory and the
  // per-class serial high-water marks from the extents that exist.
  for (ClassId cls : catalog->AllClasses()) {
    KIMDB_RETURN_IF_ERROR(store->EnsureExtent(cls));
    uint64_t max_serial = 0;
    // A relocation moves a record between two pages that reach disk
    // independently, so a crash can leave both copies. Keep the one met
    // last: recovery replays the (logged, post-checkpoint) relocating
    // operation onto it, and the other copy is deleted.
    std::vector<RecordId> ghosts;
    Status st = store->OpenExtent(cls, [&](RecordId rid,
                                           std::string_view bytes) {
      Result<Object> obj = Object::Decode(bytes);
      if (!obj.ok()) return obj.status();
      RecordId displaced = store->DirectoryPut(obj->oid(), rid);
      if (displaced.valid()) ghosts.push_back(displaced);
      max_serial = std::max(max_serial, obj->oid().serial());
      return Status::OK();
    });
    KIMDB_RETURN_IF_ERROR(st);
    if (!ghosts.empty()) {
      KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, store->ExtentOf(cls));
      for (const RecordId& ghost : ghosts) {
        KIMDB_RETURN_IF_ERROR(heap->Delete(ghost));
      }
    }
    KIMDB_ASSIGN_OR_RETURN(ClassDef * def, catalog->GetClassMutable(cls));
    def->next_serial = std::max(def->next_serial, max_serial + 1);
  }
  return store;
}

Result<PageId> ObjectStore::ExtentHeadOfLocked(ClassId cls) const {
  if (attach_to_catalog_) {
    KIMDB_ASSIGN_OR_RETURN(const ClassDef* def, catalog_->GetClass(cls));
    return def->extent_head;
  }
  auto it = local_extent_heads_.find(cls);
  return it == local_extent_heads_.end() ? kInvalidPageId : it->second;
}

Status ObjectStore::EnsureExtent(ClassId cls) {
  std::lock_guard<std::mutex> lock(extents_mu_);
  KIMDB_ASSIGN_OR_RETURN(PageId head, ExtentHeadOfLocked(cls));
  if (head != kInvalidPageId) return Status::OK();
  KIMDB_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(bp_, &heap_stats_));
  if (attach_to_catalog_) {
    KIMDB_ASSIGN_OR_RETURN(ClassDef * def, catalog_->GetClassMutable(cls));
    def->extent_head = heap.head();
  } else {
    local_extent_heads_[cls] = heap.head();
  }
  extents_.emplace(cls, std::move(heap));
  return Status::OK();
}

Result<HeapFile*> ObjectStore::ExtentOf(ClassId cls) const {
  std::lock_guard<std::mutex> lock(extents_mu_);
  auto it = extents_.find(cls);
  if (it != extents_.end()) return &it->second;
  KIMDB_ASSIGN_OR_RETURN(PageId head, ExtentHeadOfLocked(cls));
  if (head == kInvalidPageId) {
    return Status::FailedPrecondition("class has no extent (EnsureExtent)");
  }
  KIMDB_ASSIGN_OR_RETURN(HeapFile heap,
                         HeapFile::Open(bp_, head, {}, &heap_stats_));
  return &extents_.emplace(cls, std::move(heap)).first->second;
}

Status ObjectStore::OpenExtent(ClassId cls,
                               const HeapFile::RecordVisitor& visit) {
  std::lock_guard<std::mutex> lock(extents_mu_);
  if (extents_.count(cls) > 0) return Status::OK();
  KIMDB_ASSIGN_OR_RETURN(PageId head, ExtentHeadOfLocked(cls));
  KIMDB_ASSIGN_OR_RETURN(HeapFile heap,
                         HeapFile::Open(bp_, head, visit, &heap_stats_));
  extents_.emplace(cls, std::move(heap));
  return Status::OK();
}

Status ObjectStore::ValidateContents(ClassId cls,
                                     const Object& contents) const {
  KIMDB_ASSIGN_OR_RETURN(const Catalog::EffectiveSchema* schema,
                         catalog_->EffectiveSchemaFor(cls));
  for (const auto& [attr, value] : contents.attrs()) {
    if (attr >= kSysAttrBase) continue;  // system attributes are untyped
    auto it = schema->by_id.find(attr);
    if (it == schema->by_id.end()) {
      return Status::InvalidArgument(
          "attribute id " + std::to_string(attr) +
          " is not in the class's effective schema");
    }
    KIMDB_RETURN_IF_ERROR(catalog_->CheckValue(it->second->domain, value));
  }
  return Status::OK();
}

Result<RecordId> ObjectStore::DirectoryGet(Oid oid) const {
  DirShard& sh = DirShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.map.find(oid);
  if (it == sh.map.end()) {
    return Status::NotFound("object " + oid.ToString() + " not found");
  }
  return it->second;
}

RecordId ObjectStore::DirectoryPut(Oid oid, RecordId rid) {
  DirShard& sh = DirShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto [it, inserted] = sh.map.try_emplace(oid, rid);
  if (inserted) {
    ++sh.class_counts[oid.class_id()];
    return RecordId{};
  }
  return std::exchange(it->second, rid);
}

void ObjectStore::DirectoryErase(Oid oid) {
  DirShard& sh = DirShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  if (sh.map.erase(oid) > 0) {
    auto it = sh.class_counts.find(oid.class_id());
    if (it != sh.class_counts.end() && --it->second == 0) {
      sh.class_counts.erase(it);
    }
  }
}

uint64_t ObjectStore::LiveCount(ClassId cls) const {
  uint64_t n = 0;
  for (const DirShard& sh : dir_shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.class_counts.find(cls);
    if (it != sh.class_counts.end()) n += it->second;
  }
  return n;
}

std::vector<ObjectStoreListener*> ObjectStore::ListenersSnapshot() const {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  return listeners_;
}

Status ObjectStore::LogOp(uint64_t txn, WalRecordType type, Oid oid,
                          const Object* before, const Object* after) {
  if (wal_ == nullptr) return Status::OK();
  WalRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.key = oid.raw();
  if (before != nullptr) before->EncodeTo(&rec.before);
  if (after != nullptr) after->EncodeTo(&rec.after);
  return wal_->Append(std::move(rec)).ok()
             ? Status::OK()
             : Status::IOError("wal append failed");
}

Result<Oid> ObjectStore::Insert(uint64_t txn, ClassId cls, Object contents,
                                Oid cluster_hint) {
  WriteGuard g(LatchFor(cls), &class_write_waits_, trace_,
               cls);
  KIMDB_RETURN_IF_ERROR(ValidateContents(cls, contents));
  KIMDB_ASSIGN_OR_RETURN(ClassDef * def, catalog_->GetClassMutable(cls));
  Oid oid = Oid::Make(cls, def->next_serial++);
  contents.set_oid(oid);

  KIMDB_RETURN_IF_ERROR(LogOp(txn, WalRecordType::kInsert, oid, nullptr,
                              &contents));

  PageId hint = kInvalidPageId;
  // A placement hint is honored only within the same class: extents are
  // per-class page chains, so clustering across classes would store the
  // record in a foreign extent and hide it from its own class scans
  // (cross-class hints degrade to normal placement). Same class == same
  // latch, so the hint's record cannot move while we place near it.
  if (!cluster_hint.is_nil() && cluster_hint.class_id() == cls) {
    Result<RecordId> rid = DirectoryGet(cluster_hint);
    if (rid.ok()) hint = rid->page_id;
  }

  std::string bytes;
  contents.EncodeTo(&bytes);
  // Classes defined after Open get their extent lazily on first insert.
  KIMDB_RETURN_IF_ERROR(EnsureExtent(cls));
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(cls));
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, heap->Insert(bytes, hint));
  DirectoryPut(oid, rid);

  if (mvcc_ != nullptr) {
    // Chain base nullptr: the object did not exist before this transaction,
    // so no snapshot older than the commit may see it. txn 0 is the
    // non-transactional path (loaders, system writes): an instant commit,
    // never a pending stage -- nothing would ever promote or discard it.
    Object after = contents;
    KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&after));
    auto image = std::make_shared<const Object>(std::move(after));
    if (txn == 0) {
      mvcc_->CommitDirect(oid, nullptr, std::move(image));
    } else {
      mvcc_->StageWrite(txn, oid, nullptr, std::move(image));
    }
  }

  g.Downgrade();
  for (auto* l : ListenersSnapshot()) l->OnInsert(contents);
  return oid;
}

Status ObjectStore::UpdateHeld(WriteGuard& g, uint64_t txn,
                               const Object& obj) {
  KIMDB_ASSIGN_OR_RETURN(Object before, GetRawHeld(obj.oid()));
  KIMDB_RETURN_IF_ERROR(ValidateContents(obj.class_id(), obj));
  KIMDB_RETURN_IF_ERROR(
      LogOp(txn, WalRecordType::kUpdate, obj.oid(), &before, &obj));

  std::string bytes;
  obj.EncodeTo(&bytes);
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(obj.class_id()));
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, DirectoryGet(obj.oid()));
  KIMDB_ASSIGN_OR_RETURN(RecordId new_rid, heap->Update(rid, bytes));
  DirectoryPut(obj.oid(), new_rid);

  if (mvcc_ != nullptr) {
    // Anchor the chain on the image committed before this writer touched
    // the object (a no-op if the chain already exists -- in particular when
    // `before` is this transaction's own earlier, uncommitted write).
    Object base = before;
    KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&base));
    Object after = obj;
    KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&after));
    auto base_p = std::make_shared<const Object>(std::move(base));
    auto after_p = std::make_shared<const Object>(std::move(after));
    if (txn == 0) {
      mvcc_->CommitDirect(obj.oid(), std::move(base_p), std::move(after_p));
    } else {
      mvcc_->StageWrite(txn, obj.oid(), std::move(base_p),
                        std::move(after_p));
    }
  }

  // Drop the cached image before the downgrade publishes the new state,
  // so a listener (or any reader) reading the OID back observes the new
  // state, never the stale cache entry.
  cache_.Invalidate(obj.oid());
  g.Downgrade();
  for (auto* l : ListenersSnapshot()) l->OnUpdate(before, obj);
  return Status::OK();
}

Status ObjectStore::Update(uint64_t txn, const Object& obj) {
  WriteGuard g(LatchFor(obj.class_id()), &class_write_waits_, trace_,
               obj.class_id());
  return UpdateHeld(g, txn, obj);
}

Status ObjectStore::SetAttr(uint64_t txn, Oid oid, std::string_view attr_name,
                            Value value) {
  WriteGuard g(LatchFor(oid.class_id()), &class_write_waits_, trace_,
               oid.class_id());
  KIMDB_ASSIGN_OR_RETURN(const AttributeDef* def,
                         catalog_->ResolveAttr(oid.class_id(), attr_name));
  KIMDB_RETURN_IF_ERROR(catalog_->CheckValue(def->domain, value));
  KIMDB_ASSIGN_OR_RETURN(Object obj, GetRawHeld(oid));
  obj.Set(def->id, std::move(value));
  return UpdateHeld(g, txn, obj);
}

Status ObjectStore::SetAttrSystem(uint64_t txn, Oid oid, AttrId attr,
                                  Value value) {
  WriteGuard g(LatchFor(oid.class_id()), &class_write_waits_, trace_,
               oid.class_id());
  if (attr < kSysAttrBase) {
    return Status::InvalidArgument("not a system attribute");
  }
  KIMDB_ASSIGN_OR_RETURN(Object obj, GetRawHeld(oid));
  if (value.is_null()) {
    obj.Unset(attr);
  } else {
    obj.Set(attr, std::move(value));
  }
  return UpdateHeld(g, txn, obj);
}

Status ObjectStore::Delete(uint64_t txn, Oid oid) {
  WriteGuard g(LatchFor(oid.class_id()), &class_write_waits_, trace_,
               oid.class_id());
  KIMDB_ASSIGN_OR_RETURN(Object before, GetRawHeld(oid));
  KIMDB_RETURN_IF_ERROR(
      LogOp(txn, WalRecordType::kDelete, oid, &before, nullptr));
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(oid.class_id()));
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, DirectoryGet(oid));
  KIMDB_RETURN_IF_ERROR(heap->Delete(rid));
  DirectoryErase(oid);
  if (mvcc_ != nullptr) {
    Object base = before;
    KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&base));
    auto base_p = std::make_shared<const Object>(std::move(base));
    if (txn == 0) {
      mvcc_->CommitDirect(oid, std::move(base_p), nullptr);
    } else {
      mvcc_->StageWrite(txn, oid, std::move(base_p),
                        nullptr);  // pending delete
    }
  }
  cache_.Invalidate(oid);
  g.Downgrade();
  for (auto* l : ListenersSnapshot()) l->OnDelete(before);
  return Status::OK();
}

bool ObjectStore::Exists(Oid oid) const {
  // Shard mutex only: presence is a point-in-time fact, and the shard
  // mutex alone makes the map read safe.
  DirShard& sh = DirShardFor(oid);
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.map.count(oid) > 0;
}

Result<RecordId> ObjectStore::DirectoryLookup(Oid oid) const {
  return DirectoryGet(oid);
}

Result<Object> ObjectStore::GetRawHeld(Oid oid) const {
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, DirectoryGet(oid));
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(oid.class_id()));
  KIMDB_ASSIGN_OR_RETURN(std::string bytes, heap->Get(rid));
  return Object::Decode(bytes);
}

Result<Object> ObjectStore::GetRaw(Oid oid) const {
  ReadGuard lock(LatchFor(oid.class_id()));
  return GetRawHeld(oid);
}

Status ObjectStore::MaterializeInPlace(Object* obj) const {
  KIMDB_ASSIGN_OR_RETURN(const Catalog::EffectiveSchema* schema,
                         catalog_->EffectiveSchemaFor(obj->class_id()));
  // Fill defaults for attributes the stored image lacks.
  for (const AttributeDef* a : schema->defaulted) {
    if (!obj->Has(a->id)) obj->Set(a->id, a->default_value);
  }
  // Elide values of attributes no longer in the schema.
  std::vector<AttrId> drop;
  for (const auto& [attr, value] : obj->attrs()) {
    if (attr >= kSysAttrBase) continue;
    if (schema->by_id.count(attr) == 0) drop.push_back(attr);
  }
  for (AttrId a : drop) obj->Unset(a);
  return Status::OK();
}

Result<Object> ObjectStore::Get(Oid oid) const {
  bool unused;
  return Get(oid, &unused);
}

Result<Object> ObjectStore::Get(Oid oid, bool* cache_hit) const {
  obs::Timer timer(get_ns_);
  *cache_hit = false;
  // Lock-free fast path: a hit never needs the class latch. The entry's
  // schema-version tag guarantees it matches the current schema, and any
  // completed mutation already invalidated it (happens-before via the
  // cache's shard mutex).
  uint64_t schema_version = catalog_->schema_version();
  if (std::shared_ptr<const Object> hit = cache_.Lookup(oid, schema_version)) {
    *cache_hit = true;
    return *hit;
  }
  ReadGuard lock(LatchFor(oid.class_id()));
  KIMDB_ASSIGN_OR_RETURN(Object obj, GetRawHeld(oid));
  KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&obj));
  // Fill while still holding the class-shared latch: no exclusive
  // mutation of this class can be in flight, so this image is current and
  // its invalidation (if any) must come from a *later* writer -- a stale
  // image can never be resurrected. Tag with the version read *before*
  // materialization: if the schema evolved in between, the tag is stale
  // versus the new version and the entry self-invalidates on next lookup
  // instead of masquerading as current.
  uint64_t commit_ts = 0;
  if (mvcc_ == nullptr || mvcc_->CacheFillTs(oid, &commit_ts)) {
    cache_.Insert(oid, obj, schema_version, commit_ts);
  }
  return obj;
}

Result<std::shared_ptr<const Object>> ObjectStore::GetShared(Oid oid) const {
  bool unused;
  return GetShared(oid, &unused);
}

Result<std::shared_ptr<const Object>> ObjectStore::GetShared(
    Oid oid, bool* cache_hit) const {
  obs::Timer timer(get_ns_);
  *cache_hit = false;
  // Same protocol as Get (lock-free hit, fill under the class-shared
  // latch with the pre-materialization version tag), minus the defensive
  // copy: hit and miss both return the exact instance the cache holds.
  uint64_t schema_version = catalog_->schema_version();
  if (std::shared_ptr<const Object> hit = cache_.Lookup(oid, schema_version)) {
    *cache_hit = true;
    return hit;
  }
  ReadGuard lock(LatchFor(oid.class_id()));
  KIMDB_ASSIGN_OR_RETURN(Object obj, GetRawHeld(oid));
  KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&obj));
  auto shared = std::make_shared<const Object>(std::move(obj));
  uint64_t commit_ts = 0;
  if (mvcc_ == nullptr || mvcc_->CacheFillTs(oid, &commit_ts)) {
    cache_.Insert(oid, shared, schema_version, commit_ts);
  }
  return shared;
}

Result<std::shared_ptr<const Object>> ObjectStore::GetSharedSnapshot(
    Oid oid, uint64_t read_ts, bool* cache_hit) const {
  if (mvcc_ == nullptr) return GetShared(oid, cache_hit);
  obs::Timer timer(get_ns_);
  *cache_hit = false;
  // A live cache entry is always the newest committed image (mutators
  // invalidate at staging, and fills are gated on "no pending write"), so
  // a commit-ts tag at or below read_ts is exactly the version this
  // snapshot must see. No class latch, no lock-manager traffic.
  uint64_t schema_version = catalog_->schema_version();
  if (std::shared_ptr<const Object> hit =
          cache_.LookupSnapshot(oid, schema_version, read_ts)) {
    *cache_hit = true;
    return hit;
  }
  // Chain resolution off-lock: committed versions are immutable and the
  // resolved shared_ptr stays valid past any concurrent prune.
  std::shared_ptr<const Object> image;
  switch (mvcc_->Resolve(oid, read_ts, &image)) {
    case MvccLookup::kImage:
      return image;
    case MvccLookup::kInvisible:
      return Status::NotFound("object " + oid.ToString() +
                              " not visible at snapshot");
    case MvccLookup::kNoChain:
      break;
  }
  ReadGuard lock(LatchFor(oid.class_id()));
  // Re-resolve under the class-shared latch: a writer that staged a chain
  // after the first check has already dirtied the heap, but staging
  // happens under the class's exclusive latch, so the chain is now
  // guaranteed observable.
  switch (mvcc_->Resolve(oid, read_ts, &image)) {
    case MvccLookup::kImage:
      return image;
    case MvccLookup::kInvisible:
      return Status::NotFound("object " + oid.ToString() +
                              " not visible at snapshot");
    case MvccLookup::kNoChain:
      break;
  }
  // No chain while we hold the class-shared latch: the heap image is
  // committed, and any chain it once had was pruned at or below the
  // watermark -- which is at or below every live snapshot's read_ts, ours
  // included.
  KIMDB_ASSIGN_OR_RETURN(Object obj, GetRawHeld(oid));
  KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&obj));
  auto shared = std::make_shared<const Object>(std::move(obj));
  uint64_t commit_ts = 0;
  if (mvcc_->CacheFillTs(oid, &commit_ts)) {
    cache_.Insert(oid, shared, schema_version, commit_ts);
  }
  return shared;
}

Result<Object> ObjectStore::GetSnapshot(Oid oid, uint64_t read_ts,
                                        bool* cache_hit) const {
  KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> shared,
                         GetSharedSnapshot(oid, read_ts, cache_hit));
  return *shared;
}

Status ObjectStore::ForEachInClass(
    ClassId cls, const std::function<Status(const Object&)>& fn) const {
  auto call = [&fn](Object& obj) -> Status { return fn(obj); };
  KIMDB_ASSIGN_OR_RETURN(std::vector<PageId> pages, ExtentPages(cls));
  for (PageId page : pages) {
    KIMDB_RETURN_IF_ERROR(ForEachInClassOnPage(cls, page, call));
  }
  return Status::OK();
}

Status ObjectStore::ForEachRawInClass(
    ClassId cls,
    const std::function<Status(RecordId, const Object&)>& fn) const {
  Result<HeapFile*> heap_r = ExtentOf(cls);
  if (!heap_r.ok()) {
    // A class whose extent was never created has an empty extent.
    if (heap_r.status().IsFailedPrecondition()) return Status::OK();
    return heap_r.status();
  }
  // Off-lock like every extent scan: page reads go through the thread-safe
  // buffer pool and the HeapFile slot is node-stable (see
  // ForEachInClassOnPage).
  return (*heap_r)->ForEach([&](RecordId rid, std::string_view bytes) {
    KIMDB_ASSIGN_OR_RETURN(Object obj, Object::Decode(bytes));
    return fn(rid, obj);
  });
}

std::vector<std::pair<Oid, RecordId>> ObjectStore::DirectorySnapshot()
    const {
  // Shard-by-shard copy: consistent within a shard, not across shards
  // (tooling/checker use only -- the checker runs with writers quiesced).
  std::vector<std::pair<Oid, RecordId>> out;
  for (const DirShard& sh : dir_shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [oid, rid] : sh.map) out.push_back({oid, rid});
  }
  return out;
}

Result<std::vector<PageId>> ObjectStore::ExtentPages(ClassId cls) const {
  Result<HeapFile*> heap_r = ExtentOf(cls);
  if (!heap_r.ok()) {
    if (heap_r.status().IsFailedPrecondition()) {
      return std::vector<PageId>{};  // never-created extent: empty
    }
    return heap_r.status();
  }
  // The chain walk reads page headers that an insert into this class
  // rewrites under the class-exclusive latch.
  ReadGuard lock(LatchFor(cls));
  return (*heap_r)->Pages();
}

Status ObjectStore::ForEachInClassOnPage(
    ClassId cls, PageId page,
    const std::function<Status(Object&)>& fn) const {
  Result<HeapFile*> heap_r = ExtentOf(cls);
  if (!heap_r.ok()) {
    if (heap_r.status().IsFailedPrecondition()) return Status::OK();
    return heap_r.status();
  }
  HeapFile* heap = *heap_r;
  // Writers rewrite records in place on the buffer frame under the
  // class-exclusive latch, so an unlatched decode can observe a torn
  // image. Copy this page's record bytes under the class-SHARED latch --
  // held only for the memcpy, so concurrent scans still never serialize
  // on each other -- then decode and run callbacks off-latch, preserving
  // the invariant that a callback may re-enter the store (even this
  // class) without recursive-latch deadlock. MaterializeInPlace only
  // reads the catalog and the HeapFile slot in extents_ is node-stable,
  // so everything past the copy is latch-free.
  std::vector<std::string> records;
  {
    ReadGuard lock(LatchFor(cls));
    KIMDB_RETURN_IF_ERROR(
        heap->ForEachOnPage(page, [&](RecordId, std::string_view bytes) {
          records.emplace_back(bytes);
          return Status::OK();
        }));
  }
  for (const std::string& bytes : records) {
    KIMDB_ASSIGN_OR_RETURN(Object obj, Object::Decode(bytes));
    KIMDB_RETURN_IF_ERROR(MaterializeInPlace(&obj));
    KIMDB_RETURN_IF_ERROR(fn(obj));
  }
  return Status::OK();
}

Status ObjectStore::ForEachInHierarchy(
    ClassId cls, const std::function<Status(const Object&)>& fn) const {
  for (ClassId c : catalog_->Subtree(cls)) {
    KIMDB_RETURN_IF_ERROR(ForEachInClass(c, fn));
  }
  return Status::OK();
}

Result<uint64_t> ObjectStore::CountClass(ClassId cls) const {
  uint64_t n = 0;
  KIMDB_RETURN_IF_ERROR(ForEachInClass(cls, [&](const Object&) {
    ++n;
    return Status::OK();
  }));
  return n;
}

Status ObjectStore::ApplyUpsertHeld(WriteGuard& g, const Object& obj) {
  Result<RecordId> existing = DirectoryGet(obj.oid());
  std::string bytes;
  obj.EncodeTo(&bytes);
  if (existing.ok()) {
    // Idempotent redo / rollback undo: overwrite the existing image.
    Result<Object> before = GetRawHeld(obj.oid());
    KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(obj.class_id()));
    KIMDB_ASSIGN_OR_RETURN(RecordId new_rid, heap->Update(*existing, bytes));
    DirectoryPut(obj.oid(), new_rid);
    // Undo (txn abort) and redo (recovery) both land here: the cached
    // image of the clobbered version must go before the downgrade
    // publishes the new state.
    cache_.Invalidate(obj.oid());
    g.Downgrade();
    if (before.ok()) {
      for (auto* l : ListenersSnapshot()) l->OnUpdate(*before, obj);
    }
    return Status::OK();
  }
  KIMDB_RETURN_IF_ERROR(EnsureExtent(obj.class_id()));
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(obj.class_id()));
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, heap->Insert(bytes));
  DirectoryPut(obj.oid(), rid);
  // A redo of an insert whose delete was cached as NotFound can't happen
  // (negative results are not cached), but a resurrecting undo must still
  // clear whatever image preceded the delete.
  cache_.Invalidate(obj.oid());
  // Keep the serial allocator ahead of replayed OIDs.
  KIMDB_ASSIGN_OR_RETURN(ClassDef * def,
                         catalog_->GetClassMutable(obj.class_id()));
  def->next_serial = std::max(def->next_serial, obj.oid().serial() + 1);
  g.Downgrade();
  for (auto* l : ListenersSnapshot()) l->OnInsert(obj);
  return Status::OK();
}

Status ObjectStore::ApplyInsert(const Object& obj) {
  WriteGuard g(LatchFor(obj.class_id()), &class_write_waits_, trace_,
               obj.class_id());
  return ApplyUpsertHeld(g, obj);
}

Status ObjectStore::ApplyUpdate(const Object& obj) {
  WriteGuard g(LatchFor(obj.class_id()), &class_write_waits_, trace_,
               obj.class_id());
  return ApplyUpsertHeld(g, obj);
}

Status ObjectStore::ApplyDelete(Oid oid) {
  WriteGuard g(LatchFor(oid.class_id()), &class_write_waits_, trace_,
               oid.class_id());
  Result<RecordId> existing = DirectoryGet(oid);
  if (!existing.ok()) return Status::OK();  // idempotent
  Result<Object> before = GetRawHeld(oid);
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(oid.class_id()));
  KIMDB_RETURN_IF_ERROR(heap->Delete(*existing));
  DirectoryErase(oid);
  cache_.Invalidate(oid);
  g.Downgrade();
  if (before.ok()) {
    for (auto* l : ListenersSnapshot()) l->OnDelete(*before);
  }
  return Status::OK();
}

Status ObjectStore::RewriteExtent(ClassId cls) {
  // Exclusive for the whole rewrite; no listener notification, so no
  // downgrade phase (record identities don't change, only their bytes).
  WriteGuard g(LatchFor(cls), &class_write_waits_, trace_,
               cls);
  std::vector<Object> materialized;
  KIMDB_RETURN_IF_ERROR(ForEachInClass(cls, [&](const Object& obj) {
    materialized.push_back(obj);
    return Status::OK();
  }));
  KIMDB_ASSIGN_OR_RETURN(HeapFile * heap, ExtentOf(cls));
  for (const Object& obj : materialized) {
    std::string bytes;
    obj.EncodeTo(&bytes);
    KIMDB_ASSIGN_OR_RETURN(RecordId rid, DirectoryGet(obj.oid()));
    KIMDB_ASSIGN_OR_RETURN(RecordId new_rid, heap->Update(rid, bytes));
    DirectoryPut(obj.oid(), new_rid);
  }
  // Every record moved; start the cache over rather than invalidating
  // one OID at a time.
  cache_.Clear();
  return Status::OK();
}

void ObjectStore::AddListener(ObjectStoreListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
}

void ObjectStore::RemoveListener(ObjectStoreListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

}  // namespace kimdb
