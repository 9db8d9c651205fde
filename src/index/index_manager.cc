#include "index/index_manager.h"

#include <algorithm>
#include <mutex>

#include "object/mvcc.h"

namespace kimdb {

Result<IndexId> IndexManager::CreateIndex(IndexKind kind, ClassId target_class,
                                          std::vector<std::string> path) {
  if (path.empty()) return Status::InvalidArgument("empty index path");
  if (kind != IndexKind::kNested && path.size() != 1) {
    return Status::InvalidArgument(
        "multi-step paths require a nested index");
  }
  const Catalog& cat = *store_->catalog();
  KIMDB_RETURN_IF_ERROR(cat.GetClass(target_class).status());

  auto info = std::make_unique<IndexInfo>();
  const MvccTable* mvcc = store_->mvcc();
  info->built_ts = mvcc == nullptr ? 0 : mvcc->visible_ts();
  info->kind = kind;
  info->target_class = target_class;
  info->path = std::move(path);

  // Resolve the path and compute per-level class sets.
  ClassId level_cls = target_class;
  for (size_t i = 0; i < info->path.size(); ++i) {
    KIMDB_ASSIGN_OR_RETURN(const AttributeDef* attr,
                           cat.ResolveAttr(level_cls, info->path[i]));
    info->path_ids.push_back(attr->id);
    bool is_last = i + 1 == info->path.size();
    if (!is_last) {
      if (attr->domain.kind != Domain::Kind::kRef) {
        return Status::InvalidArgument(
            "path step '" + info->path[i] +
            "' is not a reference attribute with a declared domain class");
      }
      level_cls = attr->domain.ref_class;
    }
  }
  // Level 0 classes: the target class (single-class) or its subtree.
  if (kind == IndexKind::kSingleClass) {
    info->level_classes.push_back({target_class});
  } else {
    info->level_classes.push_back(cat.Subtree(target_class));
  }
  // Levels 1..n-1: subtree of each step's domain class.
  {
    ClassId cur = target_class;
    for (size_t i = 0; i + 1 < info->path.size(); ++i) {
      KIMDB_ASSIGN_OR_RETURN(const AttributeDef* attr,
                             cat.ResolveAttr(cur, info->path[i]));
      cur = attr->domain.ref_class;
      info->level_classes.push_back(cat.Subtree(cur));
    }
  }
  info->rev.resize(info->path.size() > 0 ? info->path.size() - 1 : 0);

  // Initial build: one walk of the targets adds their keys, derived from
  // the materialized image the walk hands over, and their level-0 backward
  // chains; the deeper levels' chains need walks of their own.
  IndexInfo* raw = info.get();
  const bool nested = raw->path.size() > 1;
  for (ClassId cls : raw->level_classes[0]) {
    KIMDB_RETURN_IF_ERROR(store_->ForEachInClass(cls, [&](const Object& obj) {
      if (nested) AddRevEdges(raw, 0, obj);
      RefreshTarget(raw, obj.oid(), obj.oid(), DeriveKeys(*raw, obj));
      return Status::OK();
    }));
  }
  for (size_t level = 1; level + 1 < raw->path.size(); ++level) {
    for (ClassId cls : raw->level_classes[level]) {
      KIMDB_RETURN_IF_ERROR(
          store_->ForEachInClass(cls, [&](const Object& obj) {
            AddRevEdges(raw, level, obj);
            return Status::OK();
          }));
    }
  }

  // Publication is the only step needing the writer lock: the build above
  // ran on a private IndexInfo no listener or lookup could reach. (Create
  // is DDL -- concurrent writers may leave the fresh index missing their
  // mutations, and an uncommitted image the build read would stand in for
  // the committed one snapshots after built_ts read; quiesce writers on
  // every path class via LockSchemaChange, as before.)
  std::unique_lock<std::shared_mutex> lock(mu_);
  IndexId id = next_id_++;
  raw->id = id;
  indexes_[id] = std::move(info);
  return id;
}

Status IndexManager::DropIndex(IndexId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  deferred_entries_.fetch_sub(it->second->deferred_count,
                              std::memory_order_relaxed);
  indexes_.erase(it);
  return Status::OK();
}

Result<const IndexInfo*> IndexManager::GetIndex(IndexId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  return it->second.get();
}

std::vector<const IndexInfo*> IndexManager::AllIndexes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<const IndexInfo*> out;
  for (const auto& [id, info] : indexes_) out.push_back(info.get());
  return out;
}

IndexManager::TreeStats IndexManager::StatsFor(IndexId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  TreeStats s;
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return s;
  const BPlusTree& tree = it->second->tree;
  s.keys = tree.num_keys();
  s.entries = tree.num_entries();
  s.height = tree.height();
  return s;
}

Result<EquiDepthHistogram> IndexManager::BuildHistogram(IndexId id,
                                                        size_t buckets) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  const BPlusTree& tree = it->second->tree;

  EquiDepthHistogram h;
  h.total_entries = tree.num_entries();
  h.distinct_keys = tree.num_keys();
  if (h.total_entries == 0) return h;

  const uint64_t depth =
      std::max<uint64_t>(1, (h.total_entries + buckets - 1) / buckets);
  uint64_t in_bucket = 0;
  const Value* last_key = nullptr;
  Status st = tree.Scan(
      std::nullopt, true, std::nullopt, true,
      [&](const Value& key, const Posting& posting) {
        in_bucket += posting.size();
        last_key = &key;
        if (in_bucket >= depth) {
          h.bounds.push_back(key);
          h.counts.push_back(in_bucket);
          in_bucket = 0;
          last_key = nullptr;
        }
        return Status::OK();
      });
  if (!st.ok()) return st;
  if (last_key != nullptr && in_bucket > 0) {
    h.bounds.push_back(*last_key);
    h.counts.push_back(in_bucket);
  }
  return h;
}

const IndexInfo* IndexManager::FindIndexFor(
    ClassId target, const std::vector<std::string>& path,
    bool hierarchy_scope, std::optional<uint64_t> read_ts) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Catalog& cat = *store_->catalog();
  const IndexInfo* best = nullptr;
  for (const auto& [id, info] : indexes_) {
    if (info->path != path) continue;
    if (read_ts.has_value() && *read_ts < info->built_ts) continue;
    if (info->kind == IndexKind::kSingleClass) {
      if (!hierarchy_scope && info->target_class == target) {
        // Exact single-class match beats a wider hierarchy index.
        return info.get();
      }
      // A single-class index also suffices for hierarchy scope when the
      // target has no subclasses.
      if (hierarchy_scope && info->target_class == target &&
          cat.Subtree(target).size() == 1) {
        best = info.get();
      }
      continue;
    }
    // Hierarchy/nested index rooted at an ancestor covers both scopes.
    if (cat.IsSubclassOf(target, info->target_class)) {
      if (best == nullptr) best = info.get();
    }
  }
  return best;
}

std::vector<ClassId> IndexManager::ScopeClasses(ClassId scope_class,
                                                bool hierarchy) const {
  if (!hierarchy) return {scope_class};
  return store_->catalog()->Subtree(scope_class);
}

SnapshotCheck IndexManager::CheckFor(const IndexInfo& info) const {
  bool chains = false;
  const MvccTable* mvcc = store_->mvcc();
  if (mvcc != nullptr) {
    // Every level counts: an uncommitted write deep in a nested path adds
    // its new key to the tree before any snapshot may see it.
    for (const auto& level : info.level_classes) {
      for (ClassId cls : level) chains = chains || mvcc->MayHaveVersions(cls);
    }
  }
  // Deferral keeps a superseded key only for the targets the write reached
  // through the current backward chains. A snapshot that pairs an old
  // image on one hop with a newer one on another (a target whose pending
  // writer moved its reference, a path object another writer committed)
  // reads a key no maintenance step derived.
  if (chains && info.path_ids.size() > 1) return SnapshotCheck::kScan;
  if (chains || info.deferred_count > 0) return SnapshotCheck::kRecheck;
  return SnapshotCheck::kNone;
}

Status IndexManager::LookupEq(const IndexInfo& info, const Value& key,
                              ClassId scope_class, bool hierarchy,
                              std::vector<Oid>* out,
                              SnapshotCheck* check) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Decided under the probe's lock: a writer stages its chain before its
  // listener takes the writer side, so either the probe saw the tree
  // before that maintenance or this check sees the chain.
  if (check != nullptr) *check = CheckFor(info);
  const Posting* p = info.tree.Find(key);
  if (p == nullptr) return Status::OK();
  std::vector<ClassId> scope = ScopeClasses(scope_class, hierarchy);
  p->CollectInto(scope, out);
  return Status::OK();
}

Status IndexManager::LookupRange(const IndexInfo& info,
                                 const std::optional<Value>& lo,
                                 bool lo_inclusive,
                                 const std::optional<Value>& hi,
                                 bool hi_inclusive, ClassId scope_class,
                                 bool hierarchy, std::vector<Oid>* out,
                                 SnapshotCheck* check) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (check != nullptr) *check = CheckFor(info);
  std::vector<ClassId> scope = ScopeClasses(scope_class, hierarchy);
  return info.tree.Scan(lo, lo_inclusive, hi, hi_inclusive,
                        [&](const Value&, const Posting& p) {
                          p.CollectInto(scope, out);
                          return Status::OK();
                        });
}

void IndexManager::RetireDeferred(const std::vector<Oid>& erased_chains) {
  // Pairs with Defer's count-then-look: a deferral whose cause this pass
  // erased either saw the chain gone (and removed at once) or is counted.
  if (deferred_entries_.load() == 0) return;
  {
    std::lock_guard<std::mutex> queue(retire_mu_);
    retire_queue_.insert(retire_queue_.end(), erased_chains.begin(),
                         erased_chains.end());
    if (retire_queue_.empty()) return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  std::vector<Oid> causes;
  {
    std::lock_guard<std::mutex> queue(retire_mu_);
    causes.swap(retire_queue_);
  }
  std::sort(causes.begin(), causes.end());
  causes.erase(std::unique(causes.begin(), causes.end()), causes.end());
  const MvccTable* mvcc = store_->mvcc();
  uint64_t retired = 0;
  for (Oid cause : causes) {
    // A new writer gave the cause a chain again: its older deferrals wait
    // for that chain's erasure, which queues the cause once more.
    if (mvcc != nullptr && mvcc->HasChain(cause)) continue;
    for (auto& [id, info] : indexes_) retired += RetireCause(info.get(), cause);
  }
  deferred_entries_.fetch_sub(retired);
  deferred_retired_.fetch_add(retired, std::memory_order_relaxed);
}

size_t IndexManager::RetireCause(IndexInfo* info, Oid cause) {
  auto bc = info->deferred_by_cause.find(cause);
  if (bc == info->deferred_by_cause.end()) return 0;
  std::vector<Oid> targets = std::move(bc->second);
  info->deferred_by_cause.erase(bc);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  size_t retired = 0;
  for (Oid target : targets) {
    auto it = info->deferred.find(target);
    if (it == info->deferred.end()) continue;
    std::vector<IndexInfo::Deferred>& recs = it->second;
    auto retiring = std::stable_partition(
        recs.begin(), recs.end(),
        [&](const IndexInfo::Deferred& d) { return d.cause != cause; });
    auto current = info->stored_keys.find(target);
    for (auto r = retiring; r != recs.end(); ++r) {
      // An aborted writer's rollback re-added the key, or another pending
      // deferral still needs it: the entry stays in the tree.
      bool held = (current != info->stored_keys.end() &&
                   std::find(current->second.begin(), current->second.end(),
                             r->key) != current->second.end()) ||
                  std::any_of(recs.begin(), retiring,
                              [&](const IndexInfo::Deferred& d) {
                                return d.key == r->key;
                              });
      if (!held) info->tree.Remove(r->key, target);
    }
    retired += static_cast<size_t>(recs.end() - retiring);
    recs.erase(retiring, recs.end());
    if (recs.empty()) info->deferred.erase(it);
  }
  info->deferred_count -= retired;
  return retired;
}

bool IndexManager::ClassAtLevel(const IndexInfo& info, size_t level,
                                ClassId cls) const {
  const auto& v = info.level_classes[level];
  return std::find(v.begin(), v.end(), cls) != v.end();
}

std::vector<Oid> IndexManager::RefsThrough(const Object& obj, AttrId attr) {
  std::vector<Oid> out;
  const Value& v = obj.Get(attr);
  if (v.kind() == Value::Kind::kRef) {
    if (!v.as_ref().is_nil()) out.push_back(v.as_ref());
  } else if (v.is_collection()) {
    for (const Value& e : v.elements()) {
      if (e.kind() == Value::Kind::kRef && !e.as_ref().is_nil()) {
        out.push_back(e.as_ref());
      }
    }
  }
  return out;
}

std::vector<Value> IndexManager::DeriveKeys(const IndexInfo& info,
                                            const Object& target) const {
  key_recomputations_.fetch_add(1, std::memory_order_relaxed);
  // Breadth-first fan-out along the path; the target itself is not copied.
  std::vector<Object> fetched;
  std::vector<const Object*> frontier{&target};
  for (size_t step = 0; step + 1 < info.path_ids.size(); ++step) {
    std::vector<Object> next;
    for (const Object* obj : frontier) {
      for (Oid ref : RefsThrough(*obj, info.path_ids[step])) {
        Result<Object> child = store_->Get(ref);
        if (child.ok()) next.push_back(std::move(*child));
      }
    }
    fetched = std::move(next);
    frontier.clear();
    for (const Object& obj : fetched) frontier.push_back(&obj);
  }
  std::vector<Value> keys;
  AttrId terminal = info.path_ids.back();
  for (const Object* obj : frontier) {
    const Value& v = obj->Get(terminal);
    if (v.is_null()) continue;
    if (v.is_collection()) {
      for (const Value& e : v.elements()) {
        if (!e.is_null()) keys.push_back(e);
      }
    } else {
      keys.push_back(v);
    }
  }
  return keys;
}

std::vector<Value> IndexManager::KeysOf(const IndexInfo& info,
                                        Oid target) const {
  Result<Object> obj = store_->Get(target);
  if (!obj.ok()) return {};  // deleted: no keys
  return DeriveKeys(info, *obj);
}

void IndexManager::RefreshTarget(IndexInfo* info, Oid target, Oid cause,
                                 std::vector<Value> keys) {
  maintenance_ops_.fetch_add(1, std::memory_order_relaxed);
  auto it = info->stored_keys.find(target);
  if (it != info->stored_keys.end()) {
    std::vector<Value> gone;
    for (const Value& k : it->second) {
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        gone.push_back(k);
      }
    }
    // A snapshot may still read the version that carried a superseded
    // key while the written object has a chain: keep its entry until
    // RetireDeferred. Without a chain no snapshot can, so remove now --
    // unless an earlier deferral still holds the same entry.
    if (!gone.empty() && !Defer(info, target, cause, gone)) {
      for (const Value& k : gone) {
        if (!DeferralHolds(*info, target, k)) info->tree.Remove(k, target);
      }
    }
    info->stored_keys.erase(it);
  }
  for (const Value& k : keys) info->tree.Insert(k, target);
  if (!keys.empty()) info->stored_keys[target] = std::move(keys);
}

bool IndexManager::Defer(IndexInfo* info, Oid target, Oid cause,
                         const std::vector<Value>& gone) {
  const MvccTable* mvcc = store_->mvcc();
  if (mvcc == nullptr) return false;
  // Count first, then look at the chain: a prune pass that erases the
  // chain after this look sees the count and queues `cause`.
  deferred_entries_.fetch_add(gone.size());
  if (!mvcc->HasChain(cause)) {
    deferred_entries_.fetch_sub(gone.size());
    return false;
  }
  std::vector<IndexInfo::Deferred>& recs = info->deferred[target];
  size_t added = 0;
  for (const Value& k : gone) {
    bool dup = std::any_of(recs.begin(), recs.end(),
                           [&](const IndexInfo::Deferred& d) {
                             return d.cause == cause && d.key == k;
                           });
    if (dup) continue;
    recs.push_back(IndexInfo::Deferred{k, cause});
    ++added;
  }
  if (added > 0) info->deferred_by_cause[cause].push_back(target);
  info->deferred_count += added;
  deferred_entries_.fetch_sub(gone.size() - added);
  return true;
}

bool IndexManager::DeferralHolds(const IndexInfo& info, Oid target,
                                 const Value& key) {
  auto it = info.deferred.find(target);
  if (it == info.deferred.end()) return false;
  return std::any_of(
      it->second.begin(), it->second.end(),
      [&](const IndexInfo::Deferred& d) { return d.key == key; });
}

void IndexManager::AddRevEdges(IndexInfo* info, size_t level,
                               const Object& obj) {
  for (Oid ref : RefsThrough(obj, info->path_ids[level])) {
    info->rev[level][ref].push_back(obj.oid());
  }
}

void IndexManager::RemoveRevEdges(IndexInfo* info, size_t level,
                                  const Object& obj) {
  for (Oid ref : RefsThrough(obj, info->path_ids[level])) {
    auto it = info->rev[level].find(ref);
    if (it == info->rev[level].end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), obj.oid()), v.end());
    if (v.empty()) info->rev[level].erase(it);
  }
}

std::vector<Oid> IndexManager::AffectedTargets(const IndexInfo& info,
                                               size_t level, Oid oid) const {
  // Walk the backward chains from `level` up to the targets at level 0.
  std::vector<Oid> frontier{oid};
  for (size_t l = level; l > 0; --l) {
    std::vector<Oid> prev;
    for (Oid o : frontier) {
      auto it = info.rev[l - 1].find(o);
      if (it != info.rev[l - 1].end()) {
        prev.insert(prev.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(prev.begin(), prev.end());
    prev.erase(std::unique(prev.begin(), prev.end()), prev.end());
    frontier = std::move(prev);
  }
  return frontier;
}

void IndexManager::OnInsert(const Object& obj) {
  // Writer side: the caller holds its class's latch shared (downgrade
  // phase), so maintenance of distinct classes arrives concurrently.
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [id, info] : indexes_) {
    // Maintain backward chains for intermediate levels.
    for (size_t level = 0; level + 1 < info->path_ids.size(); ++level) {
      if (ClassAtLevel(*info, level, obj.class_id())) {
        AddRevEdges(info.get(), level, obj);
      }
    }
    // Key the object as a target (level 0). A re-inserted path object (an
    // aborted delete's rollback) is referenced again by the targets whose
    // in-edges survived the delete.
    for (size_t level = 0; level < info->path_ids.size(); ++level) {
      if (!ClassAtLevel(*info, level, obj.class_id())) continue;
      for (Oid t : AffectedTargets(*info, level, obj.oid())) {
        RefreshTarget(info.get(), t, obj.oid(), KeysOf(*info, t));
      }
    }
  }
}

void IndexManager::OnUpdate(const Object& before, const Object& after) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [id, info] : indexes_) {
    size_t n = info->path_ids.size();
    // A level whose path attribute the update left alone changes neither
    // the backward chains nor any target's keys.
    auto touched = [&](size_t level) {
      AttrId attr = info->path_ids[level];
      return ClassAtLevel(*info, level, after.class_id()) &&
             before.Get(attr) != after.Get(attr);
    };
    // Update backward chains where this object is an intermediate node.
    for (size_t level = 0; level + 1 < n; ++level) {
      if (touched(level)) {
        RemoveRevEdges(info.get(), level, before);
        AddRevEdges(info.get(), level, after);
      }
    }
    // Refresh targets whose paths pass through this object (any level).
    for (size_t level = 0; level < n; ++level) {
      if (!touched(level)) continue;
      for (Oid t : AffectedTargets(*info, level, after.oid())) {
        RefreshTarget(info.get(), t, after.oid(), KeysOf(*info, t));
      }
    }
  }
}

void IndexManager::OnDelete(const Object& before) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [id, info] : indexes_) {
    size_t n = info->path_ids.size();
    // Targets whose paths passed through the deleted object must be
    // recomputed *after* the reverse edges still exist -- collect first.
    std::vector<Oid> affected;
    for (size_t level = 1; level < n; ++level) {
      if (ClassAtLevel(*info, level, before.class_id())) {
        auto t = AffectedTargets(*info, level, before.oid());
        affected.insert(affected.end(), t.begin(), t.end());
      }
    }
    for (size_t level = 0; level + 1 < n; ++level) {
      if (ClassAtLevel(*info, level, before.class_id())) {
        RemoveRevEdges(info.get(), level, before);
      }
    }
    // In-edges (references *to* the deleted object) stay: their referrers
    // still hold the reference, drop it when they change or die, and an
    // aborted delete's re-insert finds its targets through them.
    if (ClassAtLevel(*info, 0, before.class_id())) {
      // Removes (or defers) its entries.
      RefreshTarget(info.get(), before.oid(), before.oid(), {});
    }
    for (Oid t : affected) {
      if (t != before.oid()) {
        RefreshTarget(info.get(), t, before.oid(), KeysOf(*info, t));
      }
    }
  }
}

}  // namespace kimdb
