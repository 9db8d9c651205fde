#include "exec/operators.h"

#include <algorithm>

namespace kimdb {
namespace exec {

namespace {

/// Point-fetches an index candidate as the context reads it (the version
/// visible at the snapshot when one is armed), accounting the fetch. A
/// null image means deleted or invisible since the probe: expected churn
/// the caller skips. Anything else (I/O failure, corruption) surfaces.
Result<std::shared_ptr<const Object>> FetchCandidate(const ObjectStore* store,
                                                     ExecContext* ctx,
                                                     Oid oid) {
  ctx->objects_fetched.fetch_add(1, std::memory_order_relaxed);
  bool cache_hit = false;
  Result<std::shared_ptr<const Object>> shared =
      ctx->snapshot_active()
          ? store->GetSharedSnapshot(oid, ctx->snapshot_ts(), &cache_hit)
          : store->GetShared(oid, &cache_hit);
  (cache_hit ? ctx->obj_cache_hits : ctx->obj_cache_misses)
      .fetch_add(1, std::memory_order_relaxed);
  if (!shared.ok() && shared.status().IsNotFound()) {
    return std::shared_ptr<const Object>();
  }
  return shared;
}

}  // namespace

// --- ExtentScan -------------------------------------------------------------

Status ExtentScan::OpenImpl(ExecContext* ctx) {
  residual_ = nullptr;  // a fusing parent re-offers its predicate after Open
  KIMDB_ASSIGN_OR_RETURN(pages_, store_->ExtentPages(cls_));
  page_idx_ = 0;
  ra_pos_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  seen_.clear();
  ghost_done_ = false;
  ctx->Trace("ExtentScan(" + name_ + "): open, " +
             std::to_string(pages_.size()) + " page(s)");
  return Status::OK();
}

Result<bool> ExtentScan::Refill(ExecContext* ctx) {
  const MvccTable* mvcc = store_->mvcc();
  const bool snap = ctx->snapshot_active() && mvcc != nullptr;
  const uint64_t read_ts = ctx->snapshot_ts();
  buf_.clear();
  buf_pos_ = 0;
  while (buf_.empty()) {
    if (page_idx_ >= pages_.size()) {
      // Ghost pass: versions visible at the snapshot whose heap record was
      // deleted, or moved to a page this scan had already passed. The
      // seen-set keeps records the heap pass emitted from repeating.
      if (!snap || ghost_done_) return false;
      ghost_done_ = true;
      for (auto& [oid, image] : mvcc->CollectVisible(cls_, read_ts)) {
        if (seen_.count(oid) > 0) continue;
        buf_.push_back(*image);
      }
      ctx->objects_scanned.fetch_add(buf_.size(), std::memory_order_relaxed);
      return !buf_.empty();
    }
    KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
    if (page_idx_ >= ra_pos_) {
      // Stage the next window of extent pages before pinning them.
      BufferPool* bp = store_->buffer_pool();
      size_t ra_end =
          std::min(pages_.size(), page_idx_ + bp->readahead_window());
      bp->ReadAhead(std::span<const PageId>(pages_.data() + page_idx_,
                                            ra_end - page_idx_));
      ra_pos_ = ra_end;
    }
    size_t decoded = 0;
    KIMDB_RETURN_IF_ERROR(store_->ForEachInClassOnPage(
        cls_, pages_[page_idx_++], [&](Object& obj) {
          ++decoded;
          if (snap) {
            // Decode-then-resolve: the heap image is authoritative only
            // when no version chain exists; otherwise the chain decides
            // what (if anything) this snapshot sees.
            std::shared_ptr<const Object> image;
            switch (mvcc->Resolve(obj.oid(), read_ts, &image)) {
              case MvccLookup::kNoChain:
                break;
              case MvccLookup::kImage:
                obj = *image;
                break;
              case MvccLookup::kInvisible:
                return Status::OK();
            }
            // Also dedups a record decoded twice because it moved pages
            // mid-scan.
            if (!seen_.insert(obj.oid()).second) return Status::OK();
          }
          buf_.push_back(std::move(obj));
          return Status::OK();
        }));
    ctx->objects_scanned.fetch_add(decoded, std::memory_order_relaxed);
  }
  return true;
}

Result<size_t> ExtentScan::NextBatchImpl(ExecContext* ctx,
                                         std::vector<Row>* out) {
  while (out->size() < kBatchSize) {
    if (buf_pos_ >= buf_.size()) {
      KIMDB_ASSIGN_OR_RETURN(bool more, Refill(ctx));
      if (!more) break;
    }
    // Bulk-move the decoded page buffer: one Refill paid the page pin and
    // MVCC resolution for all of these rows already. A fused predicate
    // runs here, against the buffer entry, so a non-matching object is
    // never moved into the batch at all.
    size_t take = std::min(kBatchSize - out->size(), buf_.size() - buf_pos_);
    for (size_t i = 0; i < take; ++i) {
      Object& obj = buf_[buf_pos_++];
      if (residual_ != nullptr) {
        KIMDB_ASSIGN_OR_RETURN(bool match, (*residual_)(obj, ctx));
        if (!match) continue;
        // Fused consumers read OIDs (late materialization): the match
        // stays in the page buffer instead of moving into the batch.
        out->emplace_back().oid = obj.oid();
        continue;
      }
      Row& row = out->emplace_back();
      row.oid = obj.oid();
      row.obj = std::move(obj);
    }
  }
  return out->size();
}

void ExtentScan::CloseImpl(ExecContext*) {
  pages_.clear();
  buf_.clear();
  seen_.clear();
}

// --- HierarchyScan ----------------------------------------------------------

Status HierarchyScan::OpenImpl(ExecContext* ctx) {
  cur_ = 0;
  for (auto& scan : extents_) {
    KIMDB_RETURN_IF_ERROR(scan->Open(ctx));
  }
  return Status::OK();
}

Result<size_t> HierarchyScan::NextBatchImpl(ExecContext* ctx,
                                            std::vector<Row>* out) {
  while (cur_ < extents_.size()) {
    KIMDB_ASSIGN_OR_RETURN(size_t n, extents_[cur_]->NextBatch(ctx, out));
    if (n > 0) return n;
    ++cur_;
  }
  return 0;
}

void HierarchyScan::CloseImpl(ExecContext* ctx) {
  for (auto& scan : extents_) scan->Close(ctx);
}

bool HierarchyScan::AcceptBatchResidual(const MatchFn* pred) {
  // Every child is an ExtentScan and accepts; fold defensively anyway --
  // a partially-fused hierarchy would still be correct (the Filter above
  // re-checks whatever reaches it when fusion is off) but never fast.
  bool all = true;
  for (auto& scan : extents_) all = scan->AcceptBatchResidual(pred) && all;
  return all;
}

std::vector<const Operator*> HierarchyScan::children() const {
  std::vector<const Operator*> out;
  out.reserve(extents_.size());
  for (const auto& scan : extents_) out.push_back(scan.get());
  return out;
}

// --- IndexScan --------------------------------------------------------------

Status IndexScan::OpenImpl(ExecContext* ctx) {
  candidates_.clear();
  pos_ = 0;
  KIMDB_ASSIGN_OR_RETURN(const IndexInfo* info,
                         indexes_->GetIndex(spec_.index_id));
  ctx->used_index.store(true, std::memory_order_relaxed);
  ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
  SnapshotCheck check = SnapshotCheck::kNone;
  if (spec_.eq_key.has_value()) {
    KIMDB_RETURN_IF_ERROR(indexes_->LookupEq(
        *info, *spec_.eq_key, spec_.scope_class, spec_.hierarchy_scope,
        &candidates_, &check));
  } else {
    KIMDB_RETURN_IF_ERROR(indexes_->LookupRange(
        *info, spec_.lo, spec_.lo_inclusive, spec_.hi, spec_.hi_inclusive,
        spec_.scope_class, spec_.hierarchy_scope, &candidates_, &check));
  }
  // Without a snapshot the context reads the heap, which the tree's
  // current keys were derived from: a re-check suffices.
  if (check == SnapshotCheck::kScan && ctx->snapshot_active()) {
    candidates_.clear();
    KIMDB_RETURN_IF_ERROR(ScanScope(ctx));
    check = SnapshotCheck::kNone;
  }
  recheck_ = check != SnapshotCheck::kNone && spec_.recheck != nullptr;
  // A nested index can report one object once per satisfying path.
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  ctx->index_candidates.fetch_add(candidates_.size(),
                                  std::memory_order_relaxed);
  ctx->Trace(Describe() + ": " + std::to_string(candidates_.size()) +
             " candidate(s)");
  return Status::OK();
}

Status IndexScan::ScanScope(ExecContext* ctx) {
  const Catalog& cat = *store_->catalog();
  std::vector<ClassId> scope = spec_.hierarchy_scope
                                   ? cat.Subtree(spec_.scope_class)
                                   : std::vector<ClassId>{spec_.scope_class};
  ctx->Trace(Describe() + ": path classes have versions, scanning scope");
  std::vector<Row> batch;
  for (ClassId cls : scope) {
    Result<const ClassDef*> def = cat.GetClass(cls);
    // Driven through the *Impl hooks: the walk is this operator's work in
    // EXPLAIN ANALYZE and traces, not a node of its own. The scan applies
    // the re-check in its page buffer, as under a fusing Filter.
    ExtentScan scan(store_, cls,
                    def.ok() ? (*def)->name : std::to_string(cls));
    KIMDB_RETURN_IF_ERROR(scan.OpenImpl(ctx));
    if (spec_.recheck != nullptr) scan.AcceptBatchResidual(&spec_.recheck);
    Result<size_t> n = size_t{0};
    do {
      ctx->ClearHopMemo();
      batch.clear();
      n = scan.NextBatchImpl(ctx, &batch);
      for (const Row& row : batch) candidates_.push_back(row.oid);
    } while (n.ok() && *n > 0);
    scan.CloseImpl(ctx);
    KIMDB_RETURN_IF_ERROR(n.status());
  }
  return Status::OK();
}

Result<size_t> IndexScan::NextBatchImpl(ExecContext* ctx,
                                        std::vector<Row>* out) {
  if (pos_ >= candidates_.size()) return 0;
  // One budget poll covers the whole slice of the candidate vector.
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  if (recheck_) ctx->ClearHopMemo();
  while (out->size() < kBatchSize && pos_ < candidates_.size()) {
    Oid oid = candidates_[pos_++];
    if (recheck_) {
      KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> image,
                             FetchCandidate(store_, ctx, oid));
      if (image == nullptr) continue;
      KIMDB_ASSIGN_OR_RETURN(bool match, spec_.recheck(*image, ctx));
      if (!match) continue;
    }
    out->emplace_back().oid = oid;
  }
  return out->size();
}

void IndexScan::CloseImpl(ExecContext*) { candidates_.clear(); }

std::string IndexScan::DescribeSpec(const Spec& spec) {
  std::string path;
  for (size_t i = 0; i < spec.path.size(); ++i) {
    if (i > 0) path += ".";
    path += spec.path[i];
  }
  std::string out = "IndexScan(path=" + path;
  if (spec.eq_key.has_value()) {
    out += ", key=" + spec.eq_key->ToString();
  } else {
    out += ", range=";
    out += spec.lo.has_value()
               ? (spec.lo_inclusive ? "[" : "(") + spec.lo->ToString()
               : "(-inf";
    out += ", ";
    out += spec.hi.has_value()
               ? spec.hi->ToString() + (spec.hi_inclusive ? "]" : ")")
               : "+inf)";
  }
  out += spec.hierarchy_scope ? ", scope=hierarchy" : ", scope=class";
  return out + ")";
}

std::string IndexScan::Describe() const { return DescribeSpec(spec_); }

// --- Filter -----------------------------------------------------------------

Status Filter::OpenImpl(ExecContext* ctx) {
  prefetch_armed_ = false;
  KIMDB_RETURN_IF_ERROR(child_->Open(ctx));
  // Fuse the predicate into a scan child: rows then arrive pre-filtered
  // and NextBatchImpl just relays slabs. EXPLAIN ANALYZE runs the same
  // fused tree; the scan's span reports what it read as scanned=N.
  fused_ = child_->AcceptBatchResidual(&pred_);
  return Status::OK();
}

Result<size_t> Filter::NextBatchImpl(ExecContext* ctx,
                                     std::vector<Row>* out) {
  if (fused_) {
    // The scan applied pred_ before a row ever left its page buffer. The
    // hop memo's batch scope is this relay call.
    ctx->ClearHopMemo();
    return child_->NextBatch(ctx, out);
  }
  while (true) {
    ctx->ClearHopMemo();
    // The child fills `out` directly and survivors compact toward the
    // front, so a matching row moves at most once -- and a batch where
    // everything matches not at all. Staging through a side buffer would
    // move every row twice, which dominates a warm scan (Row carries an
    // inline Object).
    KIMDB_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(ctx, out));
    if (n == 0) return 0;
    // Residual-fetch prefetch: index candidates arrive as bare OIDs whose
    // heap pages the scan never touched. Stage every page of the batch
    // through one ReadAhead before the first point fetch, so the fetches
    // hit staged frames instead of paying a synchronous miss each. On a
    // warm object cache the fetches never reach a page at all, so staging
    // stays armed only while batches keep missing the cache.
    if (prefetch_armed_) {
      prefetch_.clear();
      for (const Row& row : *out) {
        if (row.obj.has_value()) continue;
        Result<RecordId> rid = store_->DirectoryLookup(row.oid);
        if (rid.ok()) prefetch_.push_back(rid->page_id);
      }
      if (prefetch_.size() > 1) {
        std::sort(prefetch_.begin(), prefetch_.end());
        prefetch_.erase(std::unique(prefetch_.begin(), prefetch_.end()),
                        prefetch_.end());
        store_->buffer_pool()->ReadAhead(prefetch_);
      }
    }
    const uint64_t misses_before =
        ctx->obj_cache_misses.load(std::memory_order_relaxed);
    size_t keep = 0;
    for (size_t i = 0; i < out->size(); ++i) {
      Row& row = (*out)[i];
      bool match = false;
      if (row.obj.has_value()) {
        KIMDB_ASSIGN_OR_RETURN(match, pred_(*row.obj, ctx));
      } else {
        // Late materialization: evaluate an index candidate against the
        // shared resident image -- no per-row Object copy; the row passes
        // downstream as a bare OID (see the Row contract in operator.h).
        KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> image,
                               FetchCandidate(store_, ctx, row.oid));
        if (image == nullptr) continue;  // deleted since the probe
        KIMDB_ASSIGN_OR_RETURN(match, pred_(*image, ctx));
      }
      if (!match) continue;
      if (keep != i) (*out)[keep] = std::move(row);
      ++keep;
    }
    prefetch_armed_ =
        ctx->obj_cache_misses.load(std::memory_order_relaxed) !=
        misses_before;
    if (keep > 0) {
      out->resize(keep);
      return keep;
    }
    // Whole batch filtered out: loop for the next one (the child's
    // NextBatch shell clears `out` again).
  }
}

void Filter::CloseImpl(ExecContext* ctx) {
  prefetch_.clear();
  child_->Close(ctx);
}

}  // namespace exec
}  // namespace kimdb
