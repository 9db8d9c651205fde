#include "exec/operators.h"

#include <algorithm>
#include <iterator>

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
  ghosts_.clear();
  ghost_pos_ = 0;
  ghost_done_ = false;
  ctx->Trace("ExtentScan(" + name_ + "): open, " +
             std::to_string(pages_.size()) + " page(s)");
  return Status::OK();
}

Result<bool> ExtentScan::NextImpl(ExecContext* ctx, Row* row) {
  const MvccTable* mvcc = store_->mvcc();
  const bool snap = ctx->snapshot_active() && mvcc != nullptr;
  const uint64_t read_ts = ctx->snapshot_ts();
  while (buf_pos_ >= buf_.size()) {
    if (page_idx_ >= pages_.size()) {
      // Ghost pass: versions visible at the snapshot whose heap record was
      // deleted, or moved to a page this scan had already passed. The
      // seen-set keeps records the heap pass emitted from repeating.
      if (snap && !ghost_done_) {
        ghosts_ = mvcc->CollectVisible(cls_, read_ts);
        ghost_pos_ = 0;
        ghost_done_ = true;
      }
      while (ghost_pos_ < ghosts_.size()) {
        auto& [oid, image] = ghosts_[ghost_pos_++];
        if (seen_.count(oid) > 0) continue;
        ctx->objects_scanned.fetch_add(1, std::memory_order_relaxed);
        row->oid = oid;
        row->obj = *image;
        row->tuple.clear();
        return true;
      }
      return false;
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
    buf_.clear();
    buf_pos_ = 0;
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
  Object& obj = buf_[buf_pos_++];
  row->oid = obj.oid();
  row->obj = std::move(obj);
  row->tuple.clear();
  return true;
}

Result<size_t> ExtentScan::NextBatchImpl(ExecContext* ctx,
                                         std::vector<Row>* out, size_t max) {
  while (out->size() < max) {
    if (buf_pos_ < buf_.size()) {
      // Bulk-move the rest of the decoded page buffer: one NextImpl call
      // paid the page pin + MVCC resolution for all of these rows already.
      // A fused predicate runs here, against the buffer entry, so a
      // non-matching object is never moved into the batch at all.
      size_t take = std::min(max - out->size(), buf_.size() - buf_pos_);
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
      continue;
    }
    // Page advance / ghost pass: NextImpl refills the buffer (or emits one
    // ghost row) with the full snapshot-resolution discipline.
    Row row;
    KIMDB_ASSIGN_OR_RETURN(bool more, NextImpl(ctx, &row));
    if (!more) break;
    if (residual_ != nullptr) {
      KIMDB_ASSIGN_OR_RETURN(bool match, (*residual_)(*row.obj, ctx));
      if (!match) continue;
      out->emplace_back().oid = row.oid;
      continue;
    }
    out->push_back(std::move(row));
  }
  return out->size();
}

void ExtentScan::CloseImpl(ExecContext*) {
  pages_.clear();
  buf_.clear();
  seen_.clear();
  ghosts_.clear();
}

// --- HierarchyScan ----------------------------------------------------------

Status HierarchyScan::OpenImpl(ExecContext* ctx) {
  cur_ = 0;
  for (auto& scan : extents_) {
    KIMDB_RETURN_IF_ERROR(scan->Open(ctx));
  }
  return Status::OK();
}

Result<bool> HierarchyScan::NextImpl(ExecContext* ctx, Row* row) {
  while (cur_ < extents_.size()) {
    KIMDB_ASSIGN_OR_RETURN(bool more, extents_[cur_]->Next(ctx, row));
    if (more) return true;
    ++cur_;
  }
  return false;
}

Result<size_t> HierarchyScan::NextBatchImpl(ExecContext* ctx,
                                            std::vector<Row>* out,
                                            size_t max) {
  (void)max;  // children read the batch size off the context
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
  for (ClassId cls : scope) {
    Result<const ClassDef*> def = cat.GetClass(cls);
    // Driven through the *Impl hooks: the walk is this operator's work in
    // EXPLAIN ANALYZE and traces, not a node of its own.
    ExtentScan scan(store_, cls,
                    def.ok() ? (*def)->name : std::to_string(cls));
    KIMDB_RETURN_IF_ERROR(scan.OpenImpl(ctx));
    Row row;
    Status st;
    while (st.ok()) {
      Result<bool> more = scan.NextImpl(ctx, &row);
      if (!more.ok() || !*more) {
        st = more.status();
        break;
      }
      bool match = true;
      if (spec_.recheck != nullptr) {
        Result<bool> m = spec_.recheck(*row.obj, ctx);
        st = m.status();
        match = m.ok() && *m;
      }
      if (match) candidates_.push_back(row.oid);
    }
    scan.CloseImpl(ctx);
    KIMDB_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Result<bool> IndexScan::NextCandidate(ExecContext* ctx, Oid* oid) {
  while (pos_ < candidates_.size()) {
    *oid = candidates_[pos_++];
    if (!recheck_) return true;
    KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> image,
                           FetchCandidate(store_, ctx, *oid));
    if (image == nullptr) continue;
    KIMDB_ASSIGN_OR_RETURN(bool match, spec_.recheck(*image, ctx));
    if (match) return true;
  }
  return false;
}

Result<bool> IndexScan::NextImpl(ExecContext* ctx, Row* row) {
  if (pos_ >= candidates_.size()) return false;
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  KIMDB_ASSIGN_OR_RETURN(bool more, NextCandidate(ctx, &row->oid));
  row->obj.reset();
  row->tuple.clear();
  return more;
}

Result<size_t> IndexScan::NextBatchImpl(ExecContext* ctx,
                                        std::vector<Row>* out, size_t max) {
  if (pos_ >= candidates_.size()) return 0;
  // One budget poll covers the whole slice of the candidate vector.
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  if (recheck_) ctx->ClearHopMemo();
  Oid oid;
  while (out->size() < max) {
    KIMDB_ASSIGN_OR_RETURN(bool more, NextCandidate(ctx, &oid));
    if (!more) break;
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
  // Fuse the predicate into a batched scan child: rows then arrive
  // pre-filtered and NextBatchImpl just relays slabs. Off under EXPLAIN
  // ANALYZE so per-operator row counts keep their unfused meaning (the
  // scan's span reports objects scanned, this one's rows that passed).
  fused_ = ctx->batch_size() > 1 && !ctx->analyze_enabled() &&
           child_->AcceptBatchResidual(&pred_);
  return Status::OK();
}

Status Filter::MaterializeRow(ExecContext* ctx, Row* row, bool* skip) {
  *skip = false;
  if (row->obj.has_value()) return Status::OK();
  // Snapshot fetches resolve to the version visible at read_ts; an
  // object invisible at the snapshot is skipped exactly like a deleted
  // index candidate.
  KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> image,
                         FetchCandidate(store_, ctx, row->oid));
  if (image == nullptr) {
    *skip = true;
    return Status::OK();
  }
  row->obj = *image;
  return Status::OK();
}

Result<bool> Filter::NextImpl(ExecContext* ctx, Row* row) {
  while (true) {
    KIMDB_ASSIGN_OR_RETURN(bool more, child_->Next(ctx, row));
    if (!more) return false;
    bool skip = false;
    KIMDB_RETURN_IF_ERROR(MaterializeRow(ctx, row, &skip));
    if (skip) continue;
    KIMDB_ASSIGN_OR_RETURN(bool match, pred_(*row->obj, ctx));
    if (match) return true;
  }
}

Result<size_t> Filter::NextBatchImpl(ExecContext* ctx, std::vector<Row>* out,
                                     size_t max) {
  (void)max;  // bounded by the child's batch size
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

// --- ParallelExtentScan -----------------------------------------------------

Status ParallelExtentScan::OpenImpl(ExecContext* ctx) {
  Shutdown();  // re-open support: tear down any previous run
  units_.clear();
  queue_.clear();
  out_buf_.clear();
  out_pos_ = 0;
  seen_.clear();
  ghosts_.clear();
  ghost_pos_ = 0;
  ghost_done_ = false;
  worker_error_ = Status::OK();
  stop_.store(false, std::memory_order_release);

  for (const auto& [cls, name] : classes_) {
    KIMDB_ASSIGN_OR_RETURN(std::vector<PageId> pages,
                           store_->ExtentPages(cls));
    for (PageId p : pages) units_.push_back(Unit{cls, p});
  }
  size_t n = std::min(n_workers_, std::max<size_t>(1, units_.size()));
  ctx->Trace(Describe() + ": open, " + std::to_string(units_.size()) +
             " page(s) across " + std::to_string(n) + " worker(s)");
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_workers_ = n;
  }
  size_t chunk = (units_.size() + n - 1) / n;
  for (size_t w = 0; w < n; ++w) {
    size_t begin = std::min(units_.size(), w * chunk);
    size_t end = std::min(units_.size(), begin + chunk);
    threads_.emplace_back(&ParallelExtentScan::WorkerLoop, this, ctx, begin,
                          end);
  }
  return Status::OK();
}

void ParallelExtentScan::WorkerLoop(ExecContext* ctx, size_t begin,
                                    size_t end) {
  // Counters accumulate on a worker-private shadow context and flush once
  // at exit: with several workers doing per-object fetch_adds, the shared
  // counter cache lines ping-pong between cores and eat the scan speedup.
  // Budget / cancellation state stays on the real context.
  ExecContext shadow;
  const MvccTable* mvcc = store_->mvcc();
  const bool snap = ctx->snapshot_active() && mvcc != nullptr;
  const uint64_t read_ts = ctx->snapshot_ts();
  // The predicate hook reads visibility off the context it evaluates
  // under, so the shadow must carry the snapshot too (path hops).
  if (snap) shadow.set_snapshot(read_ts);
  std::vector<Oid> batch;
  BufferPool* bp = store_->buffer_pool();
  const size_t window = bp->readahead_window();
  size_t ra_pos = begin;  // first unit of this range not yet staged
  std::vector<PageId> ahead;
  Status st;
  for (size_t i = begin; i < end && st.ok(); ++i) {
    const Unit& unit = units_[i];
    st = ctx->CheckBudget();
    if (!st.ok()) break;
    if (i >= ra_pos) {
      // Each worker stages the next window of its own page range.
      size_t ra_end = std::min(end, i + window);
      ahead.clear();
      for (size_t j = i; j < ra_end; ++j) ahead.push_back(units_[j].page);
      bp->ReadAhead(ahead);
      ra_pos = ra_end;
    }
    batch.clear();
    st = store_->ForEachInClassOnPage(
        unit.cls, unit.page, [&](const Object& obj) -> Status {
          if (stop_.load(std::memory_order_acquire)) {
            return Status::Aborted("scan closed");
          }
          shadow.objects_scanned.fetch_add(1, std::memory_order_relaxed);
          // Decode-then-resolve (see ExtentScan): the version chain, not
          // the heap image, decides what the snapshot sees.
          const Object* eval_obj = &obj;
          std::shared_ptr<const Object> image;
          if (snap) {
            switch (mvcc->Resolve(obj.oid(), read_ts, &image)) {
              case MvccLookup::kNoChain:
                break;
              case MvccLookup::kImage:
                eval_obj = image.get();
                break;
              case MvccLookup::kInvisible:
                return Status::OK();
            }
          }
          bool match = true;
          if (pred_) {
            KIMDB_ASSIGN_OR_RETURN(match, pred_(*eval_obj, &shadow));
          }
          if (match) batch.push_back(eval_obj->oid());
          return Status::OK();
        });
    if (st.ok() && !batch.empty() && !PushBatch(&batch)) {
      st = Status::Aborted("scan closed");
    }
  }
  shadow.FlushCountersInto(ctx);
  std::lock_guard<std::mutex> lock(mu_);
  // An Aborted status only reflects Close() racing the scan, not a fault.
  if (!st.ok() && !st.IsAborted() && worker_error_.ok()) {
    worker_error_ = st;
  }
  --active_workers_;
  cv_rows_.notify_all();
}

bool ParallelExtentScan::PushBatch(std::vector<Oid>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  // A batch (one page's matches) may overshoot the capacity; the bound is
  // on when a worker may *start* appending, which is all a backpressure
  // limit needs.
  cv_space_.wait(lock, [&] {
    return queue_.size() < kQueueCapacity ||
           stop_.load(std::memory_order_acquire);
  });
  if (stop_.load(std::memory_order_acquire)) return false;
  queue_.insert(queue_.end(), batch->begin(), batch->end());
  cv_rows_.notify_one();
  return true;
}

Result<bool> ParallelExtentScan::NextImpl(ExecContext* ctx, Row* row) {
  const MvccTable* mvcc = store_->mvcc();
  const bool snap = ctx->snapshot_active() && mvcc != nullptr;
  while (true) {
    if (out_pos_ >= out_buf_.size()) {
      // Drain everything queued in one lock acquisition; the consumer then
      // serves rows lock-free until the buffer runs dry.
      std::unique_lock<std::mutex> lock(mu_);
      cv_rows_.wait(lock, [&] {
        return !queue_.empty() || active_workers_ == 0 || !worker_error_.ok();
      });
      if (!worker_error_.ok()) return worker_error_;
      out_buf_.assign(queue_.begin(), queue_.end());
      out_pos_ = 0;
      queue_.clear();
      lock.unlock();
      cv_space_.notify_all();
      if (out_buf_.empty()) {
        // Workers drained. Under a snapshot, finish with the ghost pass:
        // visible versions whose heap record moved or vanished mid-scan,
        // deduplicated against everything already emitted and run through
        // the same predicate the workers applied.
        if (snap && !ghost_done_) {
          for (const auto& [cls, name] : classes_) {
            auto vis = mvcc->CollectVisible(cls, ctx->snapshot_ts());
            ghosts_.insert(ghosts_.end(),
                           std::make_move_iterator(vis.begin()),
                           std::make_move_iterator(vis.end()));
          }
          ghost_pos_ = 0;
          ghost_done_ = true;
        }
        while (ghost_pos_ < ghosts_.size()) {
          auto& [oid, image] = ghosts_[ghost_pos_++];
          if (seen_.count(oid) > 0) continue;
          if (pred_) {
            KIMDB_ASSIGN_OR_RETURN(bool match, pred_(*image, ctx));
            if (!match) continue;
          }
          seen_.insert(oid);
          row->oid = oid;
          row->obj = *image;
          row->tuple.clear();
          return true;
        }
        return false;
      }
    }
    Oid oid = out_buf_[out_pos_++];
    // Dedup against a record decoded twice because it moved pages mid-scan
    // (only possible -- and only tracked -- when a snapshot is armed).
    if (snap && !seen_.insert(oid).second) continue;
    row->oid = oid;
    row->obj.reset();
    row->tuple.clear();
    return true;
  }
}

Result<size_t> ParallelExtentScan::NextBatchImpl(ExecContext* ctx,
                                                 std::vector<Row>* out,
                                                 size_t max) {
  const bool snap = ctx->snapshot_active() && store_->mvcc() != nullptr;
  if (snap) {
    // Snapshot mode interleaves seen-set dedup and the ghost pass; the
    // row-at-a-time path already implements that discipline exactly.
    return Operator::NextBatchImpl(ctx, out, max);
  }
  while (out->size() < max) {
    if (out_pos_ >= out_buf_.size()) {
      // Never block on the workers while rows are already in hand: a
      // short batch keeps the consumer busy instead of idling on the
      // condvar until a full one accumulates.
      if (!out->empty()) break;
      std::unique_lock<std::mutex> lock(mu_);
      cv_rows_.wait(lock, [&] {
        return !queue_.empty() || active_workers_ == 0 || !worker_error_.ok();
      });
      if (!worker_error_.ok()) return worker_error_;
      out_buf_.assign(queue_.begin(), queue_.end());
      out_pos_ = 0;
      queue_.clear();
      lock.unlock();
      cv_space_.notify_all();
      if (out_buf_.empty()) break;  // workers drained; no ghosts without snap
    }
    size_t take = std::min(max - out->size(), out_buf_.size() - out_pos_);
    for (size_t i = 0; i < take; ++i) {
      out->emplace_back().oid = out_buf_[out_pos_++];
    }
  }
  return out->size();
}

void ParallelExtentScan::CloseImpl(ExecContext* ctx) {
  Shutdown();
  ctx->Trace(Describe() + ": close");
}

void ParallelExtentScan::Shutdown() {
  stop_.store(true, std::memory_order_release);
  cv_space_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  queue_.clear();
  out_buf_.clear();
  out_pos_ = 0;
  seen_.clear();
  ghosts_.clear();
  ghost_pos_ = 0;
  ghost_done_ = false;
}

std::string ParallelExtentScan::Describe() const {
  std::string names;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (i > 0) names += ", ";
    names += classes_[i].second;
  }
  std::string out =
      "ParallelExtentScan(" + names + ", workers=" + std::to_string(n_workers_);
  if (pred_) out += ", pred=" + pred_text_;
  return out + ")";
}

}  // namespace exec
}  // namespace kimdb
