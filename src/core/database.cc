#include "core/database.h"

#include <algorithm>
#include <cstring>

namespace kimdb {

namespace {
constexpr char kMagic[8] = {'K', 'I', 'M', 'D', 'B', '0', '0', '1'};

// Renders a Query back to OQL-lite for persistence (views survive reopen
// as text and are re-parsed against the recovered catalog).
Result<std::string> QueryToOql(const Catalog& cat, const Query& q) {
  KIMDB_ASSIGN_OR_RETURN(const ClassDef* def, cat.GetClass(q.target));
  std::string out = "select " + def->name;
  if (!q.hierarchy_scope) out += " only";
  if (q.predicate) out += " where " + q.predicate->ToString();
  return out;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(const DatabaseOptions& opts) {
  auto db = std::unique_ptr<Database>(new Database());
  db->opts_ = opts;

  if (opts.in_memory) {
    db->disk_ = DiskManager::OpenInMemory();
  } else {
    if (opts.path.empty()) {
      return Status::InvalidArgument("a database path is required");
    }
    KIMDB_ASSIGN_OR_RETURN(db->disk_, DiskManager::OpenFile(opts.path + ".db"));
  }
  db->bp_ = std::make_unique<BufferPool>(db->disk_.get(),
                                         std::max<size_t>(16,
                                                          opts.buffer_pool_pages));
  if (!opts.in_memory) {
    KIMDB_ASSIGN_OR_RETURN(db->wal_, Wal::Open(opts.path + ".wal"));
  }

  std::vector<std::pair<IndexKind, std::pair<ClassId,
                                             std::vector<std::string>>>>
      index_defs;
  std::vector<std::string> view_texts;

  const bool fresh = db->disk_->num_pages() == 0;
  if (fresh) {
    // Page 0: the meta page.
    PageId meta_pid;
    {
      PageGuard g = PageGuard::NewPage(db->bp_.get());
      KIMDB_RETURN_IF_ERROR(g.status());
      meta_pid = g.page_id();
      std::memcpy(g.data(), kMagic, sizeof(kMagic));
      g.MarkDirty();
    }
    if (meta_pid != 0) return Status::Internal("meta page must be page 0");
    db->catalog_ = std::make_unique<Catalog>();
    KIMDB_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(db->bp_.get()));
    db->meta_heap_ = heap;
    KIMDB_ASSIGN_OR_RETURN(std::string meta, db->EncodeMeta());
    KIMDB_ASSIGN_OR_RETURN(db->meta_rid_, db->meta_heap_->Insert(meta));
  } else {
    // Read the meta page.
    PageGuard g(db->bp_.get(), 0);
    KIMDB_RETURN_IF_ERROR(g.status());
    const char* page = g.data();
    bool magic_ok = std::memcmp(page, kMagic, sizeof(kMagic)) == 0;
    PageId meta_head = DecodeFixed32(page + 8);
    PageId rid_page = DecodeFixed32(page + 12);
    uint16_t rid_slot = static_cast<uint16_t>(
        static_cast<unsigned char>(page[16]) |
        (static_cast<uint16_t>(static_cast<unsigned char>(page[17]))
         << 8));
    g.Release();
    if (!magic_ok) return Status::Corruption("bad database magic");
    KIMDB_ASSIGN_OR_RETURN(HeapFile heap,
                           HeapFile::Open(db->bp_.get(), meta_head));
    db->meta_heap_ = heap;
    db->meta_rid_ = RecordId{rid_page, rid_slot};
    KIMDB_ASSIGN_OR_RETURN(std::string meta,
                           db->meta_heap_->Get(db->meta_rid_));
    // DecodeMeta fills catalog_ and the deferred defs below.
    {
      Decoder dec(meta);
      KIMDB_ASSIGN_OR_RETURN(std::string_view cat_bytes,
                             dec.ReadLengthPrefixed());
      KIMDB_ASSIGN_OR_RETURN(Catalog cat, Catalog::Decode(cat_bytes));
      db->catalog_ = std::make_unique<Catalog>(std::move(cat));
      KIMDB_ASSIGN_OR_RETURN(uint32_t n_idx, dec.ReadVarint32());
      for (uint32_t i = 0; i < n_idx; ++i) {
        KIMDB_ASSIGN_OR_RETURN(uint8_t kind, dec.ReadFixed8());
        KIMDB_ASSIGN_OR_RETURN(ClassId cls, dec.ReadFixed32());
        KIMDB_ASSIGN_OR_RETURN(uint32_t n_path, dec.ReadVarint32());
        std::vector<std::string> path;
        for (uint32_t j = 0; j < n_path; ++j) {
          KIMDB_ASSIGN_OR_RETURN(std::string_view seg,
                                 dec.ReadLengthPrefixed());
          path.emplace_back(seg);
        }
        index_defs.push_back({static_cast<IndexKind>(kind),
                              {cls, std::move(path)}});
      }
      KIMDB_ASSIGN_OR_RETURN(uint32_t n_views, dec.ReadVarint32());
      for (uint32_t i = 0; i < n_views; ++i) {
        KIMDB_ASSIGN_OR_RETURN(std::string_view text,
                               dec.ReadLengthPrefixed());
        view_texts.emplace_back(text);
      }
      // Cardinality statistics ride at the tail of the meta record; a
      // database written before they existed simply ends here.
      if (!dec.empty()) {
        KIMDB_RETURN_IF_ERROR(db->stats_.DecodeFrom(&dec));
      }
    }
  }

  KIMDB_ASSIGN_OR_RETURN(
      db->store_,
      ObjectStore::Open(db->bp_.get(), db->catalog_.get(), db->wal_.get(),
                        /*attach_to_catalog=*/true,
                        opts.object_cache_bytes));
  if (db->wal_ != nullptr) {
    KIMDB_ASSIGN_OR_RETURN(db->recovery_stats_,
                           RecoveryManager::Recover(db->store_.get(),
                                                    db->wal_.get()));
  }

  db->indexes_ = std::make_unique<IndexManager>(db->store_.get());
  for (auto& [kind, def] : index_defs) {
    KIMDB_RETURN_IF_ERROR(
        db->indexes_->CreateIndex(kind, def.first, def.second).status());
  }
  db->query_ = std::make_unique<QueryEngine>(db->store_.get(),
                                             db->indexes_.get(),
                                             &db->methods_, db.get());
  db->query_->AttachStats(&db->stats_);
  Database* raw_db = db.get();
  db->query_->SetStaleStatsHook(
      [raw_db](ClassId cls) { raw_db->ScheduleAutoAnalyze(cls); });
  db->stats_listener_ = std::make_unique<StatsListener>(&db->stats_);
  db->store_->AddListener(db->stats_listener_.get());
  db->views_ = std::make_unique<ViewManager>(db->query_.get());
  db->parser_ = std::make_unique<lang::Parser>(db->catalog_.get());
  for (const std::string& text : view_texts) {
    // Stored as "name\n<oql>".
    size_t nl = text.find('\n');
    if (nl == std::string::npos) continue;
    KIMDB_ASSIGN_OR_RETURN(Query q, db->parser_->ParseQuery(text.substr(nl + 1)));
    KIMDB_RETURN_IF_ERROR(db->views_->DefineView(text.substr(0, nl),
                                                 std::move(q)));
  }
  db->versions_ = std::make_unique<VersionManager>(db->store_.get());
  KIMDB_ASSIGN_OR_RETURN(db->composites_,
                         CompositeManager::Attach(db->store_.get()));
  db->notifier_ = std::make_unique<ChangeNotifier>(db->store_.get());
  db->txns_ = std::make_unique<TxnManager>(db->store_.get(), &db->locks_);
  // Fast-forward the MVCC commit clock past every durably committed
  // timestamp the recovery pass found, so post-recovery snapshots see
  // exactly the durable commits and new commits allocate beyond them.
  db->txns_->RestoreCommitClock(db->recovery_stats_.max_commit_ts);
  // Index removals a snapshot may still need retire on the prune pass.
  IndexManager* indexes = db->indexes_.get();
  db->txns_->mvcc()->SetPruneHook([indexes](const std::vector<Oid>& erased) {
    indexes->RetireDeferred(erased);
  });
  db->checkout_ = std::make_unique<CheckoutManager>(db->store_.get());
  db->authz_ = std::make_unique<AuthorizationManager>(db->catalog_.get());
  db->rules_ = std::make_unique<RuleEngine>(db->store_.get());

  if (fresh) {
    KIMDB_RETURN_IF_ERROR(db->PersistMeta());
    KIMDB_RETURN_IF_ERROR(db->bp_->FlushAll());
  }

  // Second observability layer (DESIGN.md §15): flight recorder + slow-op
  // log threaded through the commit pipeline, class latches, WAL and exec.
  db->trace_ = std::make_unique<obs::FlightRecorder>(opts.trace_ring_events);
  db->trace_->set_enabled(opts.trace_enabled);
  db->slow_ops_ = std::make_unique<obs::SlowOpLog>();
  db->slow_ops_->set_threshold_ns(opts.slow_op_threshold_ns);
  db->txns_->AttachTrace(db->trace_.get(), db->slow_ops_.get());
  db->store_->AttachTrace(db->trace_.get());
  if (db->wal_ != nullptr) db->wal_->AttachTrace(db->trace_.get());

  db->WireMetrics();

  if (!opts.metrics_report_path.empty()) {
    obs::MetricsReporterOptions ropts;
    ropts.path = opts.metrics_report_path;
    ropts.interval =
        std::chrono::milliseconds(opts.metrics_report_interval_ms);
    db->reporter_ =
        std::make_unique<obs::MetricsReporter>(&db->metrics_, ropts);
    KIMDB_RETURN_IF_ERROR(db->reporter_->Start());
  }
  return db;
}

void Database::WireMetrics() {
  obs::MetricsRegistry& m = metrics_;

  BufferPool* bp = bp_.get();
  m.RegisterCollector("bufferpool.hits", [bp] { return bp->stats().hits; });
  m.RegisterCollector("bufferpool.misses",
                      [bp] { return bp->stats().misses; });
  m.RegisterCollector("bufferpool.evictions",
                      [bp] { return bp->stats().evictions; });
  m.RegisterCollector("bufferpool.disk_reads",
                      [bp] { return bp->stats().disk_reads; });
  m.RegisterCollector("bufferpool.disk_writes",
                      [bp] { return bp->stats().disk_writes; });
  m.RegisterCollector("bufferpool.readahead_issued",
                      [bp] { return bp->stats().readahead_issued; });
  m.RegisterCollector("bufferpool.readahead_hits",
                      [bp] { return bp->stats().readahead_hits; });
  m.RegisterCollector("bufferpool.shard_lock_waits",
                      [bp] { return bp->stats().shard_lock_waits; });
  bp->AttachMetrics(m.GetHistogram("bufferpool.shard_wait_ns"));

  ObjectStore* store = store_.get();
  m.RegisterCollector("storage.heap.relocations", [store] {
    return store->heap_stats().relocations.load(std::memory_order_relaxed);
  });
  m.RegisterCollector("storage.heap.pages_linked", [store] {
    return store->heap_stats().pages_linked.load(std::memory_order_relaxed);
  });
  m.RegisterCollector("objectstore.cache_hits", [store] {
    return store->object_cache().stats().hits;
  });
  m.RegisterCollector("objectstore.cache_misses", [store] {
    return store->object_cache().stats().misses;
  });
  m.RegisterCollector("objectstore.cache_evictions", [store] {
    return store->object_cache().stats().evictions;
  });
  m.RegisterCollector("objectstore.cache_invalidations", [store] {
    return store->object_cache().stats().invalidations;
  });
  m.RegisterCollector("objectstore.cache_resident_objects", [store] {
    return store->object_cache().stats().resident_objects;
  });
  m.RegisterCollector("objectstore.cache_resident_bytes", [store] {
    return store->object_cache().stats().resident_bytes;
  });
  m.RegisterCollector("objectstore.class_write_waits",
                      [store] { return store->class_write_waits(); });
  store->AttachMetrics(m.GetHistogram("objectstore.get_ns"));

  if (wal_ != nullptr) {
    Wal* wal = wal_.get();
    m.RegisterCollector("wal.appends",
                        [wal] { return wal->appended_records(); });
    m.RegisterCollector("wal.fsyncs",
                        [wal] { return wal->fdatasync_count(); });
    m.RegisterCollector("wal.file_bytes",
                        [wal] { return wal->file_bytes(); });
    wal->AttachMetrics(m.GetHistogram("wal.append_ns"),
                       m.GetHistogram("wal.fsync_ns"),
                       m.GetHistogram("wal.group_commit_batch"),
                       m.GetHistogram("wal.reserve_ns"));
  }

  LockManager* locks = &locks_;
  m.RegisterCollector("lock.acquired",
                      [locks] { return locks->stats().acquired; });
  m.RegisterCollector("lock.waits", [locks] { return locks->stats().waits; });
  m.RegisterCollector("lock.deadlocks",
                      [locks] { return locks->stats().deadlocks; });
  m.RegisterCollector("lock.upgrades",
                      [locks] { return locks->stats().upgrades; });
  locks->AttachMetrics(m.GetHistogram("lock.wait_ns"));

  TxnManager* txns = txns_.get();
  m.RegisterCollector("txn.begun", [txns] { return txns->stats().begun; });
  m.RegisterCollector("txn.committed",
                      [txns] { return txns->stats().committed; });
  m.RegisterCollector("txn.aborted",
                      [txns] { return txns->stats().aborted; });
  txns->AttachMetrics(m.GetHistogram("txn.commit_ns"),
                      m.GetHistogram("txn.abort_ns"));

  // MVCC snapshot-read protocol (DESIGN.md §13).
  MvccTable* mvcc = txns->mvcc();
  m.RegisterCollector("txn.snapshot_acquired", [mvcc] {
    return mvcc->stats().snapshots_acquired;
  });
  m.RegisterCollector("txn.snapshot_live",
                      [mvcc] { return mvcc->stats().snapshots_live; });
  m.RegisterCollector("txn.snapshot_conflicts",
                      [mvcc] { return mvcc->stats().write_conflicts; });
  m.RegisterCollector("txn.commit_ts",
                      [mvcc] { return mvcc->stats().commit_ts; });
  m.RegisterCollector("objectstore.versions_installed", [mvcc] {
    return mvcc->stats().versions_installed;
  });
  m.RegisterCollector("objectstore.versions_pruned",
                      [mvcc] { return mvcc->stats().versions_pruned; });
  m.RegisterCollector("objectstore.versions_chains",
                      [mvcc] { return mvcc->stats().versions_chains; });
  m.RegisterCollector("objectstore.versions_entries",
                      [mvcc] { return mvcc->stats().versions_entries; });

  IndexManager* indexes = indexes_.get();
  m.RegisterCollector("index.maintenance_ops",
                      [indexes] { return indexes->stats().maintenance_ops; });
  m.RegisterCollector("index.key_recomputations", [indexes] {
    return indexes->stats().key_recomputations;
  });
  m.RegisterCollector("index.deferred_entries",
                      [indexes] { return indexes->stats().deferred_entries; });
  m.RegisterCollector("index.deferred_retired",
                      [indexes] { return indexes->stats().deferred_retired; });

  // Recovery ran once during Open; its phase timings are levels, not rates.
  m.GetGauge("recovery.analysis_ns")
      ->Set(static_cast<int64_t>(recovery_stats_.analysis_ns));
  m.GetGauge("recovery.redo_ns")
      ->Set(static_cast<int64_t>(recovery_stats_.redo_ns));
  m.GetGauge("recovery.undo_ns")
      ->Set(static_cast<int64_t>(recovery_stats_.undo_ns));
  m.GetGauge("recovery.redone")
      ->Set(static_cast<int64_t>(recovery_stats_.redone));
  m.GetGauge("recovery.undone")
      ->Set(static_cast<int64_t>(recovery_stats_.undone));

  // Query-layer metrics are pushed per execution (FlushQueryMetrics);
  // registering them here makes them visible in snapshots from the start.
  query_exec_ns_ = m.GetHistogram("query.exec_ns");
  m.GetCounter("query.executed");
  m.GetCounter("query.objects_scanned");
  m.GetCounter("query.objects_fetched");
  m.GetCounter("query.index_probes");
  m.GetCounter("query.index_candidates");
  m.GetCounter("query.predicates_evaluated");
  m.GetCounter("query.ref_fetches");
  m.GetCounter("query.obj_cache_hits");
  m.GetCounter("query.obj_cache_misses");
  m.GetCounter("query.pages_hit");
  m.GetCounter("query.pages_missed");
  m.GetCounter("query.trace_dropped");

  // Optimizer outcomes, pushed per execution like the query.* counters.
  // est_rows_error_pct records |estimated - actual| / actual per cost-based
  // plan, so the soak monitor can watch estimation quality drift.
  m.GetCounter("optimizer.plans_considered");
  m.GetCounter("optimizer.index_plans_chosen");
  m.GetCounter("optimizer.cost_based_plans");
  m.GetCounter("optimizer.analyze_runs");
  m.GetCounter("optimizer.auto_analyze_runs");
  m.GetHistogram("optimizer.est_rows_error_pct");

  // Rotating time-series windows over the latency histograms the soak
  // monitor plots (per-window p50/p95/p99 via the MetricsReporter).
  m.EnableWindows("txn.commit_ns");
  m.EnableWindows("txn.abort_ns");
  m.EnableWindows("query.exec_ns");
  m.EnableWindows("objectstore.get_ns");
  m.EnableWindows("lock.wait_ns");
  if (wal_ != nullptr) {
    m.EnableWindows("wal.append_ns");
    m.EnableWindows("wal.fsync_ns");
    m.EnableWindows("wal.reserve_ns");
    m.EnableWindows("wal.group_commit_batch");
  }
}

void Database::FlushQueryMetrics(const exec::ExecContext& ctx) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  obs::MetricsRegistry& m = metrics_;
  m.GetCounter("query.executed")->Inc();
  m.GetCounter("query.objects_scanned")
      ->Inc(ctx.objects_scanned.load(kRelaxed));
  m.GetCounter("query.objects_fetched")
      ->Inc(ctx.objects_fetched.load(kRelaxed));
  m.GetCounter("query.index_probes")->Inc(ctx.index_probes.load(kRelaxed));
  m.GetCounter("query.index_candidates")
      ->Inc(ctx.index_candidates.load(kRelaxed));
  m.GetCounter("query.predicates_evaluated")
      ->Inc(ctx.predicates_evaluated.load(kRelaxed));
  m.GetCounter("query.ref_fetches")->Inc(ctx.ref_fetches.load(kRelaxed));
  m.GetCounter("query.obj_cache_hits")
      ->Inc(ctx.obj_cache_hits.load(kRelaxed));
  m.GetCounter("query.obj_cache_misses")
      ->Inc(ctx.obj_cache_misses.load(kRelaxed));
  m.GetCounter("query.pages_hit")->Inc(ctx.pages_hit());
  m.GetCounter("query.pages_missed")->Inc(ctx.pages_missed());
  m.GetCounter("query.trace_dropped")->Inc(ctx.trace_dropped());
  m.GetCounter("optimizer.plans_considered")
      ->Inc(ctx.plans_considered.load(kRelaxed));
  m.GetCounter("optimizer.index_plans_chosen")
      ->Inc(ctx.index_plans_chosen.load(kRelaxed));
  m.GetCounter("optimizer.cost_based_plans")
      ->Inc(ctx.cost_based_plans.load(kRelaxed));
  if (ctx.plan_has_estimate.load(kRelaxed)) {
    uint64_t est = ctx.plan_est_rows.load(kRelaxed);
    uint64_t actual = ctx.result_rows.load(kRelaxed);
    uint64_t diff = est > actual ? est - actual : actual - est;
    uint64_t err_pct = diff * 100 / std::max<uint64_t>(1, actual);
    m.GetHistogram("optimizer.est_rows_error_pct")->Record(err_pct);
  }
}

void Database::MaybeLogSlowQuery(std::chrono::steady_clock::time_point t0,
                                 const exec::ExecContext& ctx) {
  if (slow_ops_ == nullptr) return;
  uint64_t threshold = slow_ops_->threshold_ns();
  if (threshold == 0) return;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  uint64_t total = ns > 0 ? static_cast<uint64_t>(ns) : 0;
  if (total < threshold) return;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  obs::SlowOp op;
  op.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
  op.txn = 0;
  op.total_ns = total;
  op.kind = "query";
  op.stages.emplace_back(obs::TraceStage::kQuery, total);
  op.detail = "scanned=" + std::to_string(ctx.objects_scanned.load(kRelaxed)) +
              " fetched=" + std::to_string(ctx.objects_fetched.load(kRelaxed)) +
              " index_probes=" + std::to_string(ctx.index_probes.load(kRelaxed)) +
              " pages=" + std::to_string(ctx.pages_hit()) + "+" +
              std::to_string(ctx.pages_missed());
  slow_ops_->Add(std::move(op));
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Record(obs::TraceStage::kSlowOp, obs::TraceEventKind::kInstant, 0,
                   total);
  }
}

Database::~Database() {
  if (!closed_) {
    Status st = Close();
    (void)st;  // best-effort on destruction
  }
  if (store_ != nullptr && stats_listener_ != nullptr) {
    store_->RemoveListener(stats_listener_.get());
  }
}

Status Database::Close() {
  if (closed_) return Status::OK();
  // Stop the front-end first: a wire server must drain its in-flight
  // requests (commits included) while the engine is still fully alive.
  std::function<void()> stop_frontend;
  {
    std::lock_guard<std::mutex> lock(frontend_mu_);
    stop_frontend = frontend_stop_hook_;
  }
  if (stop_frontend) stop_frontend();
  // Then the background analyzer: its PersistMeta must not race teardown.
  StopAutoAnalyze();
  // Stop the reporter before any teardown so its final line captures the
  // full run and no tick races the checkpoint.
  if (reporter_ != nullptr) reporter_->Stop();
  Status st = Checkpoint();
  if (st.IsFailedPrecondition()) {
    // Active transactions: persist what we can without truncating the log.
    KIMDB_RETURN_IF_ERROR(PersistMeta());
    KIMDB_RETURN_IF_ERROR(bp_->FlushAll());
  } else {
    KIMDB_RETURN_IF_ERROR(st);
  }
  closed_ = true;
  return Status::OK();
}

Result<std::string> Database::EncodeMeta() const {
  std::string out;
  std::string cat_bytes;
  catalog_->EncodeTo(&cat_bytes);
  PutLengthPrefixed(&out, cat_bytes);

  std::vector<const IndexInfo*> idx =
      indexes_ ? indexes_->AllIndexes() : std::vector<const IndexInfo*>{};
  PutVarint32(&out, static_cast<uint32_t>(idx.size()));
  for (const IndexInfo* info : idx) {
    PutFixed8(&out, static_cast<uint8_t>(info->kind));
    PutFixed32(&out, info->target_class);
    PutVarint32(&out, static_cast<uint32_t>(info->path.size()));
    for (const std::string& seg : info->path) PutLengthPrefixed(&out, seg);
  }

  std::vector<std::string> view_names =
      views_ ? views_->ViewNames() : std::vector<std::string>{};
  std::vector<std::string> encoded_views;
  for (const std::string& name : view_names) {
    Result<const ViewDef*> def = views_->Find(name);
    if (!def.ok()) continue;
    Result<std::string> oql = QueryToOql(*catalog_, (*def)->query);
    if (!oql.ok()) continue;  // unserializable view: session-only
    encoded_views.push_back(name + "\n" + *oql);
  }
  PutVarint32(&out, static_cast<uint32_t>(encoded_views.size()));
  for (const std::string& v : encoded_views) PutLengthPrefixed(&out, v);

  // Cardinality statistics (tail section; see the reader in Open()).
  stats_.EncodeTo(&out);
  return out;
}

Status Database::PersistMeta() {
  // Serialized: the auto-analyze thread persists refreshed stats while the
  // foreground runs DDL or checkpoints, and meta_rid_ is single-slot state.
  std::lock_guard<std::mutex> lock(meta_mu_);
  KIMDB_ASSIGN_OR_RETURN(std::string meta, EncodeMeta());
  KIMDB_ASSIGN_OR_RETURN(RecordId rid,
                         meta_heap_->Update(meta_rid_, meta));
  meta_rid_ = rid;
  // Refresh the meta page pointer.
  PageGuard g(bp_.get(), 0);
  KIMDB_RETURN_IF_ERROR(g.status());
  char* page = g.data();
  std::memcpy(page, kMagic, sizeof(kMagic));
  EncodeFixed32(page + 8, meta_heap_->head());
  EncodeFixed32(page + 12, meta_rid_.page_id);
  page[16] = static_cast<char>(meta_rid_.slot & 0xff);
  page[17] = static_cast<char>((meta_rid_.slot >> 8) & 0xff);
  g.MarkDirty();
  return Status::OK();
}

Status Database::Checkpoint() {
  if (txns_ && txns_->active_count() > 0) {
    return Status::FailedPrecondition(
        "cannot checkpoint with active transactions");
  }
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  KIMDB_RETURN_IF_ERROR(bp_->FlushAll());
  if (wal_ != nullptr) {
    KIMDB_RETURN_IF_ERROR(wal_->Truncate());
  }
  return Status::OK();
}

// --- DDL ------------------------------------------------------------------

Result<ClassId> Database::CreateClass(
    std::string_view name, const std::vector<std::string>& superclasses,
    const std::vector<AttributeSpec>& attrs,
    const std::vector<MethodSpec>& methods) {
  std::vector<ClassId> supers;
  for (const std::string& s : superclasses) {
    KIMDB_ASSIGN_OR_RETURN(ClassId id, catalog_->FindClass(s));
    supers.push_back(id);
  }
  KIMDB_ASSIGN_OR_RETURN(ClassId cls,
                         catalog_->CreateClass(name, supers, attrs, methods));
  KIMDB_RETURN_IF_ERROR(store_->EnsureExtent(cls));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  KIMDB_RETURN_IF_ERROR(bp_->FlushAll());
  return cls;
}

namespace {
template <typename Fn>
Status DdlOn(Catalog* catalog, std::string_view cls, Fn&& fn) {
  KIMDB_ASSIGN_OR_RETURN(ClassId id, catalog->FindClass(cls));
  return fn(id);
}
}  // namespace

Status Database::AddAttribute(std::string_view cls,
                              const AttributeSpec& spec) {
  KIMDB_RETURN_IF_ERROR(DdlOn(catalog_.get(), cls, [&](ClassId id) {
    return catalog_->AddAttribute(id, spec);
  }));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

Status Database::DropAttribute(std::string_view cls, std::string_view attr) {
  KIMDB_RETURN_IF_ERROR(DdlOn(catalog_.get(), cls, [&](ClassId id) {
    return catalog_->DropAttribute(id, attr);
  }));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

Status Database::RenameAttribute(std::string_view cls, std::string_view from,
                                 std::string_view to) {
  KIMDB_RETURN_IF_ERROR(DdlOn(catalog_.get(), cls, [&](ClassId id) {
    return catalog_->RenameAttribute(id, from, to);
  }));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

Status Database::AddSuperclass(std::string_view cls, std::string_view super) {
  KIMDB_ASSIGN_OR_RETURN(ClassId super_id, catalog_->FindClass(super));
  KIMDB_RETURN_IF_ERROR(DdlOn(catalog_.get(), cls, [&](ClassId id) {
    return catalog_->AddSuperclass(id, super_id);
  }));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

Status Database::RemoveSuperclass(std::string_view cls,
                                  std::string_view super) {
  KIMDB_ASSIGN_OR_RETURN(ClassId super_id, catalog_->FindClass(super));
  KIMDB_RETURN_IF_ERROR(DdlOn(catalog_.get(), cls, [&](ClassId id) {
    return catalog_->RemoveSuperclass(id, super_id);
  }));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

Status Database::DropClass(std::string_view cls) {
  KIMDB_ASSIGN_OR_RETURN(ClassId id, catalog_->FindClass(cls));
  KIMDB_ASSIGN_OR_RETURN(uint64_t count, store_->CountClass(id));
  if (count > 0) {
    return Status::FailedPrecondition(
        "class extent is not empty; delete the instances first");
  }
  KIMDB_RETURN_IF_ERROR(catalog_->DropClass(id));
  KIMDB_RETURN_IF_ERROR(PersistMeta());
  return bp_->FlushAll();
}

// --- objects ------------------------------------------------------------------

Result<Oid> Database::Insert(
    uint64_t txn, std::string_view class_name,
    const std::vector<std::pair<std::string, Value>>& attrs,
    Oid cluster_hint) {
  KIMDB_ASSIGN_OR_RETURN(ClassId cls, catalog_->FindClass(class_name));
  KIMDB_ASSIGN_OR_RETURN(Object contents, BuildObject(*catalog_, cls, attrs));
  return txns_->Insert(txn, cls, std::move(contents), cluster_hint);
}

Status Database::Set(uint64_t txn, Oid oid, std::string_view attr,
                     Value value) {
  KIMDB_RETURN_IF_ERROR(versions_->CheckMutable(oid));
  KIMDB_RETURN_IF_ERROR(checkout_->CheckWritable(oid));
  return txns_->SetAttr(txn, oid, attr, std::move(value));
}

Status Database::Update(uint64_t txn, const Object& obj) {
  KIMDB_RETURN_IF_ERROR(versions_->CheckMutable(obj.oid()));
  KIMDB_RETURN_IF_ERROR(checkout_->CheckWritable(obj.oid()));
  return txns_->Update(txn, obj);
}

Status Database::Delete(uint64_t txn, Oid oid) {
  KIMDB_RETURN_IF_ERROR(checkout_->CheckWritable(oid));
  return txns_->Delete(txn, oid);
}

Result<Value> Database::Send(uint64_t txn, Oid oid, std::string_view method,
                             const std::vector<Value>& args) {
  KIMDB_ASSIGN_OR_RETURN(Object obj, txns_->Get(txn, oid));
  MethodContext ctx{&obj, this};
  return methods_.Invoke(*catalog_, ctx, method, args);
}

// --- queries --------------------------------------------------------------------

Result<std::vector<Oid>> Database::ExecuteQuery(const Query& q,
                                                QueryStats* stats) {
  exec::ExecContext ctx(bp_.get());
  if (trace_ != nullptr && trace_->enabled()) ctx.set_recorder(trace_.get());
  obs::StageScope query_span(trace_.get(), obs::TraceStage::kQuery, 0);
  auto t0 = std::chrono::steady_clock::now();
  Result<std::vector<Oid>> result = [&] {
    obs::Timer timer(query_exec_ns_);
    return query_->Execute(q, &ctx);
  }();
  query_span.End();
  MaybeLogSlowQuery(t0, ctx);
  FlushQueryMetrics(ctx);
  if (stats != nullptr) *stats = StatsFromExecContext(ctx);
  return result;
}

Result<std::vector<Oid>> Database::ExecuteOql(std::string_view oql,
                                              QueryStats* stats) {
  KIMDB_ASSIGN_OR_RETURN(lang::Statement stmt, parser_->ParseStatement(oql));
  if (stmt.analyze_stmt) {
    KIMDB_RETURN_IF_ERROR(AnalyzeClass(stmt.analyze_class));
    return std::vector<Oid>{};
  }
  if (stmt.explain) {
    return Status::InvalidArgument(
        stmt.analyze
            ? "EXPLAIN ANALYZE produces an annotated plan, not rows; use "
              "ExplainAnalyzeOql"
            : "EXPLAIN statements produce a plan, not rows; use ExplainOql");
  }
  return ExecuteQuery(stmt.query, stats);
}

Result<QueryPlan> Database::ExplainOql(std::string_view oql) {
  // Accepts both `select ...` and `explain select ...`.
  KIMDB_ASSIGN_OR_RETURN(lang::Statement stmt, parser_->ParseStatement(oql));
  if (stmt.analyze_stmt) {
    return Status::InvalidArgument(
        "analyze statements collect statistics, not a plan; use ExecuteOql");
  }
  return query_->Plan(stmt.query);
}

Result<std::string> Database::ExplainAnalyzeOql(std::string_view oql) {
  // Accepts `select ...`, `explain analyze select ...`, etc.
  KIMDB_ASSIGN_OR_RETURN(lang::Statement stmt, parser_->ParseStatement(oql));
  if (stmt.analyze_stmt) {
    return Status::InvalidArgument(
        "analyze statements collect statistics, not a plan; use ExecuteOql");
  }
  exec::ExecContext ctx(bp_.get());
  if (trace_ != nullptr && trace_->enabled()) ctx.set_recorder(trace_.get());
  Result<std::string> rendered = [&] {
    obs::Timer timer(query_exec_ns_);
    return query_->ExplainAnalyze(stmt.query, &ctx);
  }();
  FlushQueryMetrics(ctx);
  return rendered;
}

Status Database::AnalyzeClass(std::string_view class_name) {
  KIMDB_ASSIGN_OR_RETURN(ClassId root, catalog_->FindClass(class_name));
  return AnalyzeClassTree(root);
}

Status Database::AnalyzeClassTree(ClassId root) {
  constexpr size_t kHistogramBuckets = 16;
  for (ClassId c : catalog_->Subtree(root)) {
    ClassStats cs;
    cs.live_objects = store_->LiveCount(c);
    Result<std::vector<PageId>> pages = store_->ExtentPages(c);
    cs.extent_pages = pages.ok() ? pages->size() : 0;
    // One equi-depth histogram per index whose targets are this class,
    // keyed by the index's joined attribute path.
    for (const IndexInfo* idx : indexes_->AllIndexes()) {
      if (idx->target_class != c) continue;
      Result<EquiDepthHistogram> h =
          indexes_->BuildHistogram(idx->id, kHistogramBuckets);
      if (!h.ok() || h->empty()) continue;
      std::string key;
      for (size_t i = 0; i < idx->path.size(); ++i) {
        if (i > 0) key += ".";
        key += idx->path[i];
      }
      cs.path_hists[std::move(key)] = std::move(*h);
    }
    stats_.Install(c, std::move(cs));
  }
  metrics_.GetCounter("optimizer.analyze_runs")->Inc();
  return PersistMeta();
}

// --- automatic re-analyze (ROADMAP item 3 remainder) ----------------------

void Database::ScheduleAutoAnalyze(ClassId root) {
  {
    std::lock_guard<std::mutex> lock(analyzer_mu_);
    if (analyzer_stop_) return;
    if (!analyzer_pending_.insert(root).second) return;  // already queued
    analyzer_queue_.push_back(root);
    if (!analyzer_thread_.joinable()) {
      analyzer_thread_ = std::thread([this] { AutoAnalyzeLoop(); });
    }
  }
  analyzer_cv_.notify_one();
}

void Database::AutoAnalyzeLoop() {
  while (true) {
    ClassId root;
    {
      std::unique_lock<std::mutex> lock(analyzer_mu_);
      analyzer_cv_.wait(lock, [this] {
        return analyzer_stop_ || !analyzer_queue_.empty();
      });
      if (analyzer_queue_.empty()) return;  // stop requested and drained
      root = analyzer_queue_.front();
      analyzer_queue_.pop_front();
      analyzer_pending_.erase(root);
      analyzer_busy_ = true;
    }
    Status st = AnalyzeClassTree(root);
    (void)st;  // e.g. class dropped since the signal fired: nothing to do
    metrics_.GetCounter("optimizer.auto_analyze_runs")->Inc();
    {
      std::lock_guard<std::mutex> lock(analyzer_mu_);
      analyzer_busy_ = false;
    }
    analyzer_cv_.notify_all();  // DrainAutoAnalyze waiters
  }
}

void Database::DrainAutoAnalyze() {
  std::unique_lock<std::mutex> lock(analyzer_mu_);
  analyzer_cv_.wait(lock, [this] {
    return analyzer_queue_.empty() && !analyzer_busy_;
  });
}

void Database::StopAutoAnalyze() {
  {
    std::lock_guard<std::mutex> lock(analyzer_mu_);
    analyzer_stop_ = true;
  }
  analyzer_cv_.notify_all();
  if (analyzer_thread_.joinable()) analyzer_thread_.join();
}

void Database::SetFrontendStopHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(frontend_mu_);
  frontend_stop_hook_ = std::move(hook);
}

}  // namespace kimdb
