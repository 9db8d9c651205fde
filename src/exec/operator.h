#ifndef KIMDB_EXEC_OPERATOR_H_
#define KIMDB_EXEC_OPERATOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "model/object.h"
#include "model/value.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {
namespace exec {

/// One row flowing through an operator tree. Object-model operators fill
/// `oid` (and `obj` when the producer already materialized the object, so
/// consumers never re-fetch what a scan just decoded); relational operators
/// fill `tuple`. A Row is cheap to move, never to copy implicitly.
///
/// Execution late-materializes: a Filter over index candidates, and a scan
/// with a fused predicate, emit matching rows with `obj` still empty
/// (consumers read OIDs).
struct Row {
  Oid oid = kNilOid;
  std::optional<Object> obj;        // set by extent scans, not index scans
  std::vector<Value> tuple;         // set by relational operators
};

/// Predicate hook the query layer injects into Filter / scans.
/// Implemented by QueryEngine::Matches (path semantics, late-bound method
/// calls); kept as a std::function so the exec layer does not depend on
/// the query layer. Must be thread-safe: the server's worker pool
/// evaluates the predicates of concurrent queries through one QueryEngine,
/// each query on its own ExecContext.
using MatchFn = std::function<Result<bool>(const Object&, ExecContext*)>;

/// Per-operator EXPLAIN ANALYZE span, filled only while the context's
/// analyze flag is armed. Time and pages are *inclusive* of children (a
/// parent's NextBatch drives its child's NextBatch inside the measured
/// window), like the "actual time" column of the classical EXPLAIN ANALYZE
/// renderers. Plain fields: a tree runs on one thread (the server's worker
/// pool runs different queries, never one tree, concurrently), so no
/// atomics are needed.
struct OpStats {
  uint64_t rows = 0;         // rows this operator produced
  uint64_t loops = 0;        // NextBatch calls, the final empty one too
  uint64_t time_ns = 0;      // wall time inside Open+NextBatch+Close
  uint64_t pages_hit = 0;    // buffer-pool hits during those calls
  uint64_t pages_missed = 0; // buffer-pool misses during those calls
  uint64_t pages_readahead = 0;  // hits served from a prefetched frame
  uint64_t obj_cache_hits = 0;   // Gets served by the object cache
  uint64_t obj_cache_misses = 0; // Gets that decoded from the heap
  uint64_t objects_scanned = 0;  // extent-scan candidates read
};

/// Pull-based (Volcano) operator, batch at a time: Open prepares state,
/// NextBatch produces up to kBatchSize rows per call until it returns 0,
/// Close releases resources. The same ExecContext is threaded through all
/// three calls and shared by the whole tree; operators account their work
/// on its counters.
///
/// Lifecycle contract: Open exactly once, NextBatch until 0/error, Close
/// exactly once (also after an error -- drivers must always Close).
///
/// The public lifecycle methods are non-virtual instrumentation shells
/// around the virtual *Impl hooks subclasses provide: when the context has
/// EXPLAIN ANALYZE armed they account rows/loops/time/pages into stats(),
/// and when it does not they cost one relaxed atomic load.
class Operator {
 public:
  virtual ~Operator() = default;

  Status Open(ExecContext* ctx) {
    RecordLifecycle(ctx, obs::TraceEventKind::kBegin);
    if (!ctx->analyze_enabled()) return OpenImpl(ctx);
    Span span(this, ctx);
    return OpenImpl(ctx);
  }

  /// Clears `*out`, fills it with up to kBatchSize rows, and returns the
  /// count -- 0 means end of stream (a non-empty batch may be short of the
  /// target; only 0 ends the stream). One call pays the virtual dispatch,
  /// span accounting and budget poll for the whole batch.
  Result<size_t> NextBatch(ExecContext* ctx, std::vector<Row>* out) {
    out->clear();
    if (!ctx->analyze_enabled()) return NextBatchImpl(ctx, out);
    Span span(this, ctx);
    Result<size_t> n = NextBatchImpl(ctx, out);
    ++stats_.loops;
    if (n.ok()) stats_.rows += *n;
    return n;
  }

  void Close(ExecContext* ctx) {
    if (!ctx->analyze_enabled()) {
      CloseImpl(ctx);
    } else {
      Span span(this, ctx);
      CloseImpl(ctx);
    }
    RecordLifecycle(ctx, obs::TraceEventKind::kEnd);
  }

  /// Scan+filter fusion: a parent Filter offers its predicate so the scan
  /// can apply it inside NextBatchImpl, before a non-matching object is
  /// ever moved out of the decoded page buffer. Returns true iff this
  /// operator -- and, for composites, every child -- will filter the rows
  /// it emits. `pred` must outlive the operator's open lifecycle.
  virtual bool AcceptBatchResidual(const MatchFn* pred) {
    (void)pred;
    return false;
  }

  /// One-line self-description for EXPLAIN ("ExtentScan(Vehicle)").
  virtual std::string Describe() const = 0;
  /// Child operators, for EXPLAIN tree rendering.
  virtual std::vector<const Operator*> children() const { return {}; }

  /// Span accounted so far; all zeros unless the tree ran with
  /// ExecContext::EnableAnalyze().
  const OpStats& stats() const { return stats_; }

  /// Planner estimates for EXPLAIN (est_rows next to actual rows). Set by
  /// QueryEngine::Lower on every plan; `est_cost` < 0 means "rows only"
  /// (non-root operators).
  void SetEstimates(uint64_t est_rows, double est_cost = -1.0) {
    has_estimates_ = true;
    est_rows_ = est_rows;
    est_cost_ = est_cost;
  }
  bool has_estimates() const { return has_estimates_; }
  uint64_t est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  /// `out` arrives empty; implementations append at most kBatchSize rows.
  virtual Result<size_t> NextBatchImpl(ExecContext* ctx,
                                       std::vector<Row>* out) = 0;
  virtual void CloseImpl(ExecContext* ctx) = 0;

 private:
  /// Emits the operator's open/close boundary into the flight recorder
  /// (kExecOp; arg tags the operator so a dump can pair B/E events).
  /// NextBatch is deliberately not traced -- it would flood the ring.
  void RecordLifecycle(ExecContext* ctx, obs::TraceEventKind kind) {
    obs::FlightRecorder* r = ctx->recorder();
    if (r == nullptr) return;
    r->Record(obs::TraceStage::kExecOp, kind, 0,
              static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)));
  }

  /// Accumulates wall time and the buffer-pool delta of one lifecycle call.
  class Span {
   public:
    Span(Operator* op, ExecContext* ctx)
        : op_(op),
          ctx_(ctx),
          pages_(ctx->PageCountsNow()),
          oc_hits_(ctx->obj_cache_hits.load(std::memory_order_relaxed)),
          oc_misses_(ctx->obj_cache_misses.load(std::memory_order_relaxed)),
          scanned_(ctx->objects_scanned.load(std::memory_order_relaxed)),
          start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      if (ns > 0) op_->stats_.time_ns += static_cast<uint64_t>(ns);
      ExecContext::PageCounts now = ctx_->PageCountsNow();
      op_->stats_.pages_hit += now.hits - pages_.hits;
      op_->stats_.pages_missed += now.misses - pages_.misses;
      op_->stats_.pages_readahead += now.readahead_hits - pages_.readahead_hits;
      op_->stats_.obj_cache_hits +=
          ctx_->obj_cache_hits.load(std::memory_order_relaxed) - oc_hits_;
      op_->stats_.obj_cache_misses +=
          ctx_->obj_cache_misses.load(std::memory_order_relaxed) - oc_misses_;
      op_->stats_.objects_scanned +=
          ctx_->objects_scanned.load(std::memory_order_relaxed) - scanned_;
    }

   private:
    Operator* op_;
    ExecContext* ctx_;
    ExecContext::PageCounts pages_;
    uint64_t oc_hits_;
    uint64_t oc_misses_;
    uint64_t scanned_;
    std::chrono::steady_clock::time_point start_;
  };

  OpStats stats_;
  bool has_estimates_ = false;
  uint64_t est_rows_ = 0;
  double est_cost_ = -1.0;
};

/// Renders the operator tree rooted at `root` with two-space indentation:
///
///   Filter(Weight > 7500)
///     HierarchyScan(Vehicle)
///       ExtentScan(Vehicle)
///       ExtentScan(Truck)
std::string ExplainTree(const Operator& root);

/// Renders the tree with each operator's ANALYZE span appended:
///
///   Filter(Weight > 7500) (rows=2 loops=3 time=0.41ms pages=12+0)
///     ...
///
/// `pages=H+M` is hits+misses. Meaningful only after the tree executed
/// under a context with EnableAnalyze().
std::string ExplainAnalyzeTree(const Operator& root);

/// The one driver: pulls kBatchSize rows per NextBatch and hands them to
/// `fn` one by one. Always Closes, including on error paths.
Status ForEachRowBatched(Operator& root, ExecContext* ctx,
                         const std::function<Status(Row&)>& fn);

/// Drives a tree to completion collecting the OIDs it produces (the
/// object-model result shape).
Result<std::vector<Oid>> CollectOids(Operator& root, ExecContext* ctx);

}  // namespace exec
}  // namespace kimdb

#endif  // KIMDB_EXEC_OPERATOR_H_
