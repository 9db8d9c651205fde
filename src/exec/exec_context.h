#ifndef KIMDB_EXEC_EXEC_CONTEXT_H_
#define KIMDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/object.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace kimdb {
namespace exec {

/// Rows exchanged per Operator::NextBatch call: small enough that a batch
/// of decoded objects stays cache-resident, large enough to amortize
/// virtual dispatch, span accounting and budget polling.
inline constexpr size_t kBatchSize = 256;

/// Per-query execution state shared by every operator in a plan tree. The
/// counters are atomics because observers (the metrics flush, a canceller
/// on another thread) read them while the query runs. One ExecContext unifies what used to be three disjoint
/// stats surfaces (QueryStats, BufferPoolStats deltas, ad-hoc bench
/// counters), so the OODB engine, the relational comparator and the
/// benchmarks all report physical and logical work the same way.
///
/// Also carries the cross-cutting execution controls: a wall-clock budget /
/// cancellation flag that long scans poll, an optional trace buffer
/// operators append lifecycle events to, and the EXPLAIN ANALYZE switch
/// that arms per-operator span accounting (see Operator::stats()).
class ExecContext {
 public:
  ExecContext() = default;
  /// Attaching a buffer pool snapshots its counters so pages_hit() /
  /// pages_missed() report the physical work of *this* query only.
  explicit ExecContext(BufferPool* bp) : bp_(bp) {
    if (bp_ != nullptr) baseline_ = bp_->stats();
  }

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // --- unified counters (logical work) -------------------------------------

  std::atomic<uint64_t> objects_scanned{0};      // extent-scan candidates
  std::atomic<uint64_t> objects_fetched{0};      // directory point fetches
  std::atomic<uint64_t> index_candidates{0};     // OIDs produced by indexes
  std::atomic<uint64_t> index_probes{0};         // index lookups issued
  std::atomic<uint64_t> predicates_evaluated{0}; // top-level Matches calls
  std::atomic<uint64_t> ref_fetches{0};          // path-expression derefs
  std::atomic<uint64_t> tuples_scanned{0};       // relational rows read
  std::atomic<uint64_t> obj_cache_hits{0};       // Gets served by the cache
  std::atomic<uint64_t> obj_cache_misses{0};     // Gets that hit the heap
  std::atomic<bool> used_index{false};

  // --- optimizer outcome (set once by QueryEngine::Execute, read by the
  // metrics flush) -----------------------------------------------------------

  std::atomic<uint64_t> plans_considered{0};  // candidates Plan() enumerated
  std::atomic<uint64_t> index_plans_chosen{0};
  std::atomic<uint64_t> cost_based_plans{0};  // plans priced from stats
  std::atomic<uint64_t> plan_est_rows{0};     // winning plan's estimate
  std::atomic<bool> plan_has_estimate{false};
  std::atomic<uint64_t> result_rows{0};       // actual result cardinality

  // --- physical counters (buffer-pool delta) -------------------------------

  uint64_t pages_hit() const {
    return bp_ == nullptr ? 0 : bp_->stats().hits - baseline_.hits;
  }
  uint64_t pages_missed() const {
    return bp_ == nullptr ? 0 : bp_->stats().misses - baseline_.misses;
  }
  uint64_t pages_readahead() const {
    return bp_ == nullptr
               ? 0
               : bp_->stats().readahead_hits - baseline_.readahead_hits;
  }

  /// Live hit/miss reading for per-operator deltas (EXPLAIN ANALYZE spans
  /// subtract two of these around each lifecycle call). Zeros without an
  /// attached pool.
  struct PageCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t readahead_hits = 0;
  };
  PageCounts PageCountsNow() const {
    if (bp_ == nullptr) return PageCounts{};
    BufferPoolStats s = bp_->stats();
    return PageCounts{s.hits, s.misses, s.readahead_hits};
  }

  // --- budget / cancellation ----------------------------------------------

  /// Arms a wall-clock budget measured from now. A zero duration makes the
  /// very next CheckBudget() fail (useful for cancellation tests). May be
  /// called again to re-arm while the query polls CheckBudget on another
  /// thread: the deadline itself is atomic, so readers see either the old
  /// or the new deadline, never a torn time_point.
  void set_budget(std::chrono::nanoseconds budget) {
    auto deadline = std::chrono::steady_clock::now() + budget;
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Cooperative cancellation (e.g. a client disconnect).
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Operators poll this at page/batch granularity. Cheap when no budget
  /// is armed (two relaxed atomic loads, no clock read).
  Status CheckBudget() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      return Status::DeadlineExceeded("query cancelled");
    }
    if (has_deadline_.load(std::memory_order_acquire)) {
      auto deadline = std::chrono::steady_clock::time_point(
          std::chrono::steady_clock::duration(
              deadline_ns_.load(std::memory_order_relaxed)));
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::DeadlineExceeded("query budget exceeded");
      }
    }
    return Status::OK();
  }

  // --- MVCC snapshot --------------------------------------------------------

  /// Arms multiversion visibility: every operator in the plan resolves each
  /// OID to the newest committed version <= read_ts instead of trusting the
  /// raw heap image. The caller (QueryEngine::Execute) owns the underlying
  /// Snapshot pin; the context only carries the timestamp.
  void set_snapshot(uint64_t read_ts) {
    snapshot_ts_ = read_ts;
    snapshot_active_ = true;
  }
  /// Disarms the snapshot -- call when the owning pin is released, so a
  /// reused context cannot read through a retired (prunable) timestamp.
  void clear_snapshot() {
    snapshot_active_ = false;
    snapshot_ts_ = 0;
  }
  bool snapshot_active() const { return snapshot_active_; }
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  // --- per-batch path-hop memo ----------------------------------------------

  /// Batch-scoped memo for path-expression hops (ref Oid -> resident
  /// image). A 256-row batch of Vehicles typically dereferences only a
  /// handful of distinct Companies, so memoizing within the batch turns
  /// ~256 shared-cache lookups into ~10. The operator that evaluates the
  /// predicate clears it at every batch boundary, so an entry lives for
  /// one slab; kMaxHopMemo bounds its memory within a batch whose rows
  /// fan out to many distinct targets. Not thread-safe by design: one
  /// context serves one query on one thread.
  static constexpr size_t kMaxHopMemo = 1024;
  const std::shared_ptr<const Object>* LookupHop(Oid oid) const {
    auto it = hop_memo_.find(oid);
    return it == hop_memo_.end() ? nullptr : &it->second;
  }
  void MemoizeHop(Oid oid, std::shared_ptr<const Object> obj) {
    if (hop_memo_.size() >= kMaxHopMemo) hop_memo_.clear();
    hop_memo_.emplace(oid, std::move(obj));
  }
  void ClearHopMemo() { hop_memo_.clear(); }

  // --- EXPLAIN ANALYZE spans ----------------------------------------------

  /// Arms per-operator span accounting (rows/loops/time/pages in
  /// Operator::stats()). Off by default: the un-armed overhead in each
  /// NextBatch call is a single relaxed load.
  void EnableAnalyze() {
    analyze_enabled_.store(true, std::memory_order_relaxed);
  }
  bool analyze_enabled() const {
    return analyze_enabled_.load(std::memory_order_relaxed);
  }

  // --- flight recorder ------------------------------------------------------

  /// Wires the process-wide flight recorder: operator Open/Close emit
  /// kExecOp begin/end events tagged with an operator identity, so a
  /// trace dump shows which plan nodes were in flight around a slow
  /// commit or a fault. Null (the default) keeps the path to a single
  /// pointer compare.
  void set_recorder(obs::FlightRecorder* r) { recorder_ = r; }
  obs::FlightRecorder* recorder() const { return recorder_; }

  // --- per-query trace buffer ---------------------------------------------

  /// Hard cap on buffered trace events: tracing a 100k-object scan must
  /// not balloon memory. Overflow increments trace_dropped() instead.
  static constexpr size_t kMaxTraceEvents = 1024;

  void EnableTrace() { trace_enabled_.store(true, std::memory_order_release); }
  bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_acquire);
  }
  /// Appends one event line; no-op unless tracing is enabled. Events past
  /// kMaxTraceEvents are counted, not stored.
  void Trace(std::string line) {
    if (!trace_enabled()) return;
    std::lock_guard<std::mutex> lock(trace_mu_);
    if (trace_.size() >= kMaxTraceEvents) {
      trace_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    trace_.push_back(std::move(line));
  }
  std::vector<std::string> TraceLines() const {
    std::lock_guard<std::mutex> lock(trace_mu_);
    return trace_;
  }
  uint64_t trace_dropped() const {
    return trace_dropped_.load(std::memory_order_relaxed);
  }

 private:
  BufferPool* bp_ = nullptr;
  BufferPoolStats baseline_{};
  obs::FlightRecorder* recorder_ = nullptr;
  std::unordered_map<Oid, std::shared_ptr<const Object>> hop_memo_;
  // Set once before execution starts (no atomics needed).
  bool snapshot_active_ = false;
  uint64_t snapshot_ts_ = 0;
  std::atomic<bool> has_deadline_{false};
  // steady_clock ticks since epoch; atomic because set_budget may re-arm
  // while the query reads it through CheckBudget.
  std::atomic<std::chrono::steady_clock::rep> deadline_ns_{0};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> analyze_enabled_{false};
  std::atomic<bool> trace_enabled_{false};
  std::atomic<uint64_t> trace_dropped_{0};
  mutable std::mutex trace_mu_;
  std::vector<std::string> trace_;
};

}  // namespace exec
}  // namespace kimdb

#endif  // KIMDB_EXEC_EXEC_CONTEXT_H_
