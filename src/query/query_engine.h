#ifndef KIMDB_QUERY_QUERY_ENGINE_H_
#define KIMDB_QUERY_QUERY_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/method_registry.h"
#include "catalog/stats.h"
#include "exec/exec_context.h"
#include "exec/operators.h"
#include "index/index_manager.h"
#include "object/object_store.h"
#include "query/expr.h"

namespace kimdb {

/// A declarative query against the object base (paper §3.2 query model):
/// a target class, a scope (the class alone, or the class hierarchy rooted
/// at it -- the paper's two "meaningful interpretations"), and a predicate
/// over the target's nested definition.
struct Query {
  ClassId target = kInvalidClassId;
  /// true: instances of target and all subclasses; false: target only.
  bool hierarchy_scope = true;
  ExprPtr predicate;  // null = all instances in scope
};

/// Execution counters; benchmarks and plan tests assert on these. Kept for
/// backward compatibility: since the operator-pipeline refactor these are
/// reconstructed from the exec::ExecContext the query ran under (see
/// StatsFromExecContext) rather than accumulated directly.
struct QueryStats {
  uint64_t objects_scanned = 0;    // extent-scan candidates fetched
  uint64_t index_candidates = 0;   // candidates produced by an index
  uint64_t predicates_evaluated = 0;
  uint64_t ref_fetches = 0;        // object fetches during path evaluation
  uint64_t obj_cache_hits = 0;     // point fetches served by the obj cache
  uint64_t obj_cache_misses = 0;   // point fetches that decoded from heap
  bool used_index = false;
};

/// Projects the legacy QueryStats view out of the unified counters.
QueryStats StatsFromExecContext(const exec::ExecContext& ctx);

/// Visibility the expression evaluator reads the object graph under:
/// current-time (default) or an MVCC snapshot, in which case path-
/// expression hops resolve each referenced object to the version visible
/// at read_ts (ObjectStore::GetSharedSnapshot). `hop_memo`, when set,
/// points at the batch-scoped dereference memo of the evaluating context
/// (see ExecContext::LookupHop).
struct ReadView {
  bool snapshot = false;
  uint64_t read_ts = 0;
  exec::ExecContext* hop_memo = nullptr;
};

/// What the optimizer decided (exposed for tests, EXPLAIN, benches).
/// ToString() renders the operator tree the plan lowers to -- the same
/// shape Execute runs -- so EXPLAIN output is the executed pipeline.
struct QueryPlan {
  bool index_scan = false;
  IndexId index_id = 0;
  std::vector<std::string> index_path;
  std::optional<Value> eq_key;
  std::optional<Value> lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;
  ExprPtr residual;  // predicate still checked per candidate

  // Scope description, filled by Plan() for lowering and EXPLAIN.
  ClassId target = kInvalidClassId;
  bool hierarchy_scope = true;
  std::string target_name;
  std::vector<std::string> scope_class_names;  // extents in Subtree order

  // Cost-model outcome, set by every Plan(): from fresh catalog stats
  // where they exist, else from live counts and default selectivities.
  double est_cost = 0.0;        // winning plan's cost in abstract page units
  uint64_t est_rows = 0;        // estimated result cardinality
  uint64_t est_input_rows = 0;  // estimated rows out of the access path
  uint32_t plans_considered = 0;  // the scan + one per indexed path

  std::string ToString() const;
};

/// Plans and runs queries by lowering plans onto the pull-based operator
/// pipeline in src/exec: index selection (single-class / class-hierarchy /
/// nested indexes) becomes an IndexScan, scope scans become
/// ExtentScan/HierarchyScan, and predicates -- existential path
/// semantics, late-bound method calls -- run inside Filter or fused into
/// the scan below it.
class QueryEngine {
 public:
  QueryEngine(ObjectStore* store, IndexManager* indexes,
              const MethodRegistry* methods = nullptr,
              MethodEnv* env = nullptr)
      : store_(store), indexes_(indexes), methods_(methods), env_(env) {}

  /// Wires the catalog's cardinality statistics into the planner. Plan()
  /// folds the sargable conjuncts on each path into one key interval and
  /// prices the sequential scan plus one candidate per indexed path from
  /// live counts, the object-cache hit rate and the interval's
  /// selectivity, and picks the cheapest. Selectivities come from the
  /// histograms of fresh stats; without them, 1/keys for an equality on an
  /// indexed path, else defaults.
  void AttachStats(const StatsRegistry* stats) { stats_ = stats; }

  /// Fired by Plan() when the target class *had* statistics but mutation
  /// drift retired them (analyzed && !Fresh()): that plan is priced from
  /// defaults. The Database wires its background auto-analyzer here so
  /// stats refresh without a manual `analyze` verb. Must be thread-safe
  /// and cheap (called on the planning path); set once before queries run.
  void SetStaleStatsHook(std::function<void(ClassId)> hook) {
    stale_stats_hook_ = std::move(hook);
  }

  /// Plans without executing (EXPLAIN). With `read_ts`, plans for a reader
  /// at that snapshot: indexes built after it are not candidates.
  Result<QueryPlan> Plan(const Query& q,
                         std::optional<uint64_t> read_ts = std::nullopt) const;

  /// Lowers a plan to its operator tree. Index plans always lower to
  /// IndexScan; under a snapshot the scan decides at Open whether its
  /// candidates need a re-check or, for a nested index whose path classes
  /// have versions, a scope scan (DESIGN.md §13).
  Result<std::unique_ptr<exec::Operator>> Lower(const Query& q,
                                                const QueryPlan& plan) const;

  /// Runs the query; returns matching OIDs.
  Result<std::vector<Oid>> Execute(const Query& q,
                                   QueryStats* stats = nullptr) const;

  /// Runs the query under a caller-provided context (budget, trace,
  /// snapshot, unified counters).
  Result<std::vector<Oid>> Execute(const Query& q,
                                   exec::ExecContext* ctx) const;

  /// Plans, lowers, and renders the operator tree (EXPLAIN).
  Result<std::string> Explain(const Query& q) const;

  /// EXPLAIN ANALYZE: arms per-operator spans on `ctx`, executes the query
  /// to completion (counters accumulate on `ctx` exactly as in Execute),
  /// and renders the tree annotated with each operator's rows / loops /
  /// time / buffer-pool pages, plus a result-cardinality footer.
  Result<std::string> ExplainAnalyze(const Query& q,
                                     exec::ExecContext* ctx) const;

  /// ExplainAnalyze under a fresh context attached to the store's pool.
  Result<std::string> ExplainAnalyze(const Query& q) const;

  /// Evaluates a predicate against one object (exposed for the rules
  /// engine and view system).
  Result<bool> Matches(const Object& obj, const ExprPtr& pred,
                       QueryStats* stats = nullptr) const;
  /// As above, reading referenced objects under `view` (snapshot queries).
  Result<bool> Matches(const Object& obj, const ExprPtr& pred,
                       QueryStats* stats, const ReadView& view) const;

  /// Evaluates an expression on an object. Path expressions return the
  /// kSet of reachable terminal values (possibly empty).
  Result<Value> Eval(const Object& obj, const Expr& e,
                     QueryStats* stats = nullptr) const;
  Result<Value> Eval(const Object& obj, const Expr& e, QueryStats* stats,
                     const ReadView& view) const;

  ObjectStore* store() const { return store_; }

 private:
  /// Plans, lowers and drives the query under `ctx` (pinning a snapshot
  /// unless the caller armed one), leaving the executed tree in `*root`.
  Result<std::vector<Oid>> Run(const Query& q, exec::ExecContext* ctx,
                               std::unique_ptr<exec::Operator>* root) const;

  /// Wraps Matches as the thread-safe predicate hook operators take,
  /// flushing the per-call counters into the shared context atomics.
  exec::MatchFn MatchFnFor(ExprPtr pred) const;

  Result<bool> EvalBool(const Object& obj, const Expr& e, QueryStats* stats,
                        const ReadView& view) const;
  /// Collects terminal values of a path from `obj`, dereferencing
  /// intermediate objects under `view`.
  Status EvalPath(const Object& obj, const std::vector<std::string>& path,
                  std::vector<Value>* out, QueryStats* stats,
                  const ReadView& view) const;
  /// Existential comparison between two evaluated operands.
  static bool CompareExists(Expr::Op op, const Value& lhs, const Value& rhs);

  ObjectStore* store_;
  IndexManager* indexes_;
  const MethodRegistry* methods_;
  MethodEnv* env_;
  const StatsRegistry* stats_ = nullptr;
  std::function<void(ClassId)> stale_stats_hook_;
};

}  // namespace kimdb

#endif  // KIMDB_QUERY_QUERY_ENGINE_H_
