#include "query/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kimdb {

namespace {

const char* OpName(Expr::Op op) {
  switch (op) {
    case Expr::Op::kEq:
      return "=";
    case Expr::Op::kNe:
      return "!=";
    case Expr::Op::kLt:
      return "<";
    case Expr::Op::kLe:
      return "<=";
    case Expr::Op::kGt:
      return ">";
    case Expr::Op::kGe:
      return ">=";
    case Expr::Op::kContains:
      return "contains";
    case Expr::Op::kAnd:
      return "and";
    case Expr::Op::kOr:
      return "or";
    default:
      return "?";
  }
}

std::string JoinPath(const std::vector<std::string>& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ".";
    out += path[i];
  }
  return out;
}

}  // namespace

std::string Expr::ToString() const {
  switch (op) {
    case Op::kConst:
      return literal.ToString();
    case Op::kPath:
      return JoinPath(path);
    case Op::kMethod: {
      std::string out = method + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case Op::kNot:
      return "not (" + children[0]->ToString() + ")";
    default:
      return "(" + children[0]->ToString() + " " + OpName(op) + " " +
             children[1]->ToString() + ")";
  }
}

namespace {

/// Indents every line of `tree` by one level and appends it to `out`.
void AppendIndented(const std::string& tree, std::string* out) {
  size_t start = 0;
  while (start <= tree.size()) {
    size_t end = tree.find('\n', start);
    if (end == std::string::npos) end = tree.size();
    out->append("\n  ");
    out->append(tree, start, end - start);
    start = end + 1;
    if (end == tree.size()) break;
  }
}

}  // namespace

std::string QueryPlan::ToString() const {
  // Renders the same tree Lower() builds (operator Describe format plus
  // the same est_* annotations SetEstimates puts on the operators), so
  // EXPLAIN output is the executed pipeline shape.
  char cbuf[48];
  std::snprintf(cbuf, sizeof(cbuf), " est_cost=%.1f)", est_cost);
  const std::string root_ann = " (est_rows=" + std::to_string(est_rows) + cbuf;
  const std::string leaf_ann =
      " (est_rows=" + std::to_string(est_input_rows) + ")";
  std::string leaf;       // the access path's own line
  std::string leaf_kids;  // indented ExtentScan children (hierarchy only)
  if (index_scan) {
    exec::IndexScan::Spec spec;
    spec.index_id = index_id;
    spec.path = index_path;
    spec.eq_key = eq_key;
    spec.lo = lo;
    spec.hi = hi;
    spec.lo_inclusive = lo_inclusive;
    spec.hi_inclusive = hi_inclusive;
    spec.scope_class = target;
    spec.hierarchy_scope = hierarchy_scope;
    leaf = exec::IndexScan::DescribeSpec(spec);
  } else if (hierarchy_scope) {
    leaf = "HierarchyScan(" + target_name + ")";
    for (const std::string& name : scope_class_names) {
      leaf_kids += "\n  ExtentScan(" + name + ")";
    }
  } else {
    leaf = "ExtentScan(" + target_name + ")";
  }
  if (!residual) return leaf + root_ann + leaf_kids;
  std::string out = "Filter(" + residual->ToString() + ")" + root_ann;
  AppendIndented(leaf + leaf_ann + leaf_kids, &out);
  return out;
}

namespace {

// A conjunct of the form  path <cmp> const  (normalized so the path is on
// the left), usable for index selection.
struct Sargable {
  std::vector<std::string> path;
  Expr::Op op;
  Value key;
};

std::optional<Sargable> MatchSargable(const Expr& e) {
  auto flip = [](Expr::Op op) {
    switch (op) {
      case Expr::Op::kLt:
        return Expr::Op::kGt;
      case Expr::Op::kLe:
        return Expr::Op::kGe;
      case Expr::Op::kGt:
        return Expr::Op::kLt;
      case Expr::Op::kGe:
        return Expr::Op::kLe;
      default:
        return op;
    }
  };
  switch (e.op) {
    case Expr::Op::kEq:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
      break;
    default:
      return std::nullopt;
  }
  const Expr& a = *e.children[0];
  const Expr& b = *e.children[1];
  if (a.op == Expr::Op::kPath && b.op == Expr::Op::kConst) {
    return Sargable{a.path, e.op, b.literal};
  }
  if (a.op == Expr::Op::kConst && b.op == Expr::Op::kPath) {
    return Sargable{b.path, flip(e.op), a.literal};
  }
  return std::nullopt;
}

// Every sargable conjunct on one path, folded into the one key interval an
// index probe over that path reads: an equality key, or the tightest
// lo/hi bounds of its range conjuncts.
struct KeyInterval {
  std::vector<std::string> path;
  ExprPtr eq_conjunct;  // the first equality; the probe consumes it
  std::optional<Value> eq_key;
  std::optional<Value> lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;

  void Add(const Sargable& s, const ExprPtr& conjunct) {
    switch (s.op) {
      case Expr::Op::kEq:
        // A second equality stays a plain residual conjunct (a
        // contradictory one then yields the empty result).
        if (!eq_key.has_value()) {
          eq_key = s.key;
          eq_conjunct = conjunct;
        }
        break;
      case Expr::Op::kLt:
      case Expr::Op::kLe: {
        bool incl = s.op == Expr::Op::kLe;
        int c = hi.has_value() ? s.key.Compare(*hi) : -1;
        if (c < 0 || (c == 0 && !incl)) {
          hi = s.key;
          hi_inclusive = incl;
        }
        break;
      }
      default: {  // kGt, kGe
        bool incl = s.op == Expr::Op::kGe;
        int c = lo.has_value() ? s.key.Compare(*lo) : 1;
        if (c > 0 || (c == 0 && !incl)) {
          lo = s.key;
          lo_inclusive = incl;
        }
        break;
      }
    }
  }
};

void FlattenConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->op == Expr::Op::kAnd) {
    FlattenConjuncts(e->children[0], out);
    FlattenConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc ? Expr::And(acc, c) : c;
  }
  return acc;
}

// --- cost model ------------------------------------------------------------
// Abstract units: reading one heap page costs kPageCost, decoding a row and
// evaluating a residual conjunct on it costs kRowCost, descending one B-tree
// level costs kProbeCost, point-fetching a candidate object costs kFetchCost
// when it misses the resident-object cache and kCachedFetchCost when it
// hits, and emitting a covered candidate (no fetch, no residual) costs
// kEmitCost. The ratios, not the absolute numbers, drive plan choice.
constexpr double kPageCost = 8.0;
constexpr double kRowCost = 1.0;
constexpr double kProbeCost = 2.0;
constexpr double kFetchCost = 6.0;
constexpr double kCachedFetchCost = 1.0;
constexpr double kEmitCost = 0.1;
// Selectivities when no fresh histogram covers a path: per equality, per
// range bound, and per conjunct the planner cannot price at all.
constexpr double kDefaultEqSelectivity = 0.1;
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultResidualSelectivity = 0.5;
constexpr double kDefaultRowsPerPage = 16.0;

}  // namespace

Result<QueryPlan> QueryEngine::Plan(const Query& q,
                                    std::optional<uint64_t> read_ts) const {
  const Catalog& cat = *store_->catalog();
  KIMDB_ASSIGN_OR_RETURN(const ClassDef* target_def, cat.GetClass(q.target));
  QueryPlan plan;
  plan.target = q.target;
  plan.hierarchy_scope = q.hierarchy_scope;
  plan.target_name = target_def->name;
  const std::vector<ClassId> scope_ids =
      q.hierarchy_scope ? cat.Subtree(q.target)
                        : std::vector<ClassId>{q.target};
  for (ClassId c : scope_ids) {
    Result<const ClassDef*> def = cat.GetClass(c);
    plan.scope_class_names.push_back(def.ok() ? (*def)->name
                                              : std::to_string(c));
  }
  plan.residual = q.predicate;

  // One pass over the conjuncts: sargable ones fold into one key interval
  // per path, the rest only scale the result estimate.
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(q.predicate, &conjuncts);
  std::vector<KeyInterval> intervals;
  double unpriced_sel = 1.0;
  double deref_steps = 0.0;  // path hops a scan pays per scoped object
  for (const ExprPtr& c : conjuncts) {
    std::optional<Sargable> s = MatchSargable(*c);
    if (!s.has_value()) {
      unpriced_sel *= kDefaultResidualSelectivity;
      continue;
    }
    deref_steps += static_cast<double>(s->path.size() - 1);
    auto it = std::find_if(
        intervals.begin(), intervals.end(),
        [&](const KeyInterval& k) { return k.path == s->path; });
    if (it == intervals.end()) {
      it = intervals.insert(intervals.end(), KeyInterval{});
      it->path = s->path;
    }
    it->Add(*s, c);
  }

  // Only fresh statistics are read (ClassStats::Fresh); stale or absent
  // ones leave the defaults to price the plan. Drift that just retired a
  // class's snapshot hands it to the background re-analyzer.
  auto fresh_stats = [&](ClassId c) -> std::optional<ClassStats> {
    std::optional<ClassStats> s =
        stats_ == nullptr ? std::nullopt : stats_->Get(c);
    if (s.has_value() && s->Fresh()) return s;
    if (s.has_value() && s->analyzed && stale_stats_hook_ && c == q.target) {
      stale_stats_hook_(c);
    }
    return std::nullopt;
  };
  const std::optional<ClassStats> tstats = fresh_stats(q.target);

  // Exact scope cardinality off the directory's per-class live counters;
  // heap pages from analyze-time page counts scaled by the live-count
  // ratio (HeapFile::Pages() would do I/O at plan time), else a default
  // density.
  uint64_t scope_rows = 0;
  double est_pages = 0.0;
  for (ClassId c : scope_ids) {
    uint64_t rows_c = store_->LiveCount(c);
    scope_rows += rows_c;
    if (rows_c == 0) continue;
    std::optional<ClassStats> cs = c == q.target ? tstats : fresh_stats(c);
    if (cs.has_value() && cs->extent_pages > 0 && cs->live_objects > 0) {
      est_pages += static_cast<double>(cs->extent_pages) *
                   static_cast<double>(rows_c) /
                   static_cast<double>(cs->live_objects);
    } else {
      est_pages +=
          std::max(1.0, static_cast<double>(rows_c) / kDefaultRowsPerPage);
    }
  }

  // Point-fetch discount: candidates resident in the object cache skip
  // the heap entirely, so the fetch leg of an index plan shrinks with the
  // measured hit rate (clamped -- a cold cache still pays full).
  ObjectCacheStats oc = store_->object_cache().stats();
  double hit_rate = oc.hits + oc.misses > 0
                        ? static_cast<double>(oc.hits) /
                              static_cast<double>(oc.hits + oc.misses)
                        : 0.5;
  hit_rate = std::clamp(hit_rate, 0.0, 0.95);
  const double fetch_cost =
      hit_rate * kCachedFetchCost + (1.0 - hit_rate) * kFetchCost;

  // The sequential scan: every scope page + every scoped row, plus the
  // dereference fetches multi-segment predicate paths cost per row.
  const double rows = static_cast<double>(scope_rows);
  plan.est_cost =
      est_pages * kPageCost + rows * (kRowCost + deref_steps * fetch_cost);
  double best_matches = rows;
  double pred_sel = unpriced_sel;
  const KeyInterval* winner = nullptr;
  const IndexInfo* winner_idx = nullptr;
  plan.plans_considered = 1;

  // One selectivity per path, from the histogram of the class the path's
  // index targets; else 1/keys for an equality on an indexed path; else
  // the defaults. Each indexed path is one more candidate: a root-to-leaf
  // probe plus the per-match cost -- a covered equality emits OIDs,
  // anything else point-fetches the candidate for the residual.
  for (const KeyInterval& k : intervals) {
    const IndexInfo* idx =
        indexes_ == nullptr
            ? nullptr
            : indexes_->FindIndexFor(q.target, k.path, q.hierarchy_scope,
                                     read_ts);
    std::optional<ClassStats> other;
    const ClassStats* src = tstats.has_value() ? &*tstats : nullptr;
    if (idx != nullptr && idx->target_class != q.target) {
      other = fresh_stats(idx->target_class);
      src = other.has_value() ? &*other : nullptr;
    }
    const EquiDepthHistogram* hist = nullptr;
    if (src != nullptr) {
      auto hit = src->path_hists.find(JoinPath(k.path));
      if (hit != src->path_hists.end() && !hit->second.empty()) {
        hist = &hit->second;
      }
    }
    IndexManager::TreeStats tree;
    if (idx != nullptr) tree = indexes_->StatsFor(idx->id);
    double sel;
    if (hist != nullptr) {
      sel = k.eq_key.has_value()
                ? hist->SelectivityEq(*k.eq_key)
                : hist->SelectivityRange(k.lo, k.lo_inclusive, k.hi,
                                         k.hi_inclusive);
    } else if (k.eq_key.has_value()) {
      sel = idx != nullptr && tree.keys > 0
                ? std::min(1.0, 1.0 / static_cast<double>(tree.keys))
                : kDefaultEqSelectivity;
    } else {
      sel = std::pow(kDefaultRangeSelectivity,
                     (k.lo.has_value() ? 1 : 0) + (k.hi.has_value() ? 1 : 0));
    }
    pred_sel *= sel;
    if (idx == nullptr) continue;
    ++plan.plans_considered;
    double matches = sel * rows;
    bool covered = k.eq_key.has_value() && conjuncts.size() == 1;
    double cost = kProbeCost * std::max(1, tree.height) +
                  matches * (covered ? kEmitCost : fetch_cost + kRowCost);
    if (cost < plan.est_cost) {
      plan.est_cost = cost;
      best_matches = matches;
      winner = &k;
      winner_idx = idx;
    }
  }
  plan.est_rows = static_cast<uint64_t>(
      std::llround(std::clamp(pred_sel, 0.0, 1.0) * rows));
  plan.est_input_rows = static_cast<uint64_t>(std::llround(best_matches));
  if (winner == nullptr) return plan;  // sequential scan priced cheapest

  // The probe reads the winning interval. The residual keeps every other
  // conjunct, the interval's range conjuncts included: on a set-valued
  // path each is existential over possibly different elements, so the
  // merged bounds only narrow the candidates.
  plan.index_scan = true;
  plan.index_id = winner_idx->id;
  plan.index_path = winner->path;
  if (winner->eq_key.has_value()) {
    plan.eq_key = winner->eq_key;
  } else {
    plan.lo = winner->lo;
    plan.hi = winner->hi;
    plan.lo_inclusive = winner->lo_inclusive;
    plan.hi_inclusive = winner->hi_inclusive;
  }
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (c != winner->eq_conjunct) residual.push_back(c);
  }
  plan.residual = AndAll(residual);
  return plan;
}

QueryStats StatsFromExecContext(const exec::ExecContext& ctx) {
  QueryStats s;
  s.objects_scanned = ctx.objects_scanned.load(std::memory_order_relaxed);
  s.index_candidates = ctx.index_candidates.load(std::memory_order_relaxed);
  s.predicates_evaluated =
      ctx.predicates_evaluated.load(std::memory_order_relaxed);
  s.ref_fetches = ctx.ref_fetches.load(std::memory_order_relaxed);
  s.obj_cache_hits = ctx.obj_cache_hits.load(std::memory_order_relaxed);
  s.obj_cache_misses = ctx.obj_cache_misses.load(std::memory_order_relaxed);
  s.used_index = ctx.used_index.load(std::memory_order_relaxed);
  return s;
}

exec::MatchFn QueryEngine::MatchFnFor(ExprPtr pred) const {
  if (!pred) return nullptr;
  return [this, pred = std::move(pred)](
             const Object& obj, exec::ExecContext* ctx) -> Result<bool> {
    // Matches accumulates into a local QueryStats, flushed to the context's
    // atomics afterwards. Visibility comes off the evaluating context:
    // snapshot queries must also hop path expressions at their read
    // timestamp, through the context's batch-scoped hop memo.
    ReadView view{ctx->snapshot_active(), ctx->snapshot_ts(), ctx};
    QueryStats local;
    Result<bool> match = Matches(obj, pred, &local, view);
    ctx->predicates_evaluated.fetch_add(local.predicates_evaluated,
                                        std::memory_order_relaxed);
    ctx->ref_fetches.fetch_add(local.ref_fetches, std::memory_order_relaxed);
    ctx->obj_cache_hits.fetch_add(local.obj_cache_hits,
                                  std::memory_order_relaxed);
    ctx->obj_cache_misses.fetch_add(local.obj_cache_misses,
                                    std::memory_order_relaxed);
    return match;
  };
}

Result<std::unique_ptr<exec::Operator>> QueryEngine::Lower(
    const Query& q, const QueryPlan& plan) const {
  if (plan.index_scan) {
    exec::IndexScan::Spec spec;
    spec.index_id = plan.index_id;
    spec.path = plan.index_path;
    spec.eq_key = plan.eq_key;
    spec.lo = plan.lo;
    spec.hi = plan.hi;
    spec.lo_inclusive = plan.lo_inclusive;
    spec.hi_inclusive = plan.hi_inclusive;
    spec.scope_class = q.target;
    spec.hierarchy_scope = q.hierarchy_scope;
    // The equality the probe consumed, for the snapshot re-check; range
    // bounds stay in the residual, which re-checks them anyway.
    if (plan.eq_key.has_value()) {
      spec.recheck = MatchFnFor(Expr::Eq(Expr::Path(plan.index_path),
                                         Expr::Const(*plan.eq_key)));
    }
    std::unique_ptr<exec::Operator> scan = std::make_unique<exec::IndexScan>(
        indexes_, store_, std::move(spec));
    if (!plan.residual) {  // covered query: no fetch, no filter
      scan->SetEstimates(plan.est_rows, plan.est_cost);
      return scan;
    }
    scan->SetEstimates(plan.est_input_rows);
    std::unique_ptr<exec::Operator> filter = std::make_unique<exec::Filter>(
        std::move(scan), store_, MatchFnFor(plan.residual),
        plan.residual->ToString());
    filter->SetEstimates(plan.est_rows, plan.est_cost);
    return filter;
  }

  const Catalog& cat = *store_->catalog();
  auto name_of = [&](ClassId c) -> std::string {
    Result<const ClassDef*> def = cat.GetClass(c);
    return def.ok() ? (*def)->name : std::to_string(c);
  };
  std::vector<ClassId> scope = q.hierarchy_scope
                                   ? cat.Subtree(q.target)
                                   : std::vector<ClassId>{q.target};
  std::unique_ptr<exec::Operator> scan;
  if (q.hierarchy_scope) {
    std::vector<std::unique_ptr<exec::ExtentScan>> extents;
    extents.reserve(scope.size());
    for (ClassId c : scope) {
      extents.push_back(
          std::make_unique<exec::ExtentScan>(store_, c, name_of(c)));
    }
    scan = std::make_unique<exec::HierarchyScan>(name_of(q.target),
                                                 std::move(extents));
  } else {
    scan = std::make_unique<exec::ExtentScan>(store_, q.target,
                                              name_of(q.target));
  }
  if (!q.predicate) {
    scan->SetEstimates(plan.est_rows, plan.est_cost);
    return scan;
  }
  scan->SetEstimates(plan.est_input_rows);
  std::unique_ptr<exec::Operator> filter = std::make_unique<exec::Filter>(
      std::move(scan), store_, MatchFnFor(q.predicate),
      q.predicate->ToString());
  filter->SetEstimates(plan.est_rows, plan.est_cost);
  return filter;
}

namespace {

std::optional<uint64_t> ReadTsOf(const exec::ExecContext& ctx) {
  if (!ctx.snapshot_active()) return std::nullopt;
  return ctx.snapshot_ts();
}

/// Publishes what the planner decided onto the context's optimizer
/// counters (flushed into the obs registry by Database::FlushQueryMetrics).
void RecordPlanOutcome(const QueryPlan& plan, exec::ExecContext* ctx) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ctx->plans_considered.fetch_add(plan.plans_considered, kRelaxed);
  if (plan.index_scan) ctx->index_plans_chosen.fetch_add(1, kRelaxed);
  ctx->plan_est_rows.store(plan.est_rows, kRelaxed);
}

}  // namespace

Result<std::vector<Oid>> QueryEngine::Execute(const Query& q,
                                              QueryStats* stats) const {
  exec::ExecContext ctx(store_->buffer_pool());
  KIMDB_ASSIGN_OR_RETURN(std::vector<Oid> result, Execute(q, &ctx));
  if (stats != nullptr) *stats = StatsFromExecContext(ctx);
  return result;
}

Result<std::vector<Oid>> QueryEngine::Execute(const Query& q,
                                              exec::ExecContext* ctx) const {
  std::unique_ptr<exec::Operator> root;
  return Run(q, ctx, &root);
}

Result<std::vector<Oid>> QueryEngine::Run(
    const Query& q, exec::ExecContext* ctx,
    std::unique_ptr<exec::Operator>* root) const {
  // Pin a snapshot for the duration of the query (when the store runs
  // under a TxnManager): the whole plan -- scans, point fetches, path
  // hops -- reads one transaction-consistent state with zero lock-manager
  // traffic, however fast writers commit meanwhile. A caller that already
  // armed the context (e.g. reading at a checkout's pinned timestamp)
  // keeps its own pin.
  Snapshot snap;
  bool armed_here = false;
  if (!ctx->snapshot_active() && store_->mvcc() != nullptr) {
    snap = store_->mvcc()->AcquireSnapshot();
    ctx->set_snapshot(snap.read_ts());
    armed_here = true;
  }
  Result<QueryPlan> plan = Plan(q, ReadTsOf(*ctx));
  if (plan.ok()) RecordPlanOutcome(*plan, ctx);
  Result<std::unique_ptr<exec::Operator>> lowered =
      plan.ok() ? Lower(q, *plan) : plan.status();
  Result<std::vector<Oid>> result = lowered.status();
  if (lowered.ok()) {
    *root = std::move(*lowered);
    result = exec::CollectOids(**root, ctx);
  }
  if (result.ok()) {
    ctx->result_rows.store(result->size(), std::memory_order_relaxed);
  }
  // Disarm before the pin dies so a reused context cannot read through a
  // retired timestamp.
  if (armed_here) ctx->clear_snapshot();
  return result;
}

Result<std::string> QueryEngine::Explain(const Query& q) const {
  KIMDB_ASSIGN_OR_RETURN(QueryPlan plan, Plan(q));
  KIMDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> root, Lower(q, plan));
  return exec::ExplainTree(*root);
}

Result<std::string> QueryEngine::ExplainAnalyze(const Query& q,
                                                exec::ExecContext* ctx) const {
  ctx->EnableAnalyze();
  // The same run as Execute: same snapshot discipline, same tree.
  std::unique_ptr<exec::Operator> root;
  KIMDB_ASSIGN_OR_RETURN(std::vector<Oid> rows, Run(q, ctx, &root));
  std::string out = exec::ExplainAnalyzeTree(*root);
  out += "\nResult: " + std::to_string(rows.size()) + " rows";
  return out;
}

Result<std::string> QueryEngine::ExplainAnalyze(const Query& q) const {
  exec::ExecContext ctx(store_->buffer_pool());
  return ExplainAnalyze(q, &ctx);
}

Result<bool> QueryEngine::Matches(const Object& obj, const ExprPtr& pred,
                                  QueryStats* stats) const {
  return Matches(obj, pred, stats, ReadView{});
}

Result<bool> QueryEngine::Matches(const Object& obj, const ExprPtr& pred,
                                  QueryStats* stats,
                                  const ReadView& view) const {
  if (!pred) return true;
  QueryStats local;
  if (stats == nullptr) stats = &local;
  ++stats->predicates_evaluated;
  return EvalBool(obj, *pred, stats, view);
}

Status QueryEngine::EvalPath(const Object& obj,
                             const std::vector<std::string>& path,
                             std::vector<Value>* out, QueryStats* stats,
                             const ReadView& view) const {
  const Catalog& cat = *store_->catalog();
  // The frontier borrows the root and owns fetched children: copying the
  // root object here would charge every scanned object one deep copy per
  // predicate evaluation, which dominates extent-scan queries. Children
  // come from GetShared, so a cache hit costs a refcount bump, not a
  // deep copy per hop.
  std::vector<std::shared_ptr<const Object>> owned;
  std::vector<const Object*> frontier{&obj};
  for (size_t step = 0; step < path.size(); ++step) {
    bool last = step + 1 == path.size();
    std::vector<std::shared_ptr<const Object>> next;
    for (const Object* cur_p : frontier) {
      const Object& cur = *cur_p;
      Result<const AttributeDef*> attr =
          cat.ResolveAttr(cur.class_id(), path[step]);
      if (!attr.ok()) continue;  // attribute absent on this class: no value
      const Value& v = cur.Get((*attr)->id);
      if (v.is_null()) continue;
      if (last) {
        if (v.is_collection()) {
          for (const Value& e : v.elements()) {
            if (!e.is_null()) out->push_back(e);
          }
        } else {
          out->push_back(v);
        }
        continue;
      }
      // Intermediate step: dereference (fan out over set values). Under a
      // snapshot the hop lands on the version visible at read_ts, so a
      // path expression never mixes two points in time.
      auto deref = [&](const Value& ref) {
        if (ref.kind() != Value::Kind::kRef || ref.as_ref().is_nil()) return;
        ++stats->ref_fetches;
        // Batch mode: a slab of rows usually hops to few distinct targets
        // (many Vehicles, one Company), so the batch-scoped memo answers
        // repeats without another shared-cache lookup.
        if (view.hop_memo != nullptr) {
          if (const auto* memo = view.hop_memo->LookupHop(ref.as_ref())) {
            ++stats->obj_cache_hits;
            next.push_back(*memo);
            return;
          }
        }
        bool cache_hit = false;
        Result<std::shared_ptr<const Object>> child =
            view.snapshot ? store_->GetSharedSnapshot(ref.as_ref(),
                                                      view.read_ts, &cache_hit)
                          : store_->GetShared(ref.as_ref(), &cache_hit);
        if (cache_hit) {
          ++stats->obj_cache_hits;
        } else {
          ++stats->obj_cache_misses;
        }
        if (child.ok()) {
          if (view.hop_memo != nullptr) {
            view.hop_memo->MemoizeHop(ref.as_ref(), *child);
          }
          next.push_back(std::move(*child));
        }
      };
      if (v.is_collection()) {
        for (const Value& e : v.elements()) deref(e);
      } else {
        deref(v);
      }
    }
    if (last) break;
    owned = std::move(next);
    frontier.clear();
    frontier.reserve(owned.size());
    for (const auto& o : owned) frontier.push_back(o.get());
  }
  return Status::OK();
}

bool QueryEngine::CompareExists(Expr::Op op, const Value& lhs,
                                const Value& rhs) {
  auto expand = [](const Value& v) -> std::vector<Value> {
    if (v.is_collection()) return v.elements();
    return {v};
  };
  auto satisfies = [op](const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return false;
    int c = a.Compare(b);
    switch (op) {
      case Expr::Op::kEq:
        return c == 0;
      case Expr::Op::kNe:
        return c != 0;
      case Expr::Op::kLt:
        return c < 0;
      case Expr::Op::kLe:
        return c <= 0;
      case Expr::Op::kGt:
        return c > 0;
      case Expr::Op::kGe:
        return c >= 0;
      default:
        return false;
    }
  };
  for (const Value& a : expand(lhs)) {
    for (const Value& b : expand(rhs)) {
      if (satisfies(a, b)) return true;
    }
  }
  return false;
}

Result<Value> QueryEngine::Eval(const Object& obj, const Expr& e,
                                QueryStats* stats) const {
  return Eval(obj, e, stats, ReadView{});
}

Result<Value> QueryEngine::Eval(const Object& obj, const Expr& e,
                                QueryStats* stats,
                                const ReadView& view) const {
  QueryStats local;
  if (stats == nullptr) stats = &local;
  switch (e.op) {
    case Expr::Op::kConst:
      return e.literal;
    case Expr::Op::kPath: {
      std::vector<Value> vals;
      KIMDB_RETURN_IF_ERROR(EvalPath(obj, e.path, &vals, stats, view));
      if (vals.size() == 1) return vals[0];
      return Value::Set(std::move(vals));
    }
    case Expr::Op::kMethod: {
      if (methods_ == nullptr) {
        return Status::FailedPrecondition("no method registry attached");
      }
      std::vector<Value> args;
      for (const ExprPtr& c : e.children) {
        KIMDB_ASSIGN_OR_RETURN(Value v, Eval(obj, *c, stats, view));
        args.push_back(std::move(v));
      }
      MethodContext ctx{&obj, env_};
      return methods_->Invoke(*store_->catalog(), ctx, e.method, args);
    }
    default: {
      KIMDB_ASSIGN_OR_RETURN(bool b, EvalBool(obj, e, stats, view));
      return Value::Bool(b);
    }
  }
}

Result<bool> QueryEngine::EvalBool(const Object& obj, const Expr& e,
                                   QueryStats* stats,
                                   const ReadView& view) const {
  switch (e.op) {
    case Expr::Op::kAnd: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      if (!a) return false;
      return EvalBool(obj, *e.children[1], stats, view);
    }
    case Expr::Op::kOr: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      if (a) return true;
      return EvalBool(obj, *e.children[1], stats, view);
    }
    case Expr::Op::kNot: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      return !a;
    }
    case Expr::Op::kEq:
    case Expr::Op::kNe:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
    case Expr::Op::kContains: {
      KIMDB_ASSIGN_OR_RETURN(Value lhs,
                             Eval(obj, *e.children[0], stats, view));
      KIMDB_ASSIGN_OR_RETURN(Value rhs,
                             Eval(obj, *e.children[1], stats, view));
      if (e.op == Expr::Op::kContains) {
        return CompareExists(Expr::Op::kEq, lhs, rhs);
      }
      return CompareExists(e.op, lhs, rhs);
    }
    case Expr::Op::kConst:
      return !e.literal.is_null() &&
             e.literal.kind() == Value::Kind::kBool && e.literal.as_bool();
    case Expr::Op::kPath:
    case Expr::Op::kMethod: {
      KIMDB_ASSIGN_OR_RETURN(Value v, Eval(obj, e, stats, view));
      if (v.kind() == Value::Kind::kBool) return v.as_bool();
      if (v.is_collection()) return !v.elements().empty();
      return !v.is_null();
    }
  }
  return Status::Internal("unreachable expression op");
}

}  // namespace kimdb
