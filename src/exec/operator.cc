#include "exec/operator.h"

#include <cinttypes>
#include <cstdio>

namespace kimdb {
namespace exec {

namespace {

void RenderTree(const Operator& op, size_t depth, bool analyze,
                std::string* out) {
  out->append(depth * 2, ' ');
  out->append(op.Describe());
  // Planner estimates (cost-based plans only). In EXPLAIN they are the
  // whole annotation; in EXPLAIN ANALYZE they lead the span so estimated
  // and actual cardinality sit side by side.
  if (op.has_estimates()) {
    char ebuf[96];
    int en;
    if (op.est_cost() >= 0) {
      en = std::snprintf(ebuf, sizeof(ebuf), " (est_rows=%" PRIu64
                         " est_cost=%.1f",
                         op.est_rows(), op.est_cost());
    } else {
      en = std::snprintf(ebuf, sizeof(ebuf), " (est_rows=%" PRIu64,
                         op.est_rows());
    }
    if (en > 0 && static_cast<size_t>(en) < sizeof(ebuf)) {
      std::snprintf(ebuf + en, sizeof(ebuf) - en, analyze ? "" : ")");
    }
    out->append(ebuf);
  }
  if (analyze) {
    const OpStats& s = op.stats();
    char buf[256];
    int n = std::snprintf(buf, sizeof(buf),
                          "%s" "rows=%" PRIu64 " loops=%" PRIu64
                          " time=%.2fms pages=%" PRIu64 "+%" PRIu64,
                          op.has_estimates() ? " " : " (", s.rows, s.loops,
                          static_cast<double>(s.time_ns) / 1e6, s.pages_hit,
                          s.pages_missed);
    if (s.pages_readahead > 0 && n > 0 &&
        static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(buf + n, sizeof(buf) - n, " ra=%" PRIu64,
                         s.pages_readahead);
    }
    // Object-cache accounting, shown only where an operator point-fetched.
    if (s.obj_cache_hits + s.obj_cache_misses > 0 && n > 0 &&
        static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(buf + n, sizeof(buf) - n, " oc=%" PRIu64 "+%" PRIu64,
                         s.obj_cache_hits, s.obj_cache_misses);
    }
    // Scan input, shown only where an extent scan read objects: a fused
    // scan emits only its matches, so rows alone would hide its work.
    if (s.objects_scanned > 0 && n > 0 &&
        static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(buf + n, sizeof(buf) - n, " scanned=%" PRIu64,
                         s.objects_scanned);
    }
    if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      std::snprintf(buf + n, sizeof(buf) - n, ")");
    }
    out->append(buf);
  }
  out->push_back('\n');
  for (const Operator* child : op.children()) {
    RenderTree(*child, depth + 1, analyze, out);
  }
}

std::string Render(const Operator& root, bool analyze) {
  std::string out;
  RenderTree(root, 0, analyze, &out);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace

std::string ExplainTree(const Operator& root) {
  return Render(root, /*analyze=*/false);
}

std::string ExplainAnalyzeTree(const Operator& root) {
  return Render(root, /*analyze=*/true);
}

Status ForEachRowBatched(Operator& root, ExecContext* ctx,
                         const std::function<Status(Row&)>& fn) {
  Status st = root.Open(ctx);
  if (st.ok()) {
    std::vector<Row> batch;
    batch.reserve(kBatchSize);
    while (true) {
      Result<size_t> n = root.NextBatch(ctx, &batch);
      if (!n.ok()) {
        st = n.status();
        break;
      }
      if (*n == 0) break;
      for (Row& row : batch) {
        st = fn(row);
        if (!st.ok()) break;
      }
      if (!st.ok()) break;
    }
  }
  root.Close(ctx);
  return st;
}

Result<std::vector<Oid>> CollectOids(Operator& root, ExecContext* ctx) {
  std::vector<Oid> out;
  KIMDB_RETURN_IF_ERROR(ForEachRowBatched(root, ctx, [&](Row& row) {
    out.push_back(row.oid);
    return Status::OK();
  }));
  return out;
}

}  // namespace exec
}  // namespace kimdb
