#!/usr/bin/env bash
# Metrics smoke test: runs the quickstart example (which dumps the
# registry as METRICS1/METRICS2 JSON lines around a query execution) and
# asserts that (a) every subsystem's metrics are present, (b) counters
# are monotonic across the two snapshots, and (c) the extra execution
# actually moved the query counters. The quickstart database is
# in-memory, so wal.* metrics are intentionally absent here (covered by
# ObsMetricsDbTest against a durable database instead).
#
# Usage: scripts/metrics_smoke.sh <path-to-quickstart-binary>
set -euo pipefail
QUICKSTART="${1:?usage: metrics_smoke.sh <quickstart-binary>}"

OUT="$("$QUICKSTART")"
echo "$OUT" | grep -q "quickstart OK"

python3 - "$OUT" <<'EOF'
import json
import sys

out = sys.argv[1]
snaps = {}
for line in out.splitlines():
    for tag in ("METRICS1", "METRICS2"):
        if line.startswith(tag + " "):
            snaps[tag] = json.loads(line[len(tag) + 1:])
assert set(snaps) == {"METRICS1", "METRICS2"}, "missing METRICS lines"
m1, m2 = snaps["METRICS1"], snaps["METRICS2"]

# Every subsystem must be represented (quickstart is in-memory: no wal.*).
required = [
    "bufferpool.hits", "bufferpool.misses", "bufferpool.evictions",
    "bufferpool.disk_reads", "bufferpool.disk_writes",
    "bufferpool.readahead_issued", "bufferpool.readahead_hits",
    "bufferpool.shard_lock_waits", "bufferpool.shard_wait_ns",
    "storage.heap.relocations", "storage.heap.pages_linked",
    "lock.acquired", "lock.waits", "lock.deadlocks", "lock.wait_ns",
    "txn.begun", "txn.committed", "txn.aborted",
    "txn.commit_ns", "txn.abort_ns",
    "txn.snapshot_acquired", "txn.snapshot_live", "txn.snapshot_conflicts",
    "txn.commit_ts",
    "objectstore.versions_installed", "objectstore.versions_pruned",
    "objectstore.versions_chains", "objectstore.versions_entries",
    "index.maintenance_ops", "index.key_recomputations",
    "index.deferred_entries", "index.deferred_retired",
    "index.snapshot_scope_scans",
    "objectstore.cache_hits", "objectstore.cache_misses",
    "objectstore.cache_evictions", "objectstore.cache_invalidations",
    "objectstore.get_ns", "objectstore.class_write_waits",
    "query.executed", "query.objects_scanned", "query.index_probes",
    "query.predicates_evaluated", "query.pages_hit", "query.trace_dropped",
    "query.exec_ns",
    "optimizer.plans_considered", "optimizer.index_plans_chosen",
    "optimizer.analyze_runs",
    "optimizer.est_rows_error_pct", "optimizer.auto_analyze_runs",
    "recovery.analysis_ns", "recovery.redo_ns", "recovery.undo_ns",
    # Wire-protocol front-end (the quickstart serves one query + a ping
    # over a real socket before the first snapshot).
    "net.connections", "net.accepted", "net.requests",
    "net.bytes_in", "net.bytes_out", "net.flushes", "net.protocol_errors",
    "net.pipeline_depth", "net.request_ns",
]
for name in required:
    assert name in m1, f"metric {name} missing from METRICS1"
    assert name in m2, f"metric {name} missing from METRICS2"

# Counters (and histogram counts) are monotonic between the snapshots;
# recovery.* are gauges of the last recovery run, and the occupancy
# levels (object-cache resident_*, live snapshots, version-chain sizes,
# deferred index entries) legitimately shrink -- all exempt.
levels = {"txn.snapshot_live", "objectstore.versions_chains",
          "objectstore.versions_entries", "index.deferred_entries",
          "net.connections"}
for name, v1 in m1.items():
    if (name.startswith("recovery.") or ".cache_resident_" in name
            or name in levels):
        continue
    v2 = m2[name]
    if isinstance(v1, dict):
        assert v2["count"] >= v1["count"], f"{name} count went backwards"
        assert v2["sum"] >= v1["sum"], f"{name} sum went backwards"
    else:
        assert v2 >= v1, f"{name} went backwards: {v1} -> {v2}"

# The execution between the snapshots must be visible in the registry.
assert m2["query.executed"] == m1["query.executed"] + 1
assert m2["query.exec_ns"]["count"] == m1["query.exec_ns"]["count"] + 1
assert m2["query.index_probes"] > m1["query.index_probes"]

# The wire round-trips moved the net.* counters: the served HELLO + query
# land before METRICS1, the PING between the snapshots.
assert m1["net.accepted"] >= 1, "server accepted no connection"
assert m1["net.requests"] >= 2, "served HELLO+query missing from METRICS1"
assert m2["net.requests"] == m1["net.requests"] + 1, "PING not counted"
assert m2["net.request_ns"]["count"] == m1["net.request_ns"]["count"] + 1
assert m2["net.bytes_in"] > 0 and m2["net.bytes_out"] > 0
assert m2["net.protocol_errors"] == 0, "clean client tripped protocol errors"
assert m1["net.connections"] >= 1, "live connection missing from gauge"

# The quickstart analyzes Vehicle before the first snapshot, and the extra
# execution priced one more plan and recorded its estimation error.
assert m1["optimizer.analyze_runs"] >= 1, "analyze did not run"
assert m2["optimizer.plans_considered"] > m1["optimizer.plans_considered"]
assert (m2["optimizer.est_rows_error_pct"]["count"] ==
        m1["optimizer.est_rows_error_pct"]["count"] + 1)

# Snapshot stamping (DESIGN.md §15): every exported snapshot carries a
# monotonic sequence number and wall-clock stamp.
for m in (m1, m2):
    assert "obs.seq" in m and "obs.wall_ms" in m, "snapshot stamp missing"
assert m2["obs.seq"] > m1["obs.seq"], "obs.seq not monotonic"
assert m2["obs.wall_ms"] >= m1["obs.wall_ms"], "obs.wall_ms went backwards"

# MetricsReporter JSONL: the quickstart ticks the reporter twice around a
# commit+query and echoes the file as REPORTER lines. Each line must be a
# self-describing snapshot, and the second tick's windows must carry the
# rolling per-window percentiles of the work done between the ticks.
reports = [json.loads(line[len("REPORTER "):])
           for line in out.splitlines() if line.startswith("REPORTER ")]
assert len(reports) >= 2, f"expected >=2 REPORTER lines, got {len(reports)}"
for r in reports:
    assert {"seq", "wall_ms", "windows", "metrics"} <= set(r), r.keys()
seqs = [r["seq"] for r in reports]
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), \
    f"reporter seq not strictly monotonic: {seqs}"
second = reports[1]["windows"]
assert "txn.commit_ns" in second, "txn.commit_ns window missing"
w = second["txn.commit_ns"]
for key in ("wseq", "wall_ms", "count", "mean", "p50", "p95", "p99", "max"):
    assert key in w, f"windowed percentile field {key} missing"
assert w["count"] >= 1, "second window saw no commit"
assert w["p99"] >= w["p50"] > 0, f"degenerate window percentiles: {w}"

# Flight recorder + slow-op log: the trace dump must contain the commit
# pipeline of the last transaction and the slow-op log (threshold 1ns in
# the quickstart) its stage breakdown.
trace = next(json.loads(line[len("TRACE "):])
             for line in out.splitlines() if line.startswith("TRACE "))
stages = [e["stage"] for e in trace["events"]]
assert "commit_clock" in stages and "mvcc_publish" in stages, \
    f"commit pipeline missing from trace dump: {stages}"
assert trace["recorded"] > 0, "flight recorder recorded nothing"
slow = next(json.loads(line[len("SLOWOPS "):])
            for line in out.splitlines() if line.startswith("SLOWOPS "))
kinds = {op["kind"] for op in slow}
assert "commit" in kinds and "query" in kinds, f"slow-op kinds: {kinds}"
assert any("mvcc_publish" in op.get("stages", {}) for op in slow
           if op["kind"] == "commit"), "slow commit lost its breakdown"

print("metrics_smoke OK "
      f"({len(m1)} metrics, query.executed {m1['query.executed']} -> "
      f"{m2['query.executed']}, {len(reports)} reporter lines, "
      f"{len(trace['events'])} trace events, {len(slow)} slow ops)")
EOF
