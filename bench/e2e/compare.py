#!/usr/bin/env python3
"""Compares two sets of kimdb_e2e runs, workload by workload.

Each set is a directory of run outputs: the standard output of one
`run.py` call per file (the meta line names the workload, seed and trace
mode; the last line is the result). For every workload x metric it prints
both sides' median and quartiles and a verdict against the metric's bound
from BENCHMARK.json:

  within bound   the medians differ by less than the bound
  REGRESSION     the change is worse by more than the bound
  improved       the change is better by more than the bound
  unresolved     a side's quartile spread (IQR / median) is wider than the
                 bound, so the sets cannot tell; unless every change run
                 reads better than every base run

A claimed metric (--claim WORKLOAD:METRIC) must also win the pair rule:
runs are paired by seed (run the two sides alternately), the change must
win at least 9 of every 10 pairs (ties count for neither), and the medians
must differ by more than the base runs' own quartile spread.

    compare.py BASE_DIR CHANGE_DIR [--claim traverse-cold:ops_per_s] [--per-layer]

--per-layer compares the traced runs' per-layer metrics (no bounds; the
verdict column is left empty). Exits 1 when any metric regressed or a
claim was not met.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(d, traced):
    """{workload: [(seed, {metric: value})]} from every run file in d."""
    runs = {}
    for name in sorted(os.listdir(d)):
        path = os.path.join(d, name)
        if not os.path.isfile(path):
            continue
        meta, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "meta" in obj:
                    meta = obj["meta"]
                elif "metrics" in obj:
                    result = obj
        if meta is None or result is None or bool(meta["trace"]) != traced:
            continue
        if not result["correct"] or result["failed"]:
            print(f"warning: {path} is not a correct run; skipped", file=sys.stderr)
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(meta["workload"], []).append((meta["seed"], values))
    return runs


def summary(v):
    med = statistics.median(v)
    q1, q3 = (statistics.quantiles(v, n=4)[0::2] if len(v) > 1 else (med, med))
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def pair_rule(base, change, metric, lower_better):
    """(wins, pairs) over runs paired by seed, in file order per seed."""
    by_seed = {}
    for seed, vals in base:
        by_seed.setdefault(seed, [[], []])[0].append(vals[metric])
    for seed, vals in change:
        by_seed.setdefault(seed, [[], []])[1].append(vals[metric])
    wins = pairs = 0
    for b, c in by_seed.values():
        for bv, cv in zip(b, c):
            pairs += 1
            if cv != bv and (cv < bv) == lower_better:
                wins += 1
    return wins, pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.per_layer else bench["end_to_end"]
    base = load_runs(args.base, args.per_layer)
    change = load_runs(args.change, args.per_layer)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    bad = 0

    print(f"{'workload':14} {'metric':38} {'base median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'change':>8}  verdict")
    for w in (x["name"] for x in bench["workloads"]):
        if w not in base or w not in change:
            print(f"{w:14} (no runs on {'base' if w not in base else 'change'} side)")
            continue
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            bv = [v[name] for _, v in base[w] if name in v]
            cv = [v[name] for _, v in change[w] if name in v]
            if not bv or not cv:
                continue
            b, c = summary(bv), summary(cv)
            delta = (c[0] - b[0]) / abs(b[0]) if b[0] else 0.0
            worse = delta if lower else -delta
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                all_better = (max(cv) < min(bv)) if lower else (min(cv) > max(bv))
                if max(spread(*b), spread(*c)) > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    bad += 1
                elif -worse > bound or all_better:
                    verdict = "improved"
                else:
                    verdict = "within bound"
            if (w, name) in claims:
                wins, pairs = pair_rule(base[w], change[w], name, lower)
                beyond_noise = abs(c[0] - b[0]) > (b[2] - b[1])
                met = pairs > 0 and wins >= 0.9 * pairs and beyond_noise and worse < 0
                verdict += (f"; claim {'met' if met else 'NOT met'}: "
                            f"{wins}/{pairs} pairs won")
                bad += 0 if met else 1
            fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
            print(f"{w:14} {name:38} {fmt(b):>36} {fmt(c):>36} "
                  f"{delta * 100:+7.2f}%  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
