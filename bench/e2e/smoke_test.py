#!/usr/bin/env python3
"""Smoke test: every workload, untraced and traced, at tiny sizes for 1 s.

Checks that each run exits 0, is correct, fails nothing, and prints as its
last line exactly the metric names (with their units) that BENCHMARK.json
lists: the end_to_end ones untraced, the per_layer ones traced.

    smoke_test.py --binary .bench_build/kimdb_e2e --benchmark-json BENCHMARK.json --dir DIR
"""
import argparse
import json
import os
import subprocess
import sys


def check_run(cmd, expected):
    """Problems with one run, as a list of strings."""
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return [f"exit {p.returncode}: {p.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {p.stderr[-2000:]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"missing {sorted(set(expected) - set(got))} "
                        f"extra {sorted(set(got) - set(expected))} unit mismatch "
                        f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        bench = json.load(f)
    os.makedirs(args.dir, exist_ok=True)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failed = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [args.binary, "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke",
                   "--dir", args.dir]
            problems = check_run(cmd, expected[trace])
            print(f"{'FAIL' if problems else 'ok'} {w['name']} trace={trace}")
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
