#!/usr/bin/env python3
"""Builds kimdb_e2e from the checkout's sources and runs one benchmark run.

Run from anywhere inside a checkout:

    python3 bench/e2e/run.py --workload traverse-cold --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root: configured once, rebuilt incrementally on every call (a no-op
when nothing changed). Build output goes to <build>/build.log; a failed
build prints its tail to stderr and exits 1 without a result. Databases and
span files live in <build>/data, so a run writes only inside the checkout.
All arguments are passed to the binary unchanged; see README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "kimdb_e2e", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                log.write(f"{cmd[0]}: {e}\n")
                rc = 127
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write(f"build failed: {' '.join(cmd)}\n")
                return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    data = os.path.join(out, "data")
    os.makedirs(data, exist_ok=True)
    binary = os.path.join(out, "kimdb_e2e")
    args = [binary] + sys.argv[1:] + ["--dir", data]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
