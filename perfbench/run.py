#!/usr/bin/env python3
"""gridroute benchmark: builds the library and the perfbench program from source, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and traced runs write their spans to .bench_out/. The last line
of standard output is the run's JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build():
    """Configures and builds perfbench; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring again is cheap and recovers a build directory left by a
    # failed first configure.
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def check_catalog(binary):
    """Cross-checks BENCHMARK.json, layers.json and the perfbench catalog."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    listed = json.loads(subprocess.run([binary, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]

    for section, names in (("end_to_end", e2e), ("per_layer", per_layer),
                           ("workloads", workloads)):
        for name in names:
            if not NAME_RE.match(name):
                problems.append(f"{section}: invalid name {name!r}")
        if len(set(names)) != len(names):
            problems.append(f"{section}: repeated names")
    if workloads != listed["workloads"]:
        problems.append("BENCHMARK.json workloads differ from perfbench's")
    for section in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"]) for m in bench[section]]
        theirs = [tuple(m) for m in listed[section]]
        if ours != theirs:
            problems.append(f"BENCHMARK.json {section} names/units differ from perfbench's")

    for name in per_layer:
        entry = layers.get(name)
        if not entry or not entry.get("moves"):
            problems.append(f"per-layer metric {name} names no end-to-end metric it moves")
            continue
        for move in entry["moves"]:
            if move.get("metric") not in e2e:
                problems.append(f"{name}: moves unknown end-to-end metric {move.get('metric')!r}")
            if move.get("workload") not in workloads:
                problems.append(f"{name}: moves on unknown workload {move.get('workload')!r}")
        for w in entry.get("flat_on", []):
            if w not in workloads:
                problems.append(f"{name}: flat on unknown workload {w!r}")
    for name in layers:
        if name not in per_layer:
            problems.append(f"layers.json maps {name}, which BENCHMARK.json does not list")
    for p in problems:
        print("FAIL " + p)
    print("ok   BENCHMARK.json, layers.json and perfbench agree" if not problems
          else "catalog check FAILED")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    if args.self_test:
        unit = subprocess.run([binary, "--self-test"]).returncode == 0
        return 0 if check_catalog(binary) and unit else 1

    span_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(span_dir, exist_ok=True)
    return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--span-dir", span_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
