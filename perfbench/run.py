#!/usr/bin/env python3
"""Builds and runs one workload of the ndc simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_fig04 [--seed 1] [--seconds 10] [--trace 0]

Builds perfbench/ (the ndc libraries plus the ndc-perfbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs the workload, and prints every metric by name with its unit, the digest
of all simulated results, and the correctness tally. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where metrics holds the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). A per-layer metric that the
workload does not exercise reads -1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "goldens" / "fig04.scale-test.stdout"
WORKLOADS = ("sweep_fig04", "sim_baseline", "sim_offload")
NOT_MEASURED = -1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(out):
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure")
    jobs = str(min(os.cpu_count() or 1, 8))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "build")
    return out / "ndc-perfbench"


def parse(lines):
    metrics, digest, checks = {}, None, None
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif len(parts) == 3 and parts[0] == "digest":
            digest = (parts[1], int(parts[2]))
        elif len(parts) == 3 and parts[0] == "checks":
            checks = (int(parts[1]), int(parts[2]))
    return metrics, digest, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").exists() or not GOLDEN.exists():
        fail(f"{ROOT} does not hold the ndc sources (src/) and tests/goldens/")
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", str(GOLDEN), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"ndc-perfbench exited with {proc.returncode}")
    measured, digest, checks = parse(proc.stdout.splitlines())
    if digest is None or checks is None:
        fail("ndc-perfbench printed no digest or checks line")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in measured.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    attempted, failed = checks
    print(f"  {'failed_frac':30s} {failed / attempted:.6g} ({failed} of {attempted} runs, "
          "cells and golden tables)")
    print(f"  digest {digest[0]} over {digest[1]} simulated results")

    names = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
    for name in measured:
        if name not in names:
            fail(f"metric {name} is not declared in BENCHMARK.json")
    result = {}
    for m in declared:
        if m["name"] in measured:
            value, unit = measured[m["name"]]
            if unit != m["unit"]:
                fail(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        elif args.trace:
            value = NOT_MEASURED
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
