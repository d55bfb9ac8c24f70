#!/usr/bin/env bash
# Model coverage gate: every function of the simulated machine
# (src/{sim,noc,mem,arch,ndc}) must run in the figure goldens or the
# ndc-trace smoke, or stand on the allow-list below with the reason it is
# kept. A function that only tests call moves into tests/ as a reference
# model or is deleted with its tests.
#
# Builds ndc-sweep and ndc-trace with --coverage in BUILD_DIR, optimized but
# with early inlining off, so every function keeps its own counters. Runs the
# 13 goldens through scripts/check_figure_goldens.sh (which also checks them
# bit for bit) and one traced ndc-trace cell, sums gcov's per-function
# execution counts over every translation unit, and lists each function
# that never ran.
#
# Usage: model_coverage.sh [BUILD_DIR]   (default: build-coverage)
# Exit:  0 every function ran or is allowed, 1 a never-run function is not
#        allowed or a run failed, 2 usage or tool errors.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-build-coverage}
[ $# -le 1 ] || { echo "usage: model_coverage.sh [BUILD_DIR]" >&2; exit 2; }
for tool in cmake gcov python3; do
  command -v "$tool" > /dev/null || { echo "model_coverage: $tool not found" >&2; exit 2; }
done

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining" > /dev/null || exit 2
cmake --build "$BUILD" -j "$(nproc)" --target ndc-sweep ndc-trace > /dev/null || exit 2
BUILD=$(cd "$BUILD" && pwd)
# Counts from earlier runs would hide a function these runs no longer reach.
find "$BUILD" -name '*.gcda' -delete

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$ROOT/scripts/check_figure_goldens.sh" "$BUILD/tools/ndc-sweep" || exit 1
# The smoke covers what only a traced run reaches (request tracer, decision
# log).
"$BUILD/tools/ndc-trace" --workload=md --scheme=oracle --scale=test \
  --trace="$tmp/trace.json" --decisions="$tmp/decisions.jsonl" > /dev/null || exit 1

mkdir "$tmp/gcov"
(cd "$tmp/gcov" && find "$BUILD" -name '*.gcda' -print0 | xargs -0 gcov -j -p > /dev/null 2>&1) ||
  { echo "model_coverage: gcov failed" >&2; exit 2; }

python3 - "$tmp/gcov" <<'PY'
import collections, glob, gzip, json, os, re, sys

# (pattern over "<path under src/>: <demangled name>", why the function
# stays although no golden figure and no ndc-trace run calls it).
ALLOW = [
    (r"^arch/trace\.hpp: ndc::arch::Instr::Throw(Dep|Width)\(",
     "error throws: a trace that overflows the instruction layout"),
    (r"^arch/trace\.hpp: ndc::arch::OpName\(",
     "ir::Program::ToString names ops (examples/inspect_compile, tests)"),
    (r"^(arch/core|ndc/machine)\.cpp: ndc::\w+::\w+::RunStateBytes\(",
     "bench_substrate's bytes-per-instruction cap reads it"),
    (r"^ndc/(slab\.hpp: .*Slab<.*>|record\.hpp: ndc::runtime::RunRecord)::Bytes\(",
     "RunStateBytes sums it (bench_substrate)"),
    (r"^mem/memctrl\.cpp: ndc::mem::MemCtrl::EnqueueRead\(.*std::function<",
     "the closure overload perfbench and bench_substrate drive the MC with"),
    (r"^sim/stats\.cpp: ndc::sim::StatSet::Get\(",
     "perfbench and bench_substrate read counters by name"),
    (r"^ndc/machine\.cpp: ndc::runtime::Machine::LoadProgram\(.*&&\)",
     "the owning overload examples/quickstart loads its traces with"),
    (r"^noc/signature\.cpp: ndc::noc::Signature::(Links|ToString)\b",
     "examples/route_planning prints the shared signature"),
]

counts = collections.Counter()
for path in glob.glob(os.path.join(sys.argv[1], "*.gcov.json.gz")):
    with gzip.open(path) as f:
        data = json.load(f)
    cwd = data.get("current_working_directory", "")
    for unit in data["files"]:
        src = os.path.normpath(os.path.join(cwd, unit["file"]))
        m = re.search(r"/src/((?:sim|noc|mem|arch|ndc)/[^/]+)$", src)
        if not m:
            continue
        for fn in unit["functions"]:
            counts[f"{m.group(1)}: {fn['demangled_name']}"] += fn["execution_count"]

if not counts:
    print("model_coverage: no coverage data for src/{sim,noc,mem,arch,ndc}", file=sys.stderr)
    sys.exit(2)
never = sorted(k for k, n in counts.items() if n == 0)
used = set()
bad = []
for fn in never:
    hit = [i for i, (pat, _) in enumerate(ALLOW) if re.search(pat, fn)]
    used.update(hit)
    if not hit:
        bad.append(fn)
print(f"model_coverage: {len(counts)} functions, {len(never)} never run, "
      f"{len(never) - len(bad)} of them allowed")
for i, (pat, why) in enumerate(ALLOW):
    if i not in used:
        print(f"  note: allow-list entry matches no never-run function: {pat}")
for fn in bad:
    print(f"  NEVER RUN: {fn}")
if bad:
    print("model_coverage: FAILED: call these from the model, move them into tests/ "
          "as a reference, delete them, or allow them with a reason", file=sys.stderr)
    sys.exit(1)
PY
