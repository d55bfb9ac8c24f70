#!/usr/bin/env bash
# Coverage gate: every function in src/ must run in the figure goldens, the
# ndc-trace smoke, the ndc-lint, smoke-sweep and example runs below, or
# stand on the allow-list below with the reason it is kept. A function
# that only tests call moves into tests/ as a reference model or is deleted
# with its tests.
#
# Builds ndc-sweep, ndc-trace, ndc-lint and the five examples with
# --coverage in BUILD_DIR, with asserts on (CMake's RelWithDebInfo flags
# without -DNDEBUG), optimized but with early inlining off, so every
# function keeps its own counters. -fkeep-inline-functions makes every unit
# emit each inline function its headers define, called or not, so a header
# function no unit calls still shows up as never run; -ffunction-sections
# with --gc-sections drops the unreferenced copies at link time (without
# it, GCC 12's kept std::filesystem inline constructors do not link).
#
# Runs the 13 goldens through scripts/check_figure_goldens.sh (which also
# checks them bit for bit), one traced ndc-trace cell, ndc-lint's JSON and
# SARIF outputs, a smoke sweep with the JSONL and CSV exports, a smoke
# sweep with the obs export, and the examples. Sums gcov's per-function execution counts over every
# translation unit and lists each function of src/ that never ran.
#
# Usage: model_coverage.sh [BUILD_DIR]   (default: build-coverage)
# Exit:  0 every function ran or is allowed, 1 a never-run function is not
#        allowed, an allow-list entry matches no never-run function, or a
#        run failed, 2 usage or tool errors.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-build-coverage}
[ $# -le 1 ] || { echo "usage: model_coverage.sh [BUILD_DIR]" >&2; exit 2; }
for tool in cmake gcov python3; do
  command -v "$tool" > /dev/null || { echo "model_coverage: $tool not found" >&2; exit 2; }
done

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g" \
  "-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining -fkeep-inline-functions -ffunction-sections" \
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections" > /dev/null || exit 2
EXAMPLES="quickstart stencil_offload custom_policy inspect_compile route_planning"
# shellcheck disable=SC2086  # EXAMPLES is a word list
cmake --build "$BUILD" -j "$(nproc)" --target ndc-sweep ndc-trace ndc-lint $EXAMPLES > /dev/null ||
  exit 2
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
# --verbose prints every warning, which the shipped workloads raise.
"$BUILD/tools/ndc-lint" --scale=test --verbose --sarif="$tmp/lint.sarif" > /dev/null || exit 1
"$BUILD/tools/ndc-lint" --scale=test --json > /dev/null || exit 1
"$BUILD/tools/ndc-sweep" --list > /dev/null || exit 1
"$BUILD/tools/ndc-sweep" --figure=smoke --scale=test \
  --export-jsonl="$tmp/smoke.jsonl" --export-csv="$tmp/smoke.csv" \
  --summary="$tmp/summary.jsonl" --progress \
  > /dev/null 2> "$tmp/sweep.err" || { cat "$tmp/sweep.err" >&2; exit 1; }
"$BUILD/tools/ndc-sweep" --figure=smoke --scale=test --export-obs="$tmp/obs" \
  > /dev/null 2> "$tmp/sweep.err" || { cat "$tmp/sweep.err" >&2; exit 1; }
# Each example with the argument its ctest case passes.
for run in quickstart "stencil_offload test" custom_policy "inspect_compile swim" \
  route_planning; do
  # shellcheck disable=SC2086  # the example's name, then its argument
  "$BUILD"/examples/$run > /dev/null || exit 1
done

mkdir "$tmp/gcov"
(cd "$tmp/gcov" && find "$BUILD" -name '*.gcda' -print0 | xargs -0 gcov -j -p > /dev/null 2>&1) ||
  { echo "model_coverage: gcov failed" >&2; exit 2; }

python3 - "$tmp/gcov" "$ROOT" <<'PY'
import collections, glob, gzip, json, os, re, sys

# (pattern over "<path under src/>: <demangled name>", why the function
# stays although no run of this script calls it).
ALLOW = [
    (r"^arch/trace\.hpp: ndc::arch::Instr::Throw(Dep|Width)\(",
     "error throws: a trace that overflows the instruction layout"),
    (r"^(arch/core|ndc/machine)\.cpp: ndc::\w+::\w+::RunStateBytes\(",
     "bench_substrate's bytes-per-instruction cap reads it"),
    (r"^ndc/(slab\.hpp: .*Slab<.*>|record\.hpp: ndc::runtime::RunRecord)::Bytes\(",
     "RunStateBytes sums it (bench_substrate)"),
    (r"^ndc/record\.hpp: ndc::runtime::RunRecord::TotalInstances\(",
     "bench_substrate's bytes-per-candidate cap divides by it"),
    (r"^arch/core\.hpp: ndc::arch::Core::window_slots\(",
     "bench_substrate reports the largest core window; tests check the ring grows"),
    (r"^mem/memctrl\.cpp: ndc::mem::MemCtrl::EnqueueRead\(.*std::function<",
     "the closure overload perfbench and bench_substrate drive the MC with"),
    (r"^sim/stats\.cpp: ndc::sim::StatSet::Get\(",
     "perfbench and bench_substrate read counters by name"),
    # Error paths: no shipped workload or configuration takes them.
    (r"^fault/conservation\.cpp: ndc::fault::ConservationReport::ToString\b",
     "names the violated invariants when a run loses a request"),
    (r"^metrics/profile\.hpp: ndc::metrics::Profile::workload\b",
     "names the workload when a record figure's observation run loses a request"),
    (r"^verify/legality_audit\.cpp: .*::HasUnknownDeps\(",
     "classifies an unsafe access movement, which the compiler never emits"),
    (r"^ir/matrix\.cpp: ndc::ir::IntMat::SolveInteger\(.*::(Frac::Reduce\(|\{lambda)",
     "elimination across coupled subscript rows, which no shipped workload has"),
    # Called from outside src/ and tools/.
    (r"^harness/cell\.cpp: ndc::harness::RunCell\(ndc::harness::CellSpec const&\)",
     "perfbench's sweep_fig04 runs its traced cells with it"),
    (r"^ndc/machine\.hpp: ndc::runtime::Machine::core\(",
     "perfbench reads each core's counters through it (sim_workloads.cpp)"),
    (r"^(ir/program\.cpp: ndc::ir::Array::AddrOf|ir/matrix\.cpp: ndc::ir::VecAdd)\(",
     "the reference address rule Program.ResolveAddrMatchesSubscriptReference "
     "checks Program::ResolveAddr against"),
    (r"^harness/cell\.cpp: ndc::harness::CellResult::operator==",
     "tests compare sweeps cell for cell; it walks cell.cpp's private counter list"),
    (r"^verify/diagnostics\.cpp: ndc::verify::Report::ToText\b",
     "tests print a report with it when an assertion fails"),
    (r"^arch/core\.hpp: ndc::arch::Core::done_cycle\(",
     "tests pin each slot's completion cycle, which no run output carries"),
    (r"^arch/trace\.hpp: ndc::arch::Instr::words\(",
     "tests compare traces word for word"),
    (r"^noc/routing\.hpp: ndc::noc::RouteTable::size\(",
     "tests check that a new table holds exactly the mesh's X-Y routes"),
    (r"^obs/request_trace\.hpp: ndc::obs::RequestTracer::records\(",
     "tests read single request records (sampling, end-to-end latency)"),
    # Run, but gcov records no execution for them.
    (r"^ndc/machine\.hpp: ndc::runtime::Machine::CandidateRecordBytes\(",
     "constexpr: only the static_asserts on the record size evaluate it, at compile time"),
    (r"^ndc/policy\.hpp: ndc::runtime::Policy::~Policy\(",
     "defaulted; runs whenever a unique_ptr<Policy> deletes a policy"),
    (r"^(ir/matrix\.hpp: ndc::ir::IntMat::IntMat|ir/program\.hpp: ndc::ir::OperandAddr::OperandAddr)\(\)",
     "defaulted constructors, which run for every default-built matrix and operand"),
    (r"^harness/figures\.cpp: .*kFig17Variants::\{lambda\(ndc::arch::ArchConfig&\)#1\}",
     "fig17's default-5x5 variant: an empty body that changes nothing"),
]

src_dir = os.path.join(os.path.realpath(sys.argv[2]), "src") + os.sep
counts = collections.Counter()
for path in glob.glob(os.path.join(sys.argv[1], "*.gcov.json.gz")):
    with gzip.open(path) as f:
        data = json.load(f)
    cwd = data.get("current_working_directory", "")
    for unit in data["files"]:
        src = os.path.realpath(os.path.join(cwd, unit["file"]))
        if not src.startswith(src_dir):
            continue
        for fn in unit["functions"]:
            counts[f"{src[len(src_dir):]}: {fn['demangled_name']}"] += fn["execution_count"]

if not counts:
    print("model_coverage: no coverage data for src/", file=sys.stderr)
    sys.exit(2)
never = sorted(k for k, n in counts.items() if n == 0)
used = set()
bad = []
for fn in never:
    hit = [i for i, (pat, _) in enumerate(ALLOW) if re.search(pat, fn)]
    used.update(hit)
    if not hit:
        bad.append(fn)
stale = [pat for i, (pat, _) in enumerate(ALLOW) if i not in used]
print(f"model_coverage: {len(counts)} functions, {len(never)} never run, "
      f"{len(never) - len(bad)} of them allowed")
for fn in bad:
    print(f"  NEVER RUN: {fn}")
for pat in stale:
    print(f"  STALE ALLOW: {pat}")
if bad:
    print("model_coverage: FAILED: call these from the program, move them into tests/ "
          "as a reference, delete them, or allow them with a reason", file=sys.stderr)
if stale:
    print("model_coverage: FAILED: drop or repoint the allow-list entries that match no "
          "never-run function", file=sys.stderr)
if bad or stale:
    sys.exit(1)
PY
