#!/usr/bin/env python3
"""Enforce the substrate performance floors from a BENCH_substrate.json.

Gates, all measured on the same machine in the same process so they are
robust to runner speed:
  - the calendar queue must beat the seed binary-heap queue by at least
    --min-speedup on the hot small-delay scheduling path;
  - the hot path must be allocation-free in steady state: the calendar_chain
    bench may average at most --max-allocs-per-event heap allocations;
  - per-row allocation ceilings (allocs/event) for the component streams,
    the whole machine and the code generator: memctrl_stream <= 0.01,
    noc_stream <= 0.01, machine_swim <= 0.05, machine_offload <= 0.05,
    lower_fig04 <= 0.0005 and lower_fig04_alg2 <= 0.002 (allocs per emitted
    instruction; 0.00039 and 0.00149 measured, with each core's trace
    written straight from its block of outer iterations);
  - footprint ceilings per trace instruction: machine_swim <= 20 bytes of
    machine run state (17.4 measured, with the core's per-slot state in a
    ring over its window), and machine_swim and machine_offload <= 16 bytes
    of trace storage (capacity, not size, so an over-reserving trace fails
    where a sizeof(arch::Instr) assert cannot see it);
  - a footprint ceiling per NDC candidate: machine_swim's observe run keeps
    <= 124 bytes of records per candidate (122.9 measured: 120-byte records
    in chunks of 1,024, every slot of the last chunk counted). The figures
    are computed from container sizes, not RSS, so they are identical on
    every runner.

Usage: check_substrate_perf.py BENCH_substrate.json
           [--min-speedup=2.0] [--max-allocs-per-event=0.01]
Exit: 0 within floors, 1 floor violated, 2 usage/parse errors.
"""

import json
import sys

ROW_CEILINGS = {"memctrl_stream": 0.01, "noc_stream": 0.01, "machine_swim": 0.05,
                "machine_offload": 0.05, "lower_fig04": 0.0005, "lower_fig04_alg2": 0.002}
# (row, field): bytes per trace instruction, or per candidate for the records
FOOTPRINT_CEILINGS = {("machine_swim", "run_state_bytes_per_instr"): 20.0,
                      ("machine_swim", "trace_bytes_per_instr"): 16.0,
                      ("machine_offload", "trace_bytes_per_instr"): 16.0,
                      ("machine_swim", "record_bytes_per_candidate"): 124.0}


def main(argv):
    path = None
    min_speedup = 2.0
    max_allocs = 0.01
    for arg in argv[1:]:
        if arg.startswith("--min-speedup="):
            min_speedup = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-allocs-per-event="):
            max_allocs = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            path = arg
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_substrate_perf: cannot read {path}: {e}", file=sys.stderr)
        return 2

    benches = {b["name"]: b for b in report.get("benches", [])}
    if "calendar_chain" not in benches or "legacy_chain" not in benches:
        print("check_substrate_perf: report lacks calendar_chain/legacy_chain",
              file=sys.stderr)
        return 2

    speedup = report.get("speedup_vs_legacy", 0.0)
    allocs = benches["calendar_chain"]["allocs_per_event"]

    ok = True
    if speedup < min_speedup:
        print(f"FAIL speedup_vs_legacy = {speedup:.2f}x < floor {min_speedup:.2f}x",
              file=sys.stderr)
        ok = False
    else:
        print(f"ok   speedup_vs_legacy = {speedup:.2f}x (floor {min_speedup:.2f}x)")
    if allocs > max_allocs:
        print(f"FAIL calendar_chain allocs/event = {allocs:.6f} > "
              f"ceiling {max_allocs}", file=sys.stderr)
        ok = False
    else:
        print(f"ok   calendar_chain allocs/event = {allocs:.6f} "
              f"(ceiling {max_allocs})")

    for name, ceiling in sorted(ROW_CEILINGS.items()):
        if name not in benches:
            print(f"check_substrate_perf: report lacks {name}", file=sys.stderr)
            return 2
        row_allocs = benches[name]["allocs_per_event"]
        if row_allocs > ceiling:
            print(f"FAIL {name} allocs/event = {row_allocs:.6f} > ceiling {ceiling}",
                  file=sys.stderr)
            ok = False
        else:
            print(f"ok   {name} allocs/event = {row_allocs:.6f} (ceiling {ceiling})")

    for (name, field), ceiling in sorted(FOOTPRINT_CEILINGS.items()):
        footprint = benches.get(name, {}).get(field)
        if footprint is None:
            print(f"check_substrate_perf: report lacks {name} {field}", file=sys.stderr)
            return 2
        if footprint > ceiling:
            print(f"FAIL {name} {field} = {footprint:.2f} > ceiling {ceiling}",
                  file=sys.stderr)
            ok = False
        else:
            print(f"ok   {name} {field} = {footprint:.2f} (ceiling {ceiling})")

    for row in report.get("benches", []):
        print(f"     {row['name']:<24} {row['events_per_sec'] / 1e6:8.2f} Mev/s "
              f"{row['ns_per_event']:8.2f} ns/event "
              f"{row['allocs_per_event']:10.6f} allocs/event")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
