#!/usr/bin/env python3
"""Validate an ndc-trace JSON file against the Chrome trace-event schema.

Checks the subset of the spec that chrome://tracing and Perfetto actually
require to load a file: a top-level "traceEvents" array (non-empty), and on
every event the keys ph/ts/pid/tid/name with sane types; 'X' events must
also carry a numeric "dur". On top of the generic schema it validates the
simulator's own instant-event vocabulary: every 'i' event named "ndc.*"
must be one of the names the runtime actually emits, carrying its required
numeric args ("ndc.meet"/"ndc.offload" need "loc") —
a renamed event or a dropped arg fails instead of passing silently. Exits 0
when valid, 1 otherwise, 2 on usage errors. Stdlib only — runs anywhere CI
has a python3.

Usage: validate_trace.py TRACE.json
"""

import json
import sys

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

# The complete instant vocabulary of ndc::runtime::Machine (grep
# 'sink.Instant' under src/), mapped to the numeric args each emission
# site always supplies. An 'i' event with an "ndc." name outside this dict
# is a vocabulary drift — the tooling reading these traces keys on exact
# names, so drift must fail loudly here rather than downstream.
NDC_INSTANTS = {
    "ndc.meet": ("loc",),       # operands met; computed near data
    "ndc.offload": ("loc",),    # offload decision (loc = planned arch::Loc)
    "ndc.abort": (),            # wait aborted (timeout / partner done)
    "ndc.fallback": (),         # offloaded pair completed conventionally
}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: {e}")

    if not isinstance(doc, dict):
        return fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail('missing "traceEvents" array')
    if not events:
        return fail('"traceEvents" is empty')

    phases = {}
    ndc_instants = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            return fail(f"event {i} is not an object")
        for key in REQUIRED_KEYS:
            if key not in e:
                return fail(f"event {i} missing required key '{key}'")
        if not isinstance(e["ph"], str) or len(e["ph"]) != 1:
            return fail(f"event {i}: 'ph' must be a single-character string")
        for key in ("ts", "pid", "tid"):
            if not isinstance(e[key], (int, float)):
                return fail(f"event {i}: '{key}' must be numeric")
        if not isinstance(e["name"], str) or not e["name"]:
            return fail(f"event {i}: 'name' must be a non-empty string")
        if e["ph"] == "X" and not isinstance(e.get("dur"), (int, float)):
            return fail(f"event {i}: 'X' event missing numeric 'dur'")
        args = e.get("args")
        if args is not None and not isinstance(args, dict):
            return fail(f"event {i}: 'args' must be an object")
        if e["ph"] == "i" and e["name"].startswith("ndc."):
            name = e["name"]
            if name not in NDC_INSTANTS:
                return fail(
                    f"event {i}: unknown ndc instant '{name}' "
                    f"(known: {' '.join(sorted(NDC_INSTANTS))})"
                )
            for req in NDC_INSTANTS[name]:
                val = (args or {}).get(req)
                if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                    return fail(
                        f"event {i}: '{name}' requires non-negative integer "
                        f"arg '{req}', got {val!r}"
                    )
            ndc_instants[name] = ndc_instants.get(name, 0) + 1
        phases[e["ph"]] = phases.get(e["ph"], 0) + 1

    counts = " ".join(f"{ph}={n}" for ph, n in sorted(phases.items()))
    ndc = " ".join(f"{n}={c}" for n, c in sorted(ndc_instants.items()))
    suffix = f"; ndc instants: {ndc}" if ndc else ""
    print(f"validate_trace: OK: {len(events)} events ({counts}){suffix}")
    return 0


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return validate(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
