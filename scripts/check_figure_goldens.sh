#!/usr/bin/env bash
# Bit-identity gate for the simulation substrate: every figure and table
# (ndc-sweep --figure=NAME) must print byte-for-byte the stdout recorded in
# tests/goldens/ (captured from the pre-calendar-queue seed tree at
# --scale=test). Any diff means a substrate change altered simulated
# behaviour, not just its speed. Each figure runs alone, and then all 13 run
# in one call, whose stdout must equal the goldens joined as ndc-sweep joins
# figures (an empty line between two): the figures of one call share one
# plan, and sharing must not change what any figure prints.
#
# Usage: check_figure_goldens.sh NDC_SWEEP [GOLDEN_DIR] [JOBS]
# Exit:  0 all identical, 1 at least one diff, 2 usage errors.
set -u

NDC_SWEEP="${1:?usage: check_figure_goldens.sh NDC_SWEEP [GOLDEN_DIR] [JOBS]}"
GOLDEN_DIR="${2:-$(dirname "$0")/../tests/goldens}"
JOBS="${3:-$(nproc)}"

[ -x "$NDC_SWEEP" ] || { echo "check_figure_goldens: $NDC_SWEEP not executable" >&2; exit 2; }
[ -d "$GOLDEN_DIR" ] || { echo "check_figure_goldens: $GOLDEN_DIR not a directory" >&2; exit 2; }

FIGURES="fig02 fig03 fig04 fig05 fig06 fig13 fig14 fig15 fig16 fig17 tab02 abl diag_congestion"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for f in $FIGURES; do
  golden="$GOLDEN_DIR/$f.scale-test.stdout"
  if [ ! -f "$golden" ]; then
    echo "check_figure_goldens: missing golden $golden" >&2
    fail=1
    continue
  fi
  # --jobs only parallelizes the plan; cell order (and thus stdout) is
  # spec-order regardless of worker count.
  if ! "$NDC_SWEEP" --figure="$f" --scale=test --jobs="$JOBS" \
      > "$tmp/$f.stdout" 2>/dev/null; then
    echo "FAIL  $f: ndc-sweep exited non-zero" >&2
    fail=1
    continue
  fi
  if diff -u "$golden" "$tmp/$f.stdout" > "$tmp/$f.diff"; then
    echo "ok    $f"
  else
    echo "FAIL  $f: stdout differs from golden" >&2
    sed -n '1,20p' "$tmp/$f.diff" >&2
    fail=1
  fi
done

# All 13 in one call, against the goldens joined in the same order.
args=()
first=1
for f in $FIGURES; do
  args+=("--figure=$f")
  [ "$first" -eq 1 ] || echo >> "$tmp/joined.golden"
  first=0
  cat "$GOLDEN_DIR/$f.scale-test.stdout" >> "$tmp/joined.golden" 2>/dev/null
done
if ! "$NDC_SWEEP" "${args[@]}" --scale=test --jobs="$JOBS" > "$tmp/joined.stdout" 2>/dev/null; then
  echo "FAIL  all 13 in one call: ndc-sweep exited non-zero" >&2
  fail=1
elif diff -u "$tmp/joined.golden" "$tmp/joined.stdout" > "$tmp/joined.diff"; then
  echo "ok    all 13 in one call"
else
  echo "FAIL  all 13 in one call: stdout differs from the joined goldens" >&2
  sed -n '1,20p' "$tmp/joined.diff" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_figure_goldens: FAILED (substrate output is not bit-identical)" >&2
  exit 1
fi
echo "check_figure_goldens: all figures bit-identical"
