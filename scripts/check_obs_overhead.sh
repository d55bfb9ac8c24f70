#!/usr/bin/env bash
# Enforce the observability overhead-when-off budget: an NDC_OBS=ON binary
# with no Observability attached (the runtime-off default) must run the
# smoke sweep within THRESHOLD_PCT of an NDC_OBS=OFF binary. Takes the
# minimum of N timed runs per binary to suppress scheduler noise.
#
# The runtime-off path includes every hot-path branch observability has
# grown — request tracing and the NDC decision log — so the budget
# re-proves itself as instrumentation accrues.
#
# Usage: check_obs_overhead.sh SWEEP_ON SWEEP_OFF [RUNS] [THRESHOLD_PCT]
# Exit:  0 within budget, 1 over budget, 2 usage/build errors.
set -u

SWEEP_ON="${1:?usage: check_obs_overhead.sh SWEEP_ON SWEEP_OFF [RUNS] [THRESHOLD_PCT]}"
SWEEP_OFF="${2:?usage: check_obs_overhead.sh SWEEP_ON SWEEP_OFF [RUNS] [THRESHOLD_PCT]}"
RUNS="${3:-5}"
THRESHOLD_PCT="${4:-2}"

[ -x "$SWEEP_ON" ] || { echo "check_obs_overhead: $SWEEP_ON not executable" >&2; exit 2; }
[ -x "$SWEEP_OFF" ] || { echo "check_obs_overhead: $SWEEP_OFF not executable" >&2; exit 2; }

# Min-of-N wall-clock (ms) for one binary, cache disabled so every run
# simulates the full grid.
min_ms() {
  local bin="$1" best= i t0 t1 ms
  for i in $(seq 1 "$RUNS"); do
    t0=$(date +%s%N)
    "$bin" --figure=smoke --scale=test --jobs=1 --no-cache >/dev/null 2>&1 || {
      echo "check_obs_overhead: $bin failed" >&2; exit 2; }
    t1=$(date +%s%N)
    ms=$(( (t1 - t0) / 1000000 ))
    if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
  done
  echo "$best"
}

on_ms=$(min_ms "$SWEEP_ON") || exit 2
off_ms=$(min_ms "$SWEEP_OFF") || exit 2

if [ "$off_ms" -eq 0 ]; then
  echo "check_obs_overhead: off-build run too fast to measure; passing" >&2
  exit 0
fi

# Integer percent overhead, rounded up so a borderline regression fails.
overhead_pct=$(( (on_ms - off_ms) * 100 / off_ms ))
echo "check_obs_overhead: obs-on(runtime-off)=${on_ms}ms obs-off-build=${off_ms}ms" \
     "overhead=${overhead_pct}% (budget ${THRESHOLD_PCT}%, min of ${RUNS} runs)"

if [ "$overhead_pct" -gt "$THRESHOLD_PCT" ]; then
  echo "check_obs_overhead: FAIL: overhead exceeds ${THRESHOLD_PCT}% budget" >&2
  exit 1
fi
echo "check_obs_overhead: OK"
