#!/usr/bin/env bash
# Builds and runs tests under a sanitizer.
#
#   address (default): ASan + UBSan over the full ctest suite (plus
#     ndc-lint, which is registered with ctest).
#   thread: TSan over the sweep worker pool — the harness tests (plan
#     scheduler, shared-profile sweeps) and ndc-sweep fig04 on 4 sweep
#     workers sharing profiles, diffed against its golden.
#
# Usage: scripts/ci_sanitize.sh [address|thread] [build-dir]
#        (default build-dir: build-sanitize for address, build-tsan for thread)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-address}"
case "$MODE" in
  address) BUILD_DIR="${2:-build-sanitize}" ;;
  thread)  BUILD_DIR="${2:-build-tsan}" ;;
  *)
    # Back-compat: a lone non-mode argument is an address-mode build dir.
    BUILD_DIR="$MODE"
    MODE="address"
    ;;
esac

SANITIZE_VALUE="ON"
if [ "$MODE" = "thread" ]; then SANITIZE_VALUE="thread"; fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNDC_SANITIZE="$SANITIZE_VALUE" \
  -DNDC_WERROR=ON
if [ "$MODE" = "thread" ]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target harness_test ndc-sweep
else
  cmake --build "$BUILD_DIR" -j "$(nproc)"
fi

# halt_on_error makes sanitizer findings fail the run instead of printing
# and continuing.
export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

if [ "$MODE" = "thread" ]; then
  "$BUILD_DIR"/tests/harness_test
  # Shared profiles across 4 sweep workers, end to end: stdout must match
  # the sequential golden byte for byte.
  "$BUILD_DIR"/tools/ndc-sweep --figure=fig04 --scale=test --no-cache \
    --jobs=4 > "$BUILD_DIR/fig04-j4.txt" 2>/dev/null
  diff -u tests/goldens/fig04.scale-test.stdout "$BUILD_DIR/fig04-j4.txt"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
