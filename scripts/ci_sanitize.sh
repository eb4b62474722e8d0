#!/usr/bin/env bash
# Builds and runs tests under a sanitizer.
#
#   address (default): ASan + UBSan over the full ctest suite (plus
#     ndc-lint, which is registered with ctest).
#   thread: TSan over the only threading in the program, the sweep's
#     ParallelFor threads — the harness tests (ParallelFor's own cases
#     included), the experiment tests (Experiment.ParallelSweepMatchesSerialSweep)
#     and three figures regenerated at --jobs=1 and --jobs=4, whose stdout
#     must be byte-identical. Concurrent cells of one kernel and
#     configuration share one metrics::Experiment, its lowered traces and
#     its profile runs: fig04's Oracle/Wait cells read its observe run,
#     abl's cells, which vary coarse_grain and allow_reroute, read its
#     baseline run, and smoke's groups need both profile runs while its
#     Baseline cells read the shared baseline.
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
    --target harness_test experiment_test ndc-sweep
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
  "$BUILD_DIR"/tests/experiment_test
  # Figures end-to-end through the sweep pool: stdout must not depend on
  # the worker count.
  for fig in fig04 abl smoke; do
    "$BUILD_DIR"/tools/ndc-sweep --figure="$fig" --scale=test --no-cache \
      --jobs=1 > "$BUILD_DIR/$fig-j1.txt" 2>/dev/null
    "$BUILD_DIR"/tools/ndc-sweep --figure="$fig" --scale=test --no-cache \
      --jobs=4 > "$BUILD_DIR/$fig-j4.txt" 2>/dev/null
    diff -u "$BUILD_DIR/$fig-j1.txt" "$BUILD_DIR/$fig-j4.txt"
  done
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
