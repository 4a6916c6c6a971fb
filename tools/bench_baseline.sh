#!/usr/bin/env sh
# Records the checked-in perf baselines.
#
# Default mode runs the BM_ConservativeRule / BM_ConservativeLegacy
# benchmarks (the incremental worklist driver and the legacy fixpoint
# driver under the four safety rules), the BM_ChordalCoalesce rows (the
# Theorem 5 driver under both chain rules) and the IRC throughput benches, and
# writes Google Benchmark JSON to BENCH_conservative.json at the repository
# root. The checked-in file is the reference for perf review: rerun this
# script on a quiet machine and diff real_time per benchmark; anything
# beyond noise (~5%) needs an explanation in the PR that regresses it. The
# Legacy/Rule pair at the same size also gives a machine-independent
# speedup ratio. Each benchmark runs three repetitions; the file keeps every
# repetition plus Google Benchmark's mean/median/stddev/cv aggregates, so
# compare medians and read the spread from the cv row.
#
# "scaling" mode runs the BM_Scale* group of bench_scaling (graph
# construction and the scalable heuristics at 65536 and 1048576 vertices on
# the arena-backed sparse representation) and writes BENCH_scaling.json.
# Those runs are single-iteration scaling records; judge them by the
# time-per-edge trend across the two sizes, not by microbenchmark noise.
#
# Both modes refuse to record a baseline from a stale build (sources newer
# than the benchmark binaries) unless RC_BENCH_ALLOW_STALE=1, refuse
# non-release CMake build types (Debug baselines measure the wrong code;
# override with RC_BENCH_ALLOW_DEBUG=1), require jq (no silent partial
# output), and only move validated JSON into place -- a failing bench run
# can never leave a truncated baseline behind. The CMake build type the
# run used is recorded as .context.rc_cmake_build_type in the output.
# (Google Benchmark's own library_build_type says "debug" even in release
# builds here, because the project strips -DNDEBUG to keep the paper's
# invariant assertions on — read rc_cmake_build_type instead.)
#
# Usage: tools/bench_baseline.sh [scaling] [build-dir] [output.json]
#   scaling         record the BM_Scale* baseline instead of the default
#   build-dir       defaults to ./build
#   output.json     defaults to ./BENCH_conservative.json
#                   (./BENCH_scaling.json in scaling mode)

set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)

MODE=conservative
if [ "${1:-}" = "scaling" ]; then
  MODE=scaling
  shift
fi

BUILD_DIR=${1:-"$ROOT/build"}
case "$MODE" in
  conservative)
    OUT=${2:-"$ROOT/BENCH_conservative.json"}
    BENCHES="bench_conservative bench_irc"
    ;;
  scaling)
    OUT=${2:-"$ROOT/BENCH_scaling.json"}
    BENCHES="bench_scaling"
    ;;
esac

fail() {
  echo "error: $*" >&2
  exit 1
}

# jq assembles the bench outputs into one file and validates the result;
# without it the old script silently wrote a partial baseline.
command -v jq > /dev/null 2>&1 || \
  fail "jq not found; it is required to assemble and validate $OUT"

for B in $BENCHES; do
  if [ ! -x "$BUILD_DIR/bench/$B" ]; then
    echo "error: $BUILD_DIR/bench/$B not found; build first:" >&2
    echo "  cmake -B \"$BUILD_DIR\" -S \"$ROOT\" && cmake --build \"$BUILD_DIR\" -j" >&2
    exit 1
  fi
done

# Detect the CMake build type. An empty CMAKE_BUILD_TYPE means the
# project default (RelWithDebInfo, see the top-level CMakeLists.txt).
BUILD_TYPE=""
if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                 "$BUILD_DIR/CMakeCache.txt" | head -n 1)
fi
[ -n "$BUILD_TYPE" ] || BUILD_TYPE=RelWithDebInfo

case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${RC_BENCH_ALLOW_DEBUG:-0}" != "1" ]; then
      echo "error: build type is $BUILD_TYPE; baselines must come from a" >&2
      echo "  Release or RelWithDebInfo build. Reconfigure with" >&2
      echo "  cmake -B \"$BUILD_DIR\" -DCMAKE_BUILD_TYPE=RelWithDebInfo," >&2
      echo "  or set RC_BENCH_ALLOW_DEBUG=1 to record anyway" >&2
      exit 1
    fi
    ;;
esac

# A baseline recorded from a binary older than the sources measures the
# wrong code. Override with RC_BENCH_ALLOW_STALE=1 if you know better.
if [ "${RC_BENCH_ALLOW_STALE:-0}" != "1" ]; then
  for B in $BENCHES; do
    STALE=$(find "$ROOT/src" "$ROOT/bench" -type f \
              \( -name '*.cpp' -o -name '*.h' \) \
              -newer "$BUILD_DIR/bench/$B" -print -quit)
    if [ -n "$STALE" ]; then
      echo "error: stale build: $STALE is newer than $BUILD_DIR/bench/$B" >&2
      echo "  rebuild first (cmake --build \"$BUILD_DIR\" -j)," >&2
      echo "  or set RC_BENCH_ALLOW_STALE=1 to record anyway" >&2
      exit 1
    fi
  done
fi

TMP=$(mktemp -d)
OUT_TMP="$OUT.tmp.$$"
trap 'rm -rf "$TMP" "$OUT_TMP"' EXIT

if [ "$MODE" = "conservative" ]; then
  "$BUILD_DIR/bench/bench_conservative" \
    --benchmark_filter='BM_Conservative(Rule|Legacy)|BM_ChordalCoalesce' \
    --benchmark_repetitions=3 \
    --benchmark_format=json \
    --benchmark_out="$TMP/conservative.json" \
    --benchmark_out_format=json

  "$BUILD_DIR/bench/bench_irc" \
    --benchmark_filter='BM_IrcThroughput' \
    --benchmark_repetitions=3 \
    --benchmark_format=json \
    --benchmark_out="$TMP/irc.json" \
    --benchmark_out_format=json

  for F in conservative irc; do
    jq empty "$TMP/$F.json" 2> /dev/null || \
      fail "bench output $TMP/$F.json is not valid JSON (crashed or truncated bench run?)"
  done

  # One file, one benchmarks array; keep the first context block.
  jq -s '.[0] * {benchmarks: (.[0].benchmarks + .[1].benchmarks)}' \
    "$TMP/conservative.json" "$TMP/irc.json" > "$OUT_TMP"
else
  "$BUILD_DIR/bench/bench_scaling" \
    --benchmark_filter='BM_Scale' \
    --benchmark_format=json \
    --benchmark_out="$TMP/scaling.json" \
    --benchmark_out_format=json

  jq empty "$TMP/scaling.json" 2> /dev/null || \
    fail "bench output $TMP/scaling.json is not valid JSON (crashed or truncated bench run?)"

  jq '.' "$TMP/scaling.json" > "$OUT_TMP"
fi

jq -e '.benchmarks | length > 0' "$OUT_TMP" > /dev/null || \
  fail "baseline has no benchmarks (bad --benchmark_filter?)"

# Stamp the build type the run actually used into the context block.
jq --arg bt "$BUILD_TYPE" '.context.rc_cmake_build_type = $bt' \
  "$OUT_TMP" > "$OUT_TMP.typed" && mv "$OUT_TMP.typed" "$OUT_TMP"

mv "$OUT_TMP" "$OUT"
echo "baseline written to $OUT"
