#!/usr/bin/env bash
# CI job: the deterministic perf-regression gate (tier2) plus artifact
# collection. Produces fresh bench JSONs in-tree-of-build, diffs them against
# bench/baselines/ with zero tolerance on every simulator counter, and stages
# the JSONs together with a PSB query-trace CSV under $ARTIFACT_DIR for the
# workflow's upload step.
#
#   scripts/ci/bench_gate.sh                 # artifacts in ci-artifacts/
#   ARTIFACT_DIR=/tmp/a scripts/ci/bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR="${BUILD_DIR:-build-ci-gate}"
ARTIFACT_DIR="${ARTIFACT_DIR:-ci-artifacts}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== perf-regression gate (tier2) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L tier2

mkdir -p "$ARTIFACT_DIR"
cp "$BUILD_DIR"/tools/BENCH_gate_small.json "$ARTIFACT_DIR"/
cp "$BUILD_DIR"/tools/BENCH_gate_noaa.json "$ARTIFACT_DIR"/
cp "$BUILD_DIR"/tools/BENCH_gate_implicit.json "$ARTIFACT_DIR"/
cp "$BUILD_DIR"/tools/BENCH_gate_stream.json "$ARTIFACT_DIR"/
cp "$BUILD_DIR"/tools/BENCH_gate_replica.json "$ARTIFACT_DIR"/
cp "$BUILD_DIR"/tools/BENCH_gate_join.json "$ARTIFACT_DIR"/

# A small end-to-end traced run so reviewers can diff per-query behavior
# without rebuilding: PSB over the snapshot+reorder engine path.
"$BUILD_DIR"/tools/psbtool generate --type noaa --out "$ARTIFACT_DIR"/noaa.psb
"$BUILD_DIR"/tools/psbtool build --data "$ARTIFACT_DIR"/noaa.psb \
  --out "$ARTIFACT_DIR"/noaa.psbt --builder kmeans --degree 64
"$BUILD_DIR"/tools/psbtool query --data "$ARTIFACT_DIR"/noaa.psb \
  --index "$ARTIFACT_DIR"/noaa.psbt --k 16 --num-queries 64 \
  --algo psb --snapshot 1 --reorder 1 \
  --trace-csv "$ARTIFACT_DIR"/psb_noaa_trace.csv
rm -f "$ARTIFACT_DIR"/noaa.psb "$ARTIFACT_DIR"/noaa.psbt

echo "gate passed — artifacts staged in $ARTIFACT_DIR/"
ls -l "$ARTIFACT_DIR"
