#!/usr/bin/env bash
# CI job (weekly schedule, never on PRs): the large-scale bench over the
# 1M-reading noaa_synth workload — full query sweep across the pointer,
# snapshot, implicit and stackless-escape configurations plus the 1M-point
# Hilbert construction bench. PR CI keeps the cheap 6k-point gate; this run
# exists to catch scale-dependent drift (tree shape, arena placement,
# construction cost) and to publish the JSON as a workflow artifact for
# trend tracking. Numbers are simulator-derived and deterministic, so two
# runs of the same commit produce identical JSON.
#
#   scripts/ci/bench_large.sh                # artifacts in ci-artifacts/
#   POINTS=200000 scripts/ci/bench_large.sh  # reduced-scale local smoke
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_DIR="${BUILD_DIR:-build-ci-large}"
ARTIFACT_DIR="${ARTIFACT_DIR:-ci-artifacts}"
JOBS="${JOBS:-$(nproc)}"
POINTS="${POINTS:-1000000}"
QUERIES="${QUERIES:-512}"

cmake -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS" --target psbtool

mkdir -p "$ARTIFACT_DIR"
echo "== large-scale bench: ${POINTS} noaa readings, ${QUERIES} queries =="
time "$BUILD_DIR"/tools/psbtool bench --type noaa \
  --points "$POINTS" --queries "$QUERIES" --k 16 --degree 128 \
  --algos psb,branch_and_bound,stackless_skip \
  --variants base,snapshot,implicit \
  --construction-points "$POINTS" --construction-degree 128 \
  --construction-budget-ms 600000 \
  --out "$ARTIFACT_DIR"/BENCH_large_implicit.json

echo "bench written — artifacts staged in $ARTIFACT_DIR/"
ls -l "$ARTIFACT_DIR"
