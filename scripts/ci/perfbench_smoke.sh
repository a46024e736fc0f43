#!/usr/bin/env bash
# CI job: smoke-run the repository benchmark (perfbench/). Builds it in
# Release mode, runs its bookkeeping tests, then runs every workload for 2 s
# with tracing off and fails unless the result line reports every sampled
# answer equal to the brute-force oracle ("correct": true, "failed": 0).
# Host throughput is not gated here; the point is that a hot-path change
# that breaks an answer cannot pass CI. A last traced stream-churn run fails
# if a reused StreamingEngine's second run() has a p50 above twice the fresh
# p50 (both on the virtual clock, so the check is deterministic).
#
#   scripts/ci/perfbench_smoke.sh
#   BUILD_ROOT=/tmp/pb scripts/ci/perfbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

BUILD_ROOT="$(realpath -m "${BUILD_ROOT:-build-ci-perfbench}")"
JOBS="${JOBS:-$(nproc)}"
SECONDS_PER_WORKLOAD="${SECONDS_PER_WORKLOAD:-2}"

# perfbench/run.py builds into $CARGO_TARGET_DIR/perfbench and reuses a
# configured tree, so the runs below do not rebuild.
export CARGO_TARGET_DIR="$BUILD_ROOT"
cmake -S perfbench -B "$BUILD_ROOT/perfbench" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_ROOT/perfbench" -j "$JOBS"

echo "== perfbench_logic_test =="
ctest --test-dir "$BUILD_ROOT/perfbench" --output-on-failure

for workload in batch-knn allknn-join stream-churn; do
  echo "== perfbench $workload (${SECONDS_PER_WORKLOAD} s) =="
  out="$BUILD_ROOT/$workload.out"
  python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds "$SECONDS_PER_WORKLOAD" --trace 0 >"$out"
  tail -n 1 "$out" | python3 -c '
import json, sys
name = sys.argv[1]
result = json.loads(sys.stdin.read())
ok, failed, attempted = result.get("correct"), result.get("failed"), result.get("attempted")
if ok is not True or failed != 0:
    sys.exit(f"perfbench {name}: correct={ok} failed={failed} of {attempted}")
print(f"perfbench {name}: {attempted} answers, all correct")
' "$workload"
done

echo "== perfbench stream-churn engine reuse (${SECONDS_PER_WORKLOAD} s, traced) =="
out="$BUILD_ROOT/stream-churn-traced.out"
python3 perfbench/run.py --workload stream-churn --seed 1 \
  --seconds "$SECONDS_PER_WORKLOAD" --trace 1 >"$out"
# A traced run prints the end-to-end metrics as "e2e <name> <value> <unit>"
# lines; its last line is the JSON of per-layer metrics.
python3 -c '
import json, sys
lines = open(sys.argv[1]).read().splitlines()
fresh = next(float(l.split()[2]) for l in lines if l.split()[:2] == ["e2e", "serve_p50_us"])
reuse = json.loads(lines[-1])["metrics"]["serve.reuse_p50_us"]["value"]
if reuse > 2 * fresh:
    sys.exit(f"perfbench stream-churn: reused-engine p50 {reuse:g} us"
             f" > 2x fresh p50 {fresh:g} us")
print(f"perfbench stream-churn: reused-engine p50 {reuse:g} us, fresh p50 {fresh:g} us")
' "$out"

echo "perfbench smoke passed"
