#!/usr/bin/env bash
# CI job: smoke-run the repository benchmark (perfbench/). Builds it in
# Release mode, runs its bookkeeping tests, then runs every workload for 2 s
# with tracing off and fails unless the result line reports every sampled
# answer equal to the brute-force oracle ("correct": true, "failed": 0).
# Host throughput is not gated here; the point is that a hot-path change
# that breaks an answer cannot pass CI.
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

echo "perfbench smoke passed"
