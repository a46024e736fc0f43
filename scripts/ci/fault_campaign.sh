#!/usr/bin/env bash
# CI job: run the seeded fault-injection campaign under a sanitizer build and
# keep the JSON report as an artifact. The campaign (psbtool faultcamp) sweeps
# >= 500 single-fault experiments across every registered fault site and exits
# nonzero if any fault crashes the serving path, trips a sanitizer, or yields
# a wrong answer without a degraded Status. It runs twice with the same seed
# and fails unless the two reports are byte-identical; at the default
# iteration count the report must also match bench/baselines/FAULTCAMP.json.
# Run locally exactly as CI does:
#
#   scripts/ci/fault_campaign.sh            # asan (default)
#   scripts/ci/fault_campaign.sh ubsan
#   ITERATIONS=2000 scripts/ci/fault_campaign.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

PRESET="${1:-asan}"
case "$PRESET" in
  asan|ubsan) ;;
  *)
    echo "usage: $0 [asan|ubsan]" >&2
    exit 2
    ;;
esac

DEFAULT_ITERATIONS=1000
ITERATIONS="${ITERATIONS:-$DEFAULT_ITERATIONS}"
ARTIFACTS="${ARTIFACTS:-ci-artifacts}"
mkdir -p "$ARTIFACTS"

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-$(nproc)}" --target psbtool

REPORT="$ARTIFACTS/FAULTCAMP_${PRESET}.json"
for out in "$REPORT" "$REPORT.rerun"; do
  "build-${PRESET}/tools/psbtool" faultcamp \
    --iterations "$ITERATIONS" \
    --workdir "build-${PRESET}" \
    --out "$out"
done
# The campaign is seeded and single-threaded: a second run must reproduce
# the report byte for byte.
cmp "$REPORT" "$REPORT.rerun"
rm "$REPORT.rerun"
if [ "$ITERATIONS" = "$DEFAULT_ITERATIONS" ]; then
  cmp "$REPORT" bench/baselines/FAULTCAMP.json
fi

echo "fault campaign (${PRESET}, ${ITERATIONS} iterations) passed and reproduced"
