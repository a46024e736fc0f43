#!/usr/bin/env bash
# CI job: run the seeded multi-fault chaos campaign under a sanitizer build
# and keep the JSON report as an artifact. The campaign (psbtool chaoscamp)
# arms 2-3 simultaneous fault sites per iteration across >= 600 seeded
# iterations — replicated hedged serving over every harness (snapshot,
# implicit, sharded) — and exits nonzero if any query is answered wrong
# without a degraded Status, any armed-but-fired fault is unaccounted, or a
# site never rotates into the mix. At the default iteration count the report
# must also match bench/baselines/CHAOSCAMP.json. Run locally exactly as CI
# does:
#
#   scripts/ci/chaos_campaign.sh            # asan (default)
#   scripts/ci/chaos_campaign.sh ubsan
#   ITERATIONS=1300 scripts/ci/chaos_campaign.sh
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

DEFAULT_ITERATIONS=650
ITERATIONS="${ITERATIONS:-$DEFAULT_ITERATIONS}"
ARTIFACTS="${ARTIFACTS:-ci-artifacts}"
mkdir -p "$ARTIFACTS"

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-$(nproc)}" --target psbtool

REPORT="$ARTIFACTS/CHAOSCAMP_${PRESET}.json"
"build-${PRESET}/tools/psbtool" chaoscamp \
  --iterations "$ITERATIONS" \
  --workdir "build-${PRESET}" \
  --out "$REPORT"
if [ "$ITERATIONS" = "$DEFAULT_ITERATIONS" ]; then
  cmp "$REPORT" bench/baselines/CHAOSCAMP.json
fi

echo "chaos campaign (${PRESET}, ${ITERATIONS} iterations) passed"
