#!/usr/bin/env bash
# CI job: build one sanitizer preset and run the `sanitize`-labelled smoke
# subset under it (the whole `tier1` label under tsan, which guards the
# engines' num_threads paths). Mirrors the workflow's sanitize matrix; run
# locally as:
#
#   scripts/ci/sanitize.sh asan
#   scripts/ci/sanitize.sh ubsan
#   scripts/ci/sanitize.sh tsan
set -euo pipefail
cd "$(dirname "$0")/../.."

PRESET="${1:-asan}"
case "$PRESET" in
  asan|ubsan) TEST_PRESET="${PRESET}-smoke" ;;
  tsan) TEST_PRESET="tsan-tier1" ;;
  *)
    echo "usage: $0 asan|ubsan|tsan" >&2
    exit 2
    ;;
esac

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-$(nproc)}"
ctest --preset "$TEST_PRESET"
