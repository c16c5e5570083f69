#!/usr/bin/env bash
# Runs the full benchmark twice back to back on this commit and checks that
# the two sets of results agree within the benchmark's own bounds, and that
# the deterministic metrics are bit-identical.
#
#   benchmark/agree.sh [--seed S] [--reps N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

"$here/run.sh" "$@" --out "$out/agree-a"
"$here/run.sh" "$@" --out "$out/agree-b"
"$here/run.sh" --check "$out/agree-a/results.json" "$out/agree-b/results.json" --same-commit
