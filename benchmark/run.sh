#!/usr/bin/env bash
# The repo's yardstick. Builds the benchmark package in release mode, then:
#
#   benchmark/run.sh [--seed S] [--reps N]   every workload, every end-to-end
#                                            metric, answers checked; writes
#                                            benchmark/out/results.json
#   benchmark/run.sh --trace                 the separate traced run: per-layer
#                                            metrics, benchmark/out/trace.jsonl
#                                            and benchmark/out/layers.json
#   benchmark/run.sh --smoke                 one small rep per workload (< 15 s)
#   benchmark/run.sh --check A.json B.json   compare two result files against
#                                            the bounds (see check.py)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                            one workload, as BENCHMARK.json's
#                                            driver runs it: the last line of
#                                            stdout is one JSON object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ "${1:-}" == "--check" ]]; then
    shift
    exec python3 "$here/check.py" "$root/BENCHMARK.json" "$@"
fi

# The package path-depends on ../crates and ../vendor: in a directory that
# holds only the benchmark there is nothing to measure, and the build fails.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The binary starts no process of its own; what it cannot see is handed over.
export YARDSTICK_RUSTC="$(rustc -V 2>/dev/null || true)"
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
    export YARDSTICK_GIT_REV="$(git -C "$root" rev-parse HEAD)"
    if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
        export YARDSTICK_GIT_DIRTY=true
    else
        export YARDSTICK_GIT_DIRTY=false
    fi
fi

exec "$CARGO_TARGET_DIR/release/yardstick" "$@"
