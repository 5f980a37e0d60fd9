#!/usr/bin/env bash
# Bench trajectory driver: builds and runs every BENCH-json-emitting
# harness in bench/ and collects the BENCH_<name>.json timing files into
# the repo root, where they are committed so the performance trajectory
# of each bench is tracked across revisions.
#
# Usage: tools/bench.sh [filter-regex]
#   tools/bench.sh            # run everything (a few minutes at defaults)
#   tools/bench.sh 'fig5|attribution'
#
# Scale knobs pass through to the harnesses: TLS_BENCH_ITERS (default 60),
# TLS_BENCH_SEED, TLS_BENCH_JOBS.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
filter=${1:-.}

run() { echo; echo ">>> $*"; "$@"; }

[ -d build ] || run cmake --preset default
run cmake --build build -j"$(nproc)" --target \
  $(ls bench/bench_*.cpp | sed -e 's|bench/||' -e 's|\.cpp$||')

status=0
for bin in build/bench/bench_*; do
  name=$(basename "$bin")
  echo "$name" | grep -Eq "$filter" || continue
  if ! run env TLS_BENCH_JSON_DIR="$root" "$bin"; then
    echo "FAILED: $name" >&2
    status=1
  fi
done

echo
echo "timing files:"
ls -l "$root"/BENCH_*.json
exit $status
