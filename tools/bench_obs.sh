#!/usr/bin/env bash
# Runs the obs recording-overhead microbenchmark (bench/micro_obs) and
# snapshots the numbers into BENCH_obs.json at the repo root, so telemetry
# regressions (gate cost, full-retention path, stats+rollup path, metric
# series updates) show up as a diff (DESIGN.md §10).
#
# The build is forced to Release and the snapshot is refused unless the
# document's own context stamp says "Release" — same guard as
# tools/bench_kernels.sh. The stamp also records the compiler and nproc.
#
# Usage: tools/bench_obs.sh [build-dir] [out-json] [extra micro_obs args]
#        (defaults: build-perf, BENCH_obs.json)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"
out_json="${2:-"${repo_root}/BENCH_obs.json"}"
shift $(( $# > 2 ? 2 : $# ))

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target micro_obs

"${build_dir}/bench/micro_obs" --out "${out_json}" "$@"

build_type="$(grep -o '"build_type": "[^"]*"' "${out_json}" |
              head -1 | cut -d'"' -f4)"
if [[ "${build_type}" != "Release" ]]; then
  rm -f "${out_json}"
  echo "FAIL: micro_obs was built as '${build_type:-unknown}', not" \
       "Release — snapshot refused" >&2
  exit 1
fi

echo "wrote ${out_json}"
