#!/usr/bin/env bash
# Runs the serving-layer load benchmark (bench/serve_load) and snapshots the
# numbers into BENCH_serve.json at the repo root, so serving regressions show
# up as a diff: closed-loop QPS across shard counts x reader threads,
# cache-hit-rate curves across result-cache capacities, and base-vs-flash
# tail latency for an open-loop Zipf + flash-crowd population of >= 1M
# simulated users (DESIGN.md §14).
#
# The build is forced to Release and the snapshot is refused unless the
# document's own context stamp says "Release" — same guard as
# tools/bench_kernels.sh, for the same reason (a debug-built snapshot is not
# comparable and poisons the perf trajectory). The stamp also records the
# compiler, nproc and cpus_allowed, as BENCH_sim.json's does.
#
# Usage: tools/bench_serve.sh [build-dir] [out-json] [extra serve_load args]
#        (defaults: build-perf, BENCH_serve.json; pass --quick for a
#        CI-sized run)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"
out_json="${2:-"${repo_root}/BENCH_serve.json"}"
shift $(( $# > 2 ? 2 : $# ))

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target serve_load

"${build_dir}/bench/serve_load" --out "${out_json}" "$@"

build_type="$(grep -o '"build_type": "[^"]*"' "${out_json}" |
              head -1 | cut -d'"' -f4)"
if [[ "${build_type}" != "Release" ]]; then
  rm -f "${out_json}"
  echo "FAIL: serve_load was built as '${build_type:-unknown}', not" \
       "Release — snapshot refused" >&2
  exit 1
fi

echo "wrote ${out_json}"
