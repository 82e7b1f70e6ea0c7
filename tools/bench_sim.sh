#!/usr/bin/env bash
# Runs the archive-scale simulation benchmark (bench/archive_campaign) and
# snapshots the numbers into BENCH_sim.json at the repo root, so substrate
# regressions show up as a diff: a year-long streaming campaign (~105k
# granules), substrate scaling to 10^6 jobs/flows, and (--churn) the churn
# speedups of SharedResource and FlowLink over the O(n)-per-event oracles in
# tests/sim_oracle.hpp (DESIGN.md §9).
#
# The build is forced to Release and the snapshot is refused unless the
# document's own context stamp says "Release" — same guard as
# tools/bench_kernels.sh. The stamp also records the compiler, nproc and
# cpus_allowed.
#
# The campaign is single-threaded, and unpinned its wall time follows the
# scheduler as much as the code, so archive_campaign runs under taskset on
# the first CPU of this script's own affinity (cpus_allowed then reads 1).
# Without taskset it runs unpinned, with a warning.
#
# Usage: tools/bench_sim.sh [build-dir] [out-json] [extra archive_campaign args]
#        (defaults: build-perf, BENCH_sim.json; pass --quick for a CI-sized
#        run)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"
out_json="${2:-"${repo_root}/BENCH_sim.json"}"
shift $(( $# > 2 ? 2 : $# ))

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target archive_campaign

pin=()
if command -v taskset > /dev/null; then
  first_cpu="$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')"
  pin=(taskset -c "${first_cpu}")
else
  echo "WARNING: taskset not found; running archive_campaign unpinned" >&2
fi
"${pin[@]}" "${build_dir}/bench/archive_campaign" --churn --out "${out_json}" \
  "$@"

build_type="$(grep -o '"build_type": "[^"]*"' "${out_json}" |
              head -1 | cut -d'"' -f4)"
if [[ "${build_type}" != "Release" ]]; then
  rm -f "${out_json}"
  echo "FAIL: archive_campaign was built as '${build_type:-unknown}', not" \
       "Release — snapshot refused" >&2
  exit 1
fi

echo "wrote ${out_json}"
