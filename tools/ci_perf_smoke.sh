#!/usr/bin/env bash
# CI perf smoke gate, the companion to tools/ci_sanitize.sh (sanitizers catch
# lifetime bugs; this catches determinism drift and complexity regressions in
# the simulation substrate). Four checks on a Release build:
#
#   1. Differential gate: `mfwctl report --json` on the fig6 barrier and
#      streaming configs is diffed against the committed baseline reports
#      (tools/baselines/, recorded at barrier 519.53 s / streaming 493.01 s)
#      with `mfwctl diff --gate`. A regression beyond noise fails the gate
#      *and names the stage that caused it* — this replaces the old raw
#      makespan string match, which could only say "drifted". After an
#      intentional perf change, refresh the baselines with:
#        build-perf/tools/mfwctl report tools/baselines/fig6.yaml \
#          --json --quiet > tools/baselines/fig6_barrier_report.json
#      (and likewise for fig6_streaming.yaml).
#   2. A trimmed archive_campaign (--quick) simulates exactly the committed
#      tools/baselines/campaign_quick.json: days, granules, tiles, shipped
#      files, virtual makespan, events and compactions (wall time is not
#      compared). It still clears the substrate speedup floors vs the
#      O(n)-per-event oracles in tests/sim_oracle.hpp: >= 10x on
#      SharedResource churn, >= 5x on FlowLink churn. A regression to
#      O(n)-per-event behaviour fails this immediately. After an intended
#      change to the campaign's outputs, copy the new "campaign" block of
#      build-perf/BENCH_sim_smoke.json, without wall_s, into the baseline.
#   3. The substrate micro benchmarks run, BM_Crc32's folding kernel and
#      table loop, BM_NoiseFbm's octave-lane kernel and
#      BM_GranuleMaterialize's one-pass synthesis of a whole granule's
#      MOD02/MOD03/MOD06 included (a crash/assert gate with no thresholds;
#      EXPERIMENTS.md records their numbers).
#   4. Benches reject arguments they do not take: fig4_strong_scaling
#      (argument-free) and serve_load (flagged) both exit 2 on --help
#      instead of running, and malformed flag values exit 2 as well:
#      archive_campaign --days 1x, fig6_timeline --max-files 3x,
#      micro_obs --spans -5 and fig1_swath --encode-path bogus.
#
# Usage: tools/ci_perf_smoke.sh [build-dir]   (default: build-perf)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target \
      mfwctl archive_campaign micro_substrates fig4_strong_scaling serve_load \
      fig6_timeline micro_obs fig1_swath

# -- 1. differential gate: mfwctl diff vs committed baselines ----------------
mfwctl="${build_dir}/tools/mfwctl"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

for mode in barrier streaming; do
  if [[ "${mode}" == "barrier" ]]; then
    config="${repo_root}/tools/baselines/fig6.yaml"
  else
    config="${repo_root}/tools/baselines/fig6_streaming.yaml"
  fi
  baseline="${repo_root}/tools/baselines/fig6_${mode}_report.json"
  current="${workdir}/fig6_${mode}_report.json"
  "${mfwctl}" report "${config}" --json --quiet > "${current}"
  if ! "${mfwctl}" diff "${baseline}" "${current}" --gate; then
    echo "FAIL: fig6 ${mode} run regressed vs ${baseline}" \
         "(see the ranked attribution above)" >&2
    exit 1
  fi
done
echo "OK: fig6 runs diff clean against the committed baselines"

# -- 2. quick campaign outputs and substrate speedup floors -------------------
smoke_json="${build_dir}/BENCH_sim_smoke.json"
"${build_dir}/bench/archive_campaign" --quick --out "${smoke_json}"

campaign_field() {  # campaign_field <field> <json>; empty when absent
  { grep -o '"campaign": {[^}]*}' "${2}" | grep -o "\"${1}\": [^,}]*" |
      head -1 | awk '{print $2}'; } || true
}
campaign_baseline="${repo_root}/tools/baselines/campaign_quick.json"
for field in days granules tiles shipped_files virtual_makespan_s events \
             compactions; do
  want="$(campaign_field "${field}" "${campaign_baseline}")"
  got="$(campaign_field "${field}" "${smoke_json}")"
  if [[ -z "${want}" || "${got}" != "${want}" ]]; then
    echo "FAIL: quick campaign ${field} is '${got}', baseline '${want}'" \
         "(${campaign_baseline})" >&2
    exit 1
  fi
done
echo "OK: quick campaign outputs match ${campaign_baseline}"

speedup_of() {  # speedup_of <resource|link> <json>
  grep -o "\"${1}\": {\"fast\".*" "${2}" | grep -o '"speedup": [0-9.]*' |
    head -1 | awk '{print $2}'
}
resource_speedup="$(speedup_of resource "${smoke_json}")"
link_speedup="$(speedup_of link "${smoke_json}")"
echo "resource churn speedup: ${resource_speedup}x (floor 10x)"
echo "link churn speedup:     ${link_speedup}x (floor 5x)"
awk -v r="${resource_speedup}" -v l="${link_speedup}" \
    'BEGIN { exit !(r >= 10.0 && l >= 5.0) }' || {
  echo "FAIL: substrate churn speedup below floor" >&2
  exit 1
}
echo "OK: substrate speedups clear the floors"

# -- 3. micro benchmarks run clean -------------------------------------------
"${build_dir}/bench/micro_substrates" \
  --benchmark_filter='BM_(EngineScheduleRun|SharedResourceChurn|FlowLinkChurn|NoiseFbm|GranuleStats|GranuleMaterialize|Crc32)' \
  --benchmark_min_time=0.05

# -- 4. benches reject arguments they do not take -----------------------------
for args in "fig4_strong_scaling --help" "serve_load --help" \
            "archive_campaign --days 1x" "fig6_timeline --max-files 3x" \
            "micro_obs --spans -5" "fig1_swath --encode-path bogus"; do
  read -r bench flags <<< "${args}"
  status=0
  # shellcheck disable=SC2086  # flags splits into the flag and its value
  "${build_dir}/bench/${bench}" ${flags} > /dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL: ${args} exited ${status}, expected 2" >&2
    exit 1
  fi
  echo "OK: ${args} is rejected"
done

echo "perf smoke: all gates passed"
