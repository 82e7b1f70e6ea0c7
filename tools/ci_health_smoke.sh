#!/usr/bin/env bash
# CI health smoke gate for the live-watch layer (mfw::obs watch, DESIGN.md
# §12). Five checks on a Release build:
#
#   1. Zero perturbation: the fig6 barrier and streaming runs through
#      `mfwctl watch` (bus + monitor attached, spans streaming) must produce
#      timeline CSVs with the SAME sha256 that tools/ci_spec_smoke.sh checks
#      for `mfwctl run`, both read from tools/baselines/fig6_csv.sha256.
#      Observation must not change the simulation — any drift here means the
#      watch layer perturbed the paper run.
#   2. Schema: the --health-out stream carries the mfw.health/v1 schema with
#      its rules/alerts/stages sections.
#   3. Clean gate: a healthy run with no SLO section raises zero alerts —
#      the engine does not cry wolf.
#   4. Chaos gate: starving preprocess (1 node x 4 workers) under a declared
#      queue-wait SLO must raise a firing alert attributed to "queue-wait",
#      and the alert must surface in the JSON stream as well as on stdout.
#   5. Flag validation: `mfwctl watch` rejects unknown flags with usage on
#      stderr and exit code 2.
#
# Usage: tools/ci_health_smoke.sh [build-dir]   (default: build-perf, shared
#        with the perf/spec smokes so CI reuses one Release tree)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"

pins="${repo_root}/tools/baselines/fig6_csv.sha256"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target mfwctl

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
mfwctl="${build_dir}/tools/mfwctl"

# -- 1 + 2 + 3. watched fig6 runs: bit-for-bit the seed, schema'd, quiet ----
fig6="${repo_root}/tools/baselines/fig6.yaml"
clean_out="$("${mfwctl}" watch "${fig6}" --quiet \
    --csv "${workdir}/fig6.csv" --health-out "${workdir}/clean.json")"
"${mfwctl}" watch "${repo_root}/tools/baselines/fig6_streaming.yaml" --quiet \
    --csv "${workdir}/fig6_streaming.csv" > /dev/null
if ! (cd "${workdir}" && sha256sum --check --quiet "${pins}"); then
  echo "FAIL: watch-enabled fig6 CSVs drifted from the unwatched pins in ${pins}" >&2
  (cd "${workdir}" && sha256sum fig6.csv fig6_streaming.csv) >&2
  exit 1
fi
echo "OK: watched fig6 barrier and streaming runs match ${pins##*/}"

if ! grep -q '"schema": "mfw.health/v1"' "${workdir}/clean.json"; then
  echo "FAIL: --health-out is missing the mfw.health/v1 schema" >&2
  cat "${workdir}/clean.json" >&2
  exit 1
fi
for section in '"rules"' '"alerts"' '"stages"' '"dropped_events"'; do
  if ! grep -q "${section}:" "${workdir}/clean.json"; then
    echo "FAIL: --health-out is missing the ${section} section" >&2
    exit 1
  fi
done
echo "OK: health stream carries mfw.health/v1 with rules/alerts/stages"

clean_alerts="$(grep -c '^alert ' <<< "${clean_out}" || true)"
if [[ "${clean_alerts}" -ne 0 ]]; then
  echo "FAIL: clean run raised ${clean_alerts} alert(s), expected 0" >&2
  grep '^alert ' <<< "${clean_out}" >&2
  exit 1
fi
echo "OK: clean run raises zero alerts"

# -- 4. chaos gate: starved stage under a declared SLO must fire ------------
cat > "${workdir}/chaos.yaml" <<'EOF'
workflow:
  max_files: 24
preprocess:
  nodes: 1
  workers_per_node: 4
slo:
  - name: pp-queue
    stage: preprocess
    metric: queue_wait_p99
    threshold: 5
    window: 120
EOF
chaos_out="$("${mfwctl}" watch "${workdir}/chaos.yaml" --quiet \
    --health-out "${workdir}/chaos.json")"
if ! grep -q '^alert firing  *rule=pp-queue .*cause=queue-wait' \
    <<< "${chaos_out}"; then
  echo "FAIL: starved preprocess did not fire pp-queue with cause=queue-wait" >&2
  echo "${chaos_out}" >&2
  exit 1
fi
if ! grep -q '"state": "firing"' "${workdir}/chaos.json"; then
  echo "FAIL: chaos health stream has no firing alert" >&2
  cat "${workdir}/chaos.json" >&2
  exit 1
fi
if ! grep -q '"cause": "queue-wait"' "${workdir}/chaos.json"; then
  echo "FAIL: chaos health stream lost the queue-wait attribution" >&2
  exit 1
fi
echo "OK: injected queue pressure fires pp-queue with cause=queue-wait"

# -- 5. flag validation ------------------------------------------------------
set +e
reject_out="$("${mfwctl}" watch "${fig6}" --bogus 2>&1)"
rc=$?
set -e
if [[ ${rc} -ne 2 ]]; then
  echo "FAIL: mfwctl watch --bogus exited ${rc}, expected 2" >&2
  exit 1
fi
if ! grep -q "unknown flag '--bogus' for command 'watch'" <<< "${reject_out}"; then
  echo "FAIL: mfwctl watch --bogus did not name the bad flag" >&2
  echo "${reject_out}" >&2
  exit 1
fi
echo "OK: watch rejects unknown flags with usage + exit 2"

echo "health smoke: all gates passed"
