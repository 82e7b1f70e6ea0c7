#!/usr/bin/env bash
# CI spec smoke gate, the companion to tools/ci_perf_smoke.sh for the
# declarative-workflow layer (mfw::spec). Four checks on a Release build:
#
#   1. The refactored pipeline is bit-for-bit the seed pipeline: the fig6
#      barrier and streaming runs (tools/baselines/fig6*.yaml) through
#      `mfwctl run` must produce CSVs with the sha256 pinned in
#      tools/baselines/fig6_csv.sha256. EomlWorkflow routes its scheduling
#      mode through the compiled builtin spec, and in streaming mode the
#      granule.ready events drive preprocessing, so any drift here means the
#      spec compiler or the dataflow layer changed the paper run.
#   2. `mfwctl plan --builtin` compiles the builtin paper spec and prints the
#      five pipeline stages in topological order.
#   3. Per-command flag validation: plan/sweep reject unknown flags with
#      usage on stderr and exit code 2 (not a crash, not silence).
#   4. A 2-policy mini-sweep (`policy_sweep --quick`) emits BENCH_policies
#      JSON carrying the mfw.policies/v1 schema with populated makespan /
#      utilization / p99 fields for every point.
#
# Usage: tools/ci_spec_smoke.sh [build-dir]   (default: build-perf, shared
#        with the perf smoke so CI reuses one Release tree)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"

pins="${repo_root}/tools/baselines/fig6_csv.sha256"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target mfwctl policy_sweep

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

# -- 1. seed determinism through the compiled builtin spec -------------------
for config in fig6 fig6_streaming; do
  "${build_dir}/tools/mfwctl" run "${repo_root}/tools/baselines/${config}.yaml" \
      --csv "${workdir}/${config}.csv" > /dev/null
done
if ! (cd "${workdir}" && sha256sum --check --quiet "${pins}"); then
  echo "FAIL: fig6 CSVs drifted from the pins in ${pins}" >&2
  (cd "${workdir}" && sha256sum fig6.csv fig6_streaming.csv) >&2
  exit 1
fi
echo "OK: fig6 barrier and streaming runs match ${pins##*/}"

# -- 2. builtin spec compiles and plans --------------------------------------
plan="$("${build_dir}/tools/mfwctl" plan --builtin)"
for stage in download preprocess monitor inference shipment; do
  if ! grep -q "  ${stage} \[" <<< "${plan}"; then
    echo "FAIL: mfwctl plan --builtin is missing stage '${stage}'" >&2
    echo "${plan}" >&2
    exit 1
  fi
done
echo "OK: mfwctl plan --builtin lists the five pipeline stages"

# -- 3. per-command flag validation ------------------------------------------
check_rejects() {  # check_rejects <cmd> <flag>
  local out rc
  set +e
  out="$("${build_dir}/tools/mfwctl" "$1" --builtin "$2" 2>&1)"
  rc=$?
  set -e
  if [[ ${rc} -ne 2 ]]; then
    echo "FAIL: mfwctl $1 $2 exited ${rc}, expected 2" >&2
    exit 1
  fi
  if ! grep -q "unknown flag '$2' for command '$1'" <<< "${out}"; then
    echo "FAIL: mfwctl $1 $2 did not name the bad flag" >&2
    echo "${out}" >&2
    exit 1
  fi
  if ! grep -qi "usage" <<< "${out}"; then
    echo "FAIL: mfwctl $1 $2 did not print usage" >&2
    exit 1
  fi
}
check_rejects plan --bogus
check_rejects sweep --frobnicate
echo "OK: plan/sweep reject unknown flags with usage + exit 2"

# -- 4. mini policy sweep emits a populated schema ---------------------------
sweep_json="${workdir}/BENCH_policies.json"
"${build_dir}/bench/policy_sweep" --quick --out "${sweep_json}" > /dev/null
if ! grep -q '"schema": "mfw.policies/v1"' "${sweep_json}"; then
  echo "FAIL: policy sweep JSON is missing the mfw.policies/v1 schema" >&2
  exit 1
fi
points="$(grep -c '"policy": ' "${sweep_json}")"
if [[ "${points}" -lt 2 ]]; then
  echo "FAIL: quick sweep produced ${points} points, expected >= 2" >&2
  exit 1
fi
for field in makespan utilization p99_queue_wait deadline_misses; do
  populated="$(grep -c "\"${field}\": " "${sweep_json}")"
  if [[ "${populated}" -ne "${points}" ]]; then
    echo "FAIL: field '${field}' populated in ${populated}/${points} points" >&2
    exit 1
  fi
done
echo "OK: quick sweep wrote ${points} populated mfw.policies/v1 points"

echo "spec smoke: all gates passed"
