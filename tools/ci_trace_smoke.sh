#!/usr/bin/env bash
# CI trace smoke test: run the Fig. 6 bench on a reduced catalog slice with
# --trace-out and validate the exported Chrome trace-event JSON — it must
# parse, and both scheduling modes (processes "eoml-barrier" and
# "eoml-streaming") must carry the expected top-level stage spans
# (download/preprocess/inference). Guards the obs layer end-to-end: recorder,
# workflow instrumentation, and exporter.
#
# Then pins `mfwctl trace tools/baselines/fig6.yaml`'s trace and metrics
# files byte for byte against tools/baselines/telemetry.sha256 (trace.json,
# metrics.txt): recording and export must not change one byte they write.
# An intended format change re-records the two lines with
#   mfwctl trace tools/baselines/fig6.yaml --out trace.json \
#       --metrics metrics.txt && sha256sum trace.json metrics.txt
#
# Usage: tools/ci_trace_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)" --target fig6_timeline mfwctl

out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT
trace_json="${out_dir}/fig6_trace.json"

"${build_dir}/bench/fig6_timeline" --max-files 6 --trace-out "${trace_json}" \
    > "${out_dir}/fig6.out"

python3 - "${trace_json}" <<'EOF'
import collections
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)  # must be valid JSON

events = trace["traceEvents"]
assert events, "trace has no events"

process_names = {
    e["pid"]: e["args"]["name"]
    for e in events
    if e["ph"] == "M" and e["name"] == "process_name"
}
stage_spans = collections.defaultdict(set)
for e in events:
    if e["ph"] == "X" and e.get("cat") == "stage":
        assert e["dur"] >= 0, f"negative duration: {e}"
        stage_spans[e["pid"]].add(e["name"])

expected_stages = {"download", "preprocess", "inference"}
expected_processes = {"eoml-barrier", "eoml-streaming"}
seen_processes = set()
for pid, stages in stage_spans.items():
    name = process_names.get(pid, f"pid{pid}")
    missing = expected_stages - stages
    assert not missing, f"process {name} missing stage spans: {missing}"
    seen_processes.add(name)
missing = expected_processes - seen_processes
assert not missing, f"missing traced workflow runs: {missing}"

spans = sum(1 for e in events if e["ph"] == "X")
instants = sum(1 for e in events if e["ph"] == "i")
print(f"trace OK: {len(events)} events, {spans} spans, {instants} instants, "
      f"processes {sorted(seen_processes)}")
EOF

# -- byte-for-byte trace and metrics export ----------------------------------
pins="${repo_root}/tools/baselines/telemetry.sha256"
"${build_dir}/tools/mfwctl" trace "${repo_root}/tools/baselines/fig6.yaml" \
    --out "${out_dir}/trace.json" --metrics "${out_dir}/metrics.txt" \
    > /dev/null
if ! grep -E '  (trace\.json|metrics\.txt)$' "${pins}" |
    (cd "${out_dir}" && sha256sum --check --quiet --strict); then
  echo "FAIL: mfwctl trace output drifted from ${pins}" >&2
  (cd "${out_dir}" && sha256sum trace.json metrics.txt) >&2
  exit 1
fi
echo "OK: fig6 trace and metrics files match ${pins##*/}"

echo "ci_trace_smoke: PASS"
