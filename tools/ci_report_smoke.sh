#!/usr/bin/env bash
# CI trace-report smoke gate, the companion to tools/ci_perf_smoke.sh for the
# obs analytics layer (DESIGN.md §10). Four checks on a Release build:
#
#   1. `mfwctl report --json` on a Fig. 6-style config emits a schema-valid
#      mfw.trace_report/v1 document whose critical path tiles the makespan
#      (coverage >= 0.9, length <= makespan + epsilon) and whose
#      critical-path dominant stage is consistent with the per-stage rows.
#   2. The report's dominant stage equals the longest stage span — i.e. the
#      analyzer agrees with the rendered timeline about where the makespan
#      goes.
#   3. mfwctl rejects unknown flags with usage + exit 2 (the CLI contract the
#      gating scripts depend on).
#   4. A 2-day archive_campaign with --report-out runs under the bounded
#      recorder (kStatsOnly retention + rollups; --quick keeps the substrate
#      rows it also prints small): spans must be dropped, the
#      retained sample must respect its cap, and the rollup report must cover
#      every observed span.
#
# Usage: tools/ci_report_smoke.sh [build-dir]   (default: build-perf, shared
#        with ci_perf_smoke.sh so CI reuses the Release build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target mfwctl archive_campaign

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

cat > "${workdir}/fig6.yaml" <<'EOF'
# Fig. 6-shaped slice, trimmed for CI: barrier scheduling so the download
# stage dominates the makespan exactly as in the paper's timeline.
workflow:
  satellite: terra
  span: {year: 2022, first_day: 1, last_day: 1}
  max_files: 12
  daytime_only: true
  scheduling: barrier
download:
  workers: 3
preprocess:
  nodes: 4
  workers_per_node: 8
EOF

# -- 1+2. report --json: schema, critical path, dominant stage ---------------
"${build_dir}/tools/mfwctl" report "${workdir}/fig6.yaml" --json --quiet \
    > "${workdir}/report.json"
python3 - "${workdir}/report.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["schema"] == "mfw.trace_report/v1", report.get("schema")
assert report["processes"], "no processes analyzed"
for proc in report["processes"]:
    makespan = proc["makespan"]
    path = proc["critical_path"]
    assert makespan > 0, f"{proc['process']}: empty makespan"
    assert path["length"] <= makespan * 1.001, (
        f"{proc['process']}: critical path {path['length']} exceeds "
        f"makespan {makespan}")
    assert path["coverage"] >= 0.9, (
        f"{proc['process']}: critical path covers only "
        f"{path['coverage']:.1%} of the makespan")
    # The analyzer's dominant stage must be the longest stage span, i.e.
    # what a rendered timeline shows as makespan-dominant.
    stages = {s["stage"]: s for s in proc["stages"]}
    assert proc["dominant_stage"] in stages, proc["dominant_stage"]
    longest = max(stages.values(), key=lambda s: s["end"] - s["start"])
    assert proc["dominant_stage"] == longest["stage"], (
        f"{proc['process']}: dominant {proc['dominant_stage']} != longest "
        f"stage span {longest['stage']}")
    by_stage = {e["stage"]: e["seconds"] for e in path["by_stage"]}
    assert path["dominant_stage"] == max(by_stage, key=by_stage.get)
    print(f"OK: {proc['process']}: dominant={proc['dominant_stage']} "
          f"coverage={path['coverage']:.1%} "
          f"path_dominant={path['dominant_stage']}")
print("OK: trace report schema + critical path sanity")
EOF

# -- 3. unknown flags are rejected -------------------------------------------
for bad in "report ${workdir}/fig6.yaml --bogus" "trace ${workdir}/fig6.yaml --frobnicate x" "run ${workdir}/fig6.yaml --json"; do
  set +e
  # shellcheck disable=SC2086
  "${build_dir}/tools/mfwctl" ${bad} >/dev/null 2>"${workdir}/err.txt"
  status=$?
  set -e
  if [[ ${status} -ne 2 ]] || ! grep -q "unknown flag" "${workdir}/err.txt"; then
    echo "FAIL: 'mfwctl ${bad}' should exit 2 with an unknown-flag error" >&2
    cat "${workdir}/err.txt" >&2
    exit 1
  fi
done
echo "OK: unknown flags rejected with usage + exit 2"

# -- 4. bounded-memory campaign telemetry ------------------------------------
"${build_dir}/bench/archive_campaign" --days 2 --quick \
    --report-out "${workdir}/rollup.json" --out "${workdir}/campaign.json" \
    > /dev/null
python3 - "${workdir}/rollup.json" "${workdir}/campaign.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    rollup = json.load(f)
with open(sys.argv[2]) as f:
    campaign = json.load(f)

rec = rollup["recorder"]
assert rec["observed_spans"] > 1000, rec
assert rec["dropped_spans"] > 0, "bounded mode dropped nothing"
assert rec["retained_spans"] <= 4096, rec  # the exemplar cap
assert rec["retained_spans"] + rec["dropped_spans"] == rec["observed_spans"]
assert rollup["rollup"]["spans_seen"] == rec["observed_spans"], (
    "rollup sink missed spans")
assert rollup["rollup"]["series"], "no rollup series"
assert campaign["obs"]["observed_spans"] == rec["observed_spans"]
print(f"OK: bounded telemetry: {rec['observed_spans']} observed, "
      f"{rec['retained_spans']} retained, {rec['dropped_spans']} dropped, "
      f"{len(rollup['rollup']['series'])} rollup series")
EOF

echo "OK: trace-report smoke gate passed"
