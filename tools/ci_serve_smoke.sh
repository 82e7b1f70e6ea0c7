#!/usr/bin/env bash
# CI gate for the sharded serving layer (DESIGN.md §14). Four checks:
#
#   1. mfwctl serve-bench --check --json: the mfw.serve/v1 serve_bench
#      document must parse, carry the right schema/doc markers, report
#      zero oracle mismatches (every sharded query answer identical to a
#      brute-force archive scan), and clear a cache-hit-rate floor on the
#      Zipf workload (0.30 — current runs sit around 0.5-0.7, so the floor
#      has slack for small CI boxes).
#   2. CLI flag validation: an unknown serve-bench flag and a malformed
#      count (--tiles 2000x) must each exit 2 with a usage message, per the
#      mfwctl per-command flag contract.
#   3. serve_test passes in the main tree (property tests vs the oracle,
#      seal/cache/generation semantics).
#   4. A ThreadSanitizer build of serve_test exercises the lock-free
#      read-during-ingest path (ConcurrentReadDuringIngest) — the single
#      check that pins the shard memory-ordering protocol.
#
# Usage: tools/ci_serve_smoke.sh [build-dir] [tsan-build-dir]
#        (defaults: build-perf, build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-perf"}"
tsan_dir="${2:-"${repo_root}/build-tsan"}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target mfwctl serve_test

# -- 1. schema + oracle + cache-hit floor -------------------------------------
serve_json="${build_dir}/ci_serve_bench.json"
"${build_dir}/tools/mfwctl" serve-bench --tiles 60000 --requests 40000 \
  --check --quiet --out "${serve_json}"

python3 - "${serve_json}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("schema") != "mfw.serve/v1":
    sys.exit(f"FAIL: bad schema marker {doc.get('schema')!r}")
if doc.get("doc") != "serve_bench":
    sys.exit(f"FAIL: bad doc marker {doc.get('doc')!r}")
check = doc["check"]
if check["queries"] < 100:
    sys.exit(f"FAIL: only {check['queries']} oracle queries ran")
if check["mismatches"] != 0:
    sys.exit(f"FAIL: {check['mismatches']} oracle mismatches")
hit_rate = doc["load"]["cache_hit_rate"]
print(f"oracle: {check['queries']} queries, 0 mismatches")
print(f"cache hit rate: {hit_rate:.3f} (floor 0.30)")
if hit_rate < 0.30:
    sys.exit("FAIL: cache hit rate below the 0.30 floor")
resp = doc["example_response"]
if resp.get("schema") != "mfw.serve/v1" or "matched" not in resp:
    sys.exit("FAIL: example query response missing schema/matched fields")
EOF
echo "OK: serve-bench schema, oracle, and cache-hit floor"

# -- 2. per-command flag validation -------------------------------------------
rc=0
"${build_dir}/tools/mfwctl" serve-bench --bogus-flag >/dev/null 2>&1 || rc=$?
if [[ "${rc}" != 2 ]]; then
  echo "FAIL: serve-bench unknown flag exited ${rc}, want 2" >&2
  exit 1
fi
echo "OK: unknown serve-bench flag rejected with exit 2"
rc=0
"${build_dir}/tools/mfwctl" serve-bench --tiles 2000x >/dev/null 2>&1 || rc=$?
if [[ "${rc}" != 2 ]]; then
  echo "FAIL: serve-bench --tiles 2000x exited ${rc}, want 2" >&2
  exit 1
fi
echo "OK: malformed serve-bench --tiles rejected with exit 2"

# -- 3. unit + property tests -------------------------------------------------
"${build_dir}/tests/serve_test" --gtest_brief=1
echo "OK: serve_test passed"

# -- 4. lock-free reads under TSan --------------------------------------------
cmake -B "${tsan_dir}" -S "${repo_root}" -DMFW_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j "$(nproc)" --target serve_test
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  "${tsan_dir}/tests/serve_test" --gtest_brief=1
echo "OK: serve_test clean under ThreadSanitizer"

echo "ci_serve_smoke: all gates passed"
