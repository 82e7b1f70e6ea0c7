#!/usr/bin/env bash
# CI sanitizer gate: build the whole tree with ASan+UBSan and run the tier-1
# test suite under both runtimes. The event-driven dataflow paths (EventBus
# dispatch, GranuleTracker, streaming EomlWorkflow) are exactly the kind of
# callback-heavy code where lifetime bugs hide; this catches them before they
# reach a barrier-mode reproduction run.
#
# A second ThreadSanitizer build (TSan cannot coexist with ASan) covers the
# thread-pool data-parallel ML paths (parallel_for, encode_batch replicas,
# and the chunked gradient reduction) and modis_test, whose granule
# statistics and one-pass MOD02/MOD03/MOD06 synthesis run from one const
# generator on several threads, and whose Catalog.MaterializeAcrossThreads
# shares one const ArchiveService, with the mutex-guarded holder of
# synthesised but unrequested products, among four threads. It also runs
# obs_test (TraceRecorder span slots and MetricsRegistry series cells under
# pool threads, ConcurrentRecordingFromPoolThreads) and obs_watch_test.
#
# After the sanitizer suites pass, the perf smoke gate
# (tools/ci_perf_smoke.sh) runs on a Release build to catch determinism
# drift and substrate complexity regressions; skip it with MFW_SKIP_PERF=1.
# The trace-report smoke gate (tools/ci_report_smoke.sh) then validates the
# obs analytics layer on the same Release build: report JSON schema,
# critical-path sanity, CLI flag validation, and the bounded-memory campaign
# recorder; skip it with MFW_SKIP_REPORT=1. Finally the spec smoke gate
# (tools/ci_spec_smoke.sh) pins the declarative-workflow layer: the builtin
# spec's barrier run must stay bit-for-bit the seed pipeline, and the policy
# sweep must emit a populated mfw.policies/v1 grid; skip with MFW_SKIP_SPEC=1.
# The health smoke gate (tools/ci_health_smoke.sh) pins the live-watch layer:
# a watch-enabled run must not perturb the simulation (same CSV sha), the
# mfw.health/v1 stream must validate, and an injected slow stage must raise —
# and a clean run must not raise — an SLO alert; skip with MFW_SKIP_HEALTH=1.
# The int8 smoke gate (tools/ci_int8_smoke.sh) pins the quantized inference
# stack: int8 GEMM and encode speedup floors, fused-vs-layers bitwise
# identity, the 42-class agreement floor, and the tile-budget bound; skip
# with MFW_SKIP_INT8=1. The serve smoke gate (tools/ci_serve_smoke.sh) pins
# the sharded serving layer: oracle-identical query answers, the cache-hit
# floor, CLI flag validation, and a TSan run of the lock-free
# read-during-ingest path; skip with MFW_SKIP_SERVE=1. The diff smoke gate
# (tools/ci_diff_smoke.sh) pins the differential-observability layer:
# identical reruns must diff to "no regression", an injected 2x preprocess
# must be gated with >= 90% of the delta attributed to that stage, the
# flight recorder must not perturb the run (same CSV sha) and must dump
# valid Chrome-trace JSON, and broken report files must fail with clear
# errors; skip with MFW_SKIP_DIFF=1.
#
# Usage: tools/ci_sanitize.sh [build-dir] [tsan-build-dir]
#        (defaults: build-sanitize, build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-sanitize"}"
tsan_dir="${2:-"${repo_root}/build-tsan"}"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

cmake -B "${build_dir}" -S "${repo_root}" -DMFW_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake -B "${tsan_dir}" -S "${repo_root}" -DMFW_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j "$(nproc)" --target \
      ml_test ml_tensor_test ml_train_test ml_cluster_test ml_continual_test \
      ml_quant_test util_test modis_test obs_test obs_watch_test
ctest --test-dir "${tsan_dir}" \
      -R '^(ml_|util_|modis_|obs_test$|obs_watch_test$)' --output-on-failure

if [[ "${MFW_SKIP_PERF:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_perf_smoke.sh"
fi

if [[ "${MFW_SKIP_REPORT:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_report_smoke.sh"
fi

if [[ "${MFW_SKIP_SPEC:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_spec_smoke.sh"
fi

if [[ "${MFW_SKIP_HEALTH:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_health_smoke.sh"
fi

if [[ "${MFW_SKIP_INT8:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_int8_smoke.sh"
fi

if [[ "${MFW_SKIP_SERVE:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_serve_smoke.sh"
fi

if [[ "${MFW_SKIP_DIFF:-0}" != "1" ]]; then
  "${repo_root}/tools/ci_diff_smoke.sh"
fi
