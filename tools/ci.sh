#!/usr/bin/env bash
# The CI gate: the whole ctest suite in three trees.
#
#   1. Release: every test, the smoke checks (tests/check.cmake; label
#      smoke) and the Release-only timing floors (label perf) included.
#   2. ASan+UBSan: every test again, so the event-driven paths and every CLI
#      and bench command the smoke checks drive run under both runtimes.
#   3. ThreadSanitizer (it cannot share a tree with ASan): the tests that run
#      threads, label tsan, built by the tsan_tests target.
#
# Usage: tools/ci.sh [dir]   (default: the repo root) builds the trees
#        build-release/, build-sanitize/ and build-tsan/ under dir.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${1:-"${repo_root}"}"
jobs="$(nproc)"

cmake -B "${dir}/build-release" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${dir}/build-release" -j "${jobs}"
ctest --test-dir "${dir}/build-release" --output-on-failure -j "${jobs}"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
cmake -B "${dir}/build-sanitize" -S "${repo_root}" -DMFW_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${dir}/build-sanitize" -j "${jobs}"
ctest --test-dir "${dir}/build-sanitize" --output-on-failure -j "${jobs}"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
cmake -B "${dir}/build-tsan" -S "${repo_root}" -DMFW_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${dir}/build-tsan" -j "${jobs}" --target tsan_tests
ctest --test-dir "${dir}/build-tsan" -L tsan --output-on-failure -j "${jobs}"
