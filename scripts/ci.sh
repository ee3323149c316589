#!/usr/bin/env bash
# Full local CI gate. Mirrors .github/workflows/ci.yml so a green run
# here means a green run there.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# The default test preset runs every registered ctest: all labelled suites
# and the bench --smoke gates (engine, costmodel, pdes_scaling, serving,
# churn_consolidation) included.
echo "== default preset: build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

echo "== lifecycle churn fuzzer smoke (shorter op sequences than the ctest run) =="
./build/tests/churn_fuzz_test --smoke

echo "== perf suite smoke (replica == entry point, recorded digests, declared metric names) =="
python3 perfsuite/run.py --smoke

echo "== debug preset: tier-1 suite with asserts on (every other preset defines NDEBUG) =="
cmake --preset debug
cmake --build --preset debug -j "$JOBS"
ctest --preset debug -j "$JOBS"

echo "== tsan preset: parallel-executor tests under ThreadSanitizer =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan

echo "== asan preset: full suite under AddressSanitizer + UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo "== release preset: tier-1 suite in a Release build =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --test-dir build-release -j "$JOBS"

echo "CI gate: all green"
