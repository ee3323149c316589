#!/usr/bin/env bash
# Full local CI gate. Mirrors .github/workflows/ci.yml so a green run
# here means a green run there.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== default preset: build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

echo "== labelled suites (golden, differential, engine, churn, costmodel, cluster, pdes, serving) =="
ctest --test-dir build -L golden --output-on-failure
ctest --test-dir build -L differential --output-on-failure
ctest --test-dir build -L engine --output-on-failure
ctest --test-dir build -L churn --output-on-failure
ctest --test-dir build -L costmodel --output-on-failure
ctest --test-dir build -L cluster --output-on-failure
ctest --test-dir build -L pdes --output-on-failure
ctest --test-dir build -L serving --output-on-failure

echo "== engine hot-path smoke (zero steady-state allocations gate) =="
./build/bench/engine_bench --smoke

echo "== cost-model memo smoke (bit-identity + hit-rate + lookup-count gate) =="
./build/bench/costmodel_bench --smoke

echo "== lifecycle churn fuzzer smoke (invariants under create/destroy/pause) =="
./build/tests/churn_fuzz_test --smoke

echo "== fleet scaling smoke (cluster determinism + live migration + FleetCheck) =="
./build/bench/scaling_machines --smoke

echo "== PDES scaling smoke (sharded/batched/unbatched digest identity + coalescing proof) =="
./build/bench/pdes_scaling --smoke

echo "== serving smoke (calm prefix + spike collapse + PDES identity + 1M-rps lazy-arrival gate) =="
./build/bench/serving_bench --smoke

echo "== perf suite smoke (replica == entry point, recorded digests, declared metric names) =="
python3 perfsuite/run.py --smoke

echo "== tsan preset: parallel-executor tests under ThreadSanitizer =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan

echo "== asan preset: full suite under AddressSanitizer + UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo "== release preset: checker hooks compiled out =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --test-dir build-release -j "$JOBS"

echo "CI gate: all green"
