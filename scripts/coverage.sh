#!/usr/bin/env bash
# Line coverage of the simulator's own code (src/*.cpp) under the tier-1
# suite, measured with gcov alone.
#
#   scripts/coverage.sh [build-dir]          # default build dir: build-coverage
#
# Configures a Debug build (asserts on, no NDEBUG) with --coverage -O0, runs
# every registered ctest there, then prints:
#   * per src/*.cpp file: executed / instrumented lines;
#   * the total, and how many instrumented lines never ran;
#   * every src/ function (in a .cpp or a header) that was compiled into some
#     object but never called; a template counts as called when any of its
#     instantiations ran.  An inline function that nothing uses is never
#     emitted, so gcov cannot list it: grep for callers to find those.
#
# A failing test fails the script, after the report: the figures then lack
# what that test would have run.  It takes several minutes, so
# scripts/ci.sh does not run it.
# JOBS=N sets build and test parallelism (default: nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-coverage}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$BUILD" -j "$JOBS"
# Counters accumulate across runs: start every measurement from zero.
find "$BUILD" -name '*.gcda' -delete
status=0
ctest --test-dir "$BUILD" -j "$JOBS" --output-on-failure || status=$?

python3 - "$PWD" "$BUILD" <<'EOF'
import collections
import json
import os
import subprocess
import sys

root, build = os.path.realpath(sys.argv[1]), os.path.realpath(sys.argv[2])
src = os.path.join(root, "src") + os.sep

lines = collections.defaultdict(lambda: collections.Counter())  # file -> line -> count
calls = collections.Counter()  # (file, line) -> calls, all instantiations
names = {}  # (file, line) -> shortest demangled name seen there

gcdas = sorted(os.path.join(d, f) for d, _, fs in os.walk(build)
               for f in fs if f.endswith(".gcda"))
for gcda in gcdas:
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                         cwd=os.path.dirname(gcda), check=True,
                         capture_output=True, text=True).stdout
    for text in out.splitlines():
        if not text.strip():
            continue
        doc = json.loads(text)
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            if path.endswith(".cpp"):
                for ln in f["lines"]:
                    lines[rel][ln["line_number"]] += ln["count"]
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                calls[key] += fn["execution_count"]
                name = fn["demangled_name"]
                if key not in names or len(name) < len(names[key]):
                    names[key] = name

total_run = total = 0
print(f"{'file':<36} {'executed':>8} / {'lines':>5}  {'cover':>6}")
for rel in sorted(lines):
    counts = lines[rel].values()
    run = sum(1 for c in counts if c > 0)
    total_run += run
    total += len(counts)
    print(f"{rel:<36} {run:>8} / {len(counts):>5}  {100.0 * run / len(counts):5.1f}%")
print(f"{'total':<36} {total_run:>8} / {total:>5}  {100.0 * total_run / total:5.1f}%")
print(f"never-executed src/*.cpp lines: {total - total_run}")

dead = sorted(k for k, c in calls.items() if c == 0)
print(f"\nnever-called src/ functions ({len(dead)}):")
for rel, line in dead:
    print(f"  {rel}:{line}  {names[(rel, line)]}")
EOF
exit "$status"
