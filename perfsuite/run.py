#!/usr/bin/env python3
"""Build perf_suite from this checkout's sources, then run it.

    python3 perfsuite/run.py --workload paper_mix --seed 1 --seconds 15 --trace 0

Every argument goes to perf_suite unchanged (see perf_suite --help).  The
build lives in .bench_build/perfsuite under the checkout root; build output
goes to stderr, so stdout is the suite's alone and its last line is the
result JSON.  Exits 2 without building when the simulator sources are
missing.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfsuite")
BUILD = os.path.join(ROOT, ".bench_build", "perfsuite")


def build():
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfsuite: no simulator sources (src/) in this checkout",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfsuite: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "perf_suite")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
