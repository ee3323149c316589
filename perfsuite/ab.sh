#!/usr/bin/env bash
# A/B the perf suite: an earlier commit against the working tree, same day,
# same benchmark code, no network.
#
#   perfsuite/ab.sh REV [PAIRS]        # PAIRS defaults to 10
#
# REV is exported with `git archive` and the current perfsuite/ and
# BENCHMARK.json are laid over it, so both sides run identical benchmark
# code; the working tree (tracked plus untracked, minus ignored files) is
# the other side.  Each side builds in Release under its own .bench_build.
# Every workload then runs PAIRS pairs, alternating which side goes first,
# with seed i for pair i, and ab_summary.py prints each side's median, q1
# and q3 per metric with the win fraction and a verdict.  Everything lives
# under .bench_build/ab.
set -euo pipefail

rev="${1:?usage: perfsuite/ab.sh REV [PAIRS]}"
pairs="${2:-10}"
root="$(git rev-parse --show-toplevel)"
work="$root/.bench_build/ab"

read -r seconds workloads < <(python3 - "$root/BENCHMARK.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
print(bench["run_seconds"], " ".join(w["name"] for w in bench["workloads"]))
EOF
)

rm -rf "$work"
mkdir -p "$work/base" "$work/head" "$work/results"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
rm -rf "$work/base/perfsuite"
cp -R "$root/perfsuite" "$work/base/perfsuite"
cp "$root/BENCHMARK.json" "$work/base/BENCHMARK.json"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
   tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$work/head"

# Build both sides before any timing (--help builds, then exits).
for side in base head; do
  (cd "$work/$side" && python3 perfsuite/run.py --help > /dev/null)
done

run() {  # side workload seed
  (cd "$work/$1" &&
     python3 perfsuite/run.py --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) |
    tail -n 1 >> "$work/results/$1.$2.jsonl"
}

for w in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    echo "ab: $w pair $i/$pairs" >&2
    if ((i % 2)); then
      run base "$w" "$i"
      run head "$w" "$i"
    else
      run head "$w" "$i"
      run base "$w" "$i"
    fi
  done
done

python3 "$root/perfsuite/ab_summary.py" "$work/results" "$root/BENCHMARK.json"
