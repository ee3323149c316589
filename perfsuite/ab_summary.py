#!/usr/bin/env python3
"""Summarize an A/B run of the perf suite (written by perfsuite/ab.sh).

    python3 perfsuite/ab_summary.py RESULTS_DIR BENCHMARK.json

RESULTS_DIR holds {base,head}.<workload>.jsonl: one result line per run,
pair i on line i of both files.  For every workload and end-to-end metric
it prints each side's median, q1 and q3, the fraction of pairs head won
(ties count for neither side), the verdict and whether head's median stays
within the metric's bound of base's.

Verdict: "win" needs head to win at least 9 of 10 pairs and a median gap
larger than base's own spread (q3 - q1); "loss" is the mirror image;
anything else is "unresolved".  Exits 1 when any run reported incorrect
output or a failed simulation.
"""
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    results_dir, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    all_ok = True
    print(f"{'workload':14} {'metric':12} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} {'wins':>6}  verdict     bound")
    for workload in (w["name"] for w in bench["workloads"]):
        base_path = os.path.join(results_dir, f"base.{workload}.jsonl")
        head_path = os.path.join(results_dir, f"head.{workload}.jsonl")
        if not (os.path.exists(base_path) and os.path.exists(head_path)):
            continue
        base, head = load(base_path), load(head_path)
        for side, runs in (("base", base), ("head", head)):
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            if bad:
                all_ok = False
                print(f"{workload}: {len(bad)} {side} run(s) reported incorrect "
                      f"output or failed simulations")
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in base]
            h = [r["metrics"][name]["value"] for r in head]
            pairs = list(zip(b, h))
            if len(pairs) < 2:
                continue
            better = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
            wins = sum(better(x, y) for x, y in pairs)
            losses = sum(better(y, x) for x, y in pairs)
            bq, hq = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
            bmed, hmed = statistics.median(b), statistics.median(h)
            gain = (bmed - hmed) if lower else (hmed - bmed)
            spread = bq[2] - bq[0]
            if wins >= 0.9 * len(pairs) and gain > spread:
                verdict = "win"
            elif losses >= 0.9 * len(pairs) and -gain > spread:
                verdict = "loss"
            else:
                verdict = "unresolved"
            worse = -gain / bmed if bmed else 0.0
            bound = "ok" if worse <= metric["bound"] else f"WORSE {worse:+.1%}"
            print(f"{workload:14} {name:12} "
                  f"{bmed:11.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                  f"{hmed:11.5g} [{hq[0]:9.5g}, {hq[2]:9.5g}] "
                  f"{wins:>3}/{len(pairs):<2}  {verdict:10}  {bound}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
