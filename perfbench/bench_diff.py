#!/usr/bin/env python3
"""Compare two result sets (parent, change) written by collect.py.

    python3 perfbench/bench_diff.py PARENT.jsonl CHANGE.jsonl

For every workload in both sets and every end-to-end metric of
BENCHMARK.json, runs are paired by seed and each pairing gets a verdict:

* gain       - the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range;
* regression - the change's median is worse than the parent's by more
               than the metric's bound;
* unresolved - either side's spread (IQR / median) is wider than the
               bound, unless every change run beats every parent run;
* within bound - otherwise.

It also checks that the failure fraction (failed / attempted) did not
rise. Exits 1 on any regression or a risen failure fraction.
"""

import sys

from common import contract, load_set, quartiles, spread


def verdict(old, new, bound, higher_better):
    def better(a, b):
        return a > b if higher_better else a < b

    q1, med_old, q3 = quartiles([v for _, v in old])
    med_new = quartiles([v for _, v in new])[1]
    new_by_seed = dict(new)
    pairs = [(o, new_by_seed[s]) for s, o in old if s in new_by_seed]
    wins = sum(better(n, o) for o, n in pairs)
    worse_by = (med_old - med_new if higher_better else med_new - med_old) / abs(med_old)
    wide = max(spread([v for _, v in old]), spread([v for _, v in new])) > bound
    all_better = all(better(n, o) for _, n in new for _, o in old)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_new - med_old) > q3 - q1:
        v = "gain"
    elif wide and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "within bound"
    return v, med_old, med_new, wins, len(pairs)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = contract()
    sets = [load_set(p) for p in argv]
    failing = False
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        old = [r for r in sets[0] if r["workload"] == w]
        new = [r for r in sets[1] if r["workload"] == w]
        if not old or not new:
            continue
        ff = [sum(r["result"]["failed"] for r in rs) / sum(r["result"]["attempted"] for r in rs)
              for rs in (old, new)]
        rose = ff[1] > ff[0]
        failing |= rose
        print(f"## {w}: fail_frac {ff[0]:.3g} -> {ff[1]:.3g}{'  ROSE' if rose else ''}")
        print(f"{'metric':<18}{'parent':>14}{'change':>14}{'delta':>9}{'wins':>8}  verdict")
        for m in bench["end_to_end"]:
            col = [[(r["seed"], r["result"]["metrics"][m["name"]]["value"]) for r in rs]
                   for rs in (old, new)]
            v, mo, mn, wins, n = verdict(col[0], col[1], m["bound"], m["better"] == "higher")
            failing |= v == "regression"
            delta = (mn - mo) / abs(mo) if mo else float("inf")
            print(f"{m['name']:<18}{mo:>14.6g}{mn:>14.6g}{delta:>+9.2%}{wins:>5}/{n:<2}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
