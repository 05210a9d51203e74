#!/usr/bin/env python3
"""Run workloads over several seeds into a result set, and print spreads.

    python3 perfbench/collect.py --out set.jsonl [--workloads a,b] [--seeds 1-10]
                                 [--seconds S]

Appends one JSON line per untraced run ({"workload", "seed", "result"})
to --out, then prints for each workload in the set and each end-to-end
metric the median, the interquartile range as a share of the median, and
whether that spread is below a third of the metric's bound (`steady`)
and within the bound (`ok`). Exits 1 if any run was incorrect or any
end-to-end spread exceeds its bound.
"""

import argparse
import json
import sys

from common import contract, load_set, parse_seeds, quartiles, run_one, spread


def summarize(rows, bench):
    bad = False
    for w in dict.fromkeys(r["workload"] for r in rows):
        runs = [r["result"] for r in rows if r["workload"] == w]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        incorrect = sum(not r["correct"] for r in runs)
        bad |= incorrect > 0
        print(f"## {w}: {len(runs)} runs, failed {failed}/{attempted}, incorrect runs {incorrect}")
        print(f"{'metric':<18}{'median':>16}{'spread':>9}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            _, med, _ = quartiles(vals)
            s = spread(vals)
            verdict = "steady" if s < m["bound"] / 3 else ("ok" if s <= m["bound"] else "WIDE")
            bad |= verdict == "WIDE"
            print(f"{m['name']:<18}{med:>16.6g}{s:>9.4f}{m['bound']:>7}  {verdict}")
    return bad


def main():
    bench = contract()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    with open(args.out, "a") as f:
        for w in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                result, _ = run_one(w, seed, args.seconds, 0)
                f.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                f.flush()
                print(f"{w} seed {seed}: correct={result['correct']}", file=sys.stderr)
    return 1 if summarize(load_set(args.out), bench) else 0


if __name__ == "__main__":
    sys.exit(main())
