#!/usr/bin/env python3
"""Traced-run report: per-layer self time and tracing overhead per
workload, next to the untraced end-to-end numbers.

    python3 perfbench/report.py [--workloads a,b] [--seed N] [--seconds S]

Runs every workload once untraced and once traced and prints markdown:
the end-to-end metrics, the self time of each layer (span time minus the
time of its child spans) with its share, the tracing overhead the traced
run measured against its own untraced half, and every per-layer metric
the workload reached. Per-layer metrics of layers a workload does not
reach read 0 and are left out.
"""

import argparse
import sys

from common import contract, run_one


def table(rows, head):
    out = [f"| {' | '.join(head)} |", f"|{'---|' * len(head)}"]
    out += [f"| {' | '.join(str(c) for c in r)} |" for r in rows]
    return "\n".join(out)


def main():
    bench = contract()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    for w in args.workloads.split(","):
        plain, _ = run_one(w, args.seed, args.seconds, 0)
        traced, _ = run_one(w, args.seed, args.seconds, 1)
        pm, tm = plain["metrics"], traced["metrics"]
        print(f"## {w} (seed {args.seed}, {args.seconds} s)\n")
        print(f"correct: untraced {plain['correct']}, traced {traced['correct']}; "
              f"failed {plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced\n")
        print(table([(n, f"{m['value']:.6g}", m["unit"]) for n, m in pm.items()],
                    ["end-to-end (untraced)", "value", "unit"]) + "\n")
        layers = {n: m["value"] for n, m in tm.items() if n.startswith("layer.")}
        total = sum(layers.values()) or 1.0
        print(table([(n.split(".")[1], f"{v:.1f}", f"{v / total:.1%}") for n, v in layers.items()],
                    ["layer", "self ms (traced run)", "share"]) + "\n")
        print(f"tracing overhead: {tm['trace.overhead_pct']['value']:+.2f}% "
              "(traced vs untraced op median within the traced run)\n")
        rows = [(n, f"{m['value']:.6g}", m["unit"]) for n, m in tm.items()
                if m["value"] != 0 and not n.startswith(("layer.", "trace."))]
        print(table(rows, ["per-layer metric", "value", "unit"]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
