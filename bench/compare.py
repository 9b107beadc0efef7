"""Parent-vs-change comparison for later issues, by the guide's rules.

Measures two source trees with *this* benchmark code (identical settings on
both sides) in alternating pairs — parent first, then change first — and
prints one row per (workload, metric): each side's median and quartiles,
the change as a ratio with its base, and a verdict:

``gain``        the change wins at least 9/10 of all pairs (ties count for
                neither) AND the medians differ by more than the parent's own
                inter-quartile distance
``regression``  the change's median is worse than the parent's by more than
                the metric's bound
``unresolved``  either side's quartile spread exceeds the bound, so neither
                "unchanged" nor "regressed" can be said
``within``      none of the above: no worse than the bound allows

    python3 bench/compare.py --parent /path/to/parent/src [--change src] [--pairs 10]

Exits non-zero on any regression.  A change that claims a gain may not edit
``bench/``; measure it on a seed not used while it was written (``--seed``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from summary import ROOT, Pass, column, load_contract, quartiles, run_pass, worsening


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, help="the parent commit's src/ directory")
    parser.add_argument("--change", default=str(ROOT / "src"), help="the change's src/ directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        print("fewer than 10 pairs: verdicts below are indicative only", file=sys.stderr)
    contract = load_contract()
    seconds = contract["run_seconds"]
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workloads:
        names = [name for name in names if name in args.workloads.split(",")]
    parent: List[Pass] = []
    change: List[Pass] = []
    for index in range(args.pairs):
        seed = args.seed + index  # both sides of a pair get the same inputs
        sides = [(parent, args.parent), (change, args.change)]
        for sink, src in sides if index % 2 == 0 else reversed(sides):
            sink.append(run_pass(seed, seconds, names, src=src))
        print(f"pair {index + 1}/{args.pairs} done", file=sys.stderr)
    print(
        f"{'workload':<14}{'metric':<15}{'parent q1/median/q3':>36}{'change q1/median/q3':>36}"
        f"{'change/parent':>15}{'wins':>7}  verdict"
    )
    exit_code = 0
    for name in names:
        for metric in contract["end_to_end"]:
            better, bound = metric["better"], metric["bound"]
            base = column(parent, name, metric["name"])
            new = column(change, name, metric["name"])
            p, c = quartiles(base), quartiles(new)
            wins = sum(1 for old, now in zip(base, new) if worsening(better, old, now) < 0)
            ties = sum(1 for old, now in zip(base, new) if old == now)
            worse = worsening(better, p[1], c[1])
            if max(p[2] - p[0], c[2] - c[0]) / p[1] > bound:
                verdict = "unresolved (spread exceeds the bound)"
            elif worse > bound:
                verdict, exit_code = "regression", 1
            elif wins >= 0.9 * (len(base) - ties) and wins and abs(c[1] - p[1]) > p[2] - p[0]:
                verdict = "gain"
            else:
                verdict = "within"
            print(
                f"{name:<14}{metric['name']:<15}"
                f"{p[0]:>12.4f}{p[1]:>12.4f}{p[2]:>12.4f}{c[0]:>12.4f}{c[1]:>12.4f}{c[2]:>12.4f}"
                f"{c[1] / p[1]:>8.3f} of {p[1]:<8.4g}{wins:>3}/{len(base)}  {verdict}"
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
