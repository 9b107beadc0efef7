"""A/A check: do two sets of runs of the *same* code agree within the bounds?

Runs two interleaved sets (A B A B ...) of N full passes of this checkout
and prints, per (workload, metric), both medians with their quartiles, the
relative gap, the spread of all 2N runs (inter-quartile distance as a share
of the median, as the driver takes it) and the bound.  Exits non-zero if any
gap or spread exceeds its bound (``setup_s`` is gated on its gap only).  A
gap beyond *half* its bound, or a spread beyond a third of it, is flagged.

    python3 bench/agree.py [--passes 5] [--seed 1] [--workloads a,b]
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from summary import Pass, column, load_contract, quartiles, run_pass, worsening


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--passes", type=int, default=5, help="passes per set")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workloads:
        names = [name for name in names if name in args.workloads.split(",")]
    first: List[Pass] = []
    second: List[Pass] = []
    for index in range(args.passes):
        # Interleaved, each run on its own seed, as the driver's two sets are.
        first.append(run_pass(args.seed + 2 * index, contract["run_seconds"], names))
        second.append(run_pass(args.seed + 2 * index + 1, contract["run_seconds"], names))
        print(f"pass {index + 1}/{args.passes} of both sets done", file=sys.stderr)
    print(
        f"{'workload':<14}{'metric':<15}{'A q1/median/q3':>36}{'B q1/median/q3':>36}"
        f"{'gap':>8}{'spread':>8}{'bound':>7}"
    )
    exit_code = 0
    for name in names:
        for metric in contract["end_to_end"]:
            a = quartiles(column(first, name, metric["name"]))
            b = quartiles(column(second, name, metric["name"]))
            # Same code on both sides, so "worse" is taken in either direction.
            gap = max(worsening(metric["better"], a[1], b[1]), worsening(metric["better"], b[1], a[1]))
            both = quartiles(column(first + second, name, metric["name"]))
            spread = (both[2] - both[0]) / both[1]
            gated_spread = 0.0 if metric["name"] == "setup_s" else spread
            flag = ""
            if gap > metric["bound"] or gated_spread > metric["bound"]:
                flag, exit_code = "  EXCEEDS BOUND", 1
            elif gap > metric["bound"] / 2:
                flag = "  gap over half the bound"
            elif gated_spread > metric["bound"] / 3:
                flag = "  spread over a third of the bound"
            print(
                f"{name:<14}{metric['name']:<15}"
                f"{a[0]:>12.4f}{a[1]:>12.4f}{a[2]:>12.4f}{b[0]:>12.4f}{b[1]:>12.4f}{b[2]:>12.4f}"
                f"{gap:>8.1%}{spread:>8.1%}{metric['bound']:>7.0%}{flag}"
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
