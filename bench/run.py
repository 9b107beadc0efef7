"""The benchmark's one command.

``python3 bench/run.py``            every workload, each in a fresh process,
                                    every end-to-end metric with its unit
``python3 bench/run.py --traced``   the per-layer metrics and latency budgets
``python3 bench/run.py --smoke``    both of the above with tiny op counts
``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
                                    one run; the last stdout line is the result

Exits non-zero if any output is incorrect.  Writes only under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from summary import load_contract, run_child  # noqa: E402  (needs the sys.path line above)
from workloads import WORKLOADS  # noqa: E402


def stamp(args: argparse.Namespace, info: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **info,
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, one process, one JSON result line."""
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    src = Path(args.src) if args.src else ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    # Set-up starts here: a yardstick reading, then the program's imports
    # (NumPy and SciPy come with them), then the bring-ups inside the run.
    # (NumPy's kernel has to wait: importing it is part of what is timed.)
    before_import = asyncio.run(harness.stdlib_reading())
    started = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.simulation.monte_carlo  # noqa: F401

    import_s = time.perf_counter() - started
    if args.trace:
        import traced

        result = traced.run(workload, args.seed, args.smoke)
    elif workload.kind == "mc":
        result = harness.run_mc_e2e(
            workload, args.seed, args.seconds, import_s, before_import, args.smoke
        )
    else:
        result = asyncio.run(
            harness.run_service_e2e(
                workload, args.seed, args.seconds, import_s, before_import, args.smoke,
                flip_history=args.flip_history,
            )
        )
    verdict = result["verdict"]
    record = {
        "stamp": stamp(args, result["info"]),
        "verdict": verdict,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    for text in result.get("report", []):
        print(text)
    for problem in verdict["problems"]:
        print(f"INCORRECT {args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(verdict["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(verdict["failed"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if verdict["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; print every metric by name."""
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    passes = [1] if args.traced else ([0, 1] if args.smoke else [0])
    exit_code = 0
    for trace in passes:
        declared = contract["per_layer" if trace else "end_to_end"]
        for entry in contract["workloads"]:
            name = entry["name"]
            code, result, text = run_child(
                name, args.seed, seconds, trace, *(("--smoke",) if args.smoke else ())
            )
            if code != 0 or not result.get("correct"):
                exit_code = 1
            print(f"== {name} (trace={trace}) == {entry['why']}")
            if text:
                print(text)
            if not result:
                print("   no result (the run failed)")
                continue
            print(
                f"   correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}"
            )
            record = json.loads(
                (OUT_DIR / f"run-{name}-seed{args.seed}-trace{trace}.json").read_text()
            )
            info = record["stamp"]
            samples = {
                "read_p50_ms": info.get("solo_reads"),
                "write_p50_ms": info.get("solo_writes"),
                "ops_per_s": info.get("rounds"),
                "cpu_us_per_op": info.get("rounds"),
                "setup_s": len(info.get("bringup_s", [])),
            }
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    print(f"   {metric['name']:<34} MISSING")
                    exit_code = 1
                    continue
                count = samples.get(metric["name"])
                suffix = f"  (n={count})" if count else ""
                print(f"   {metric['name']:<34} {got['value']:>14.4f} {got['unit']}{suffix}")
    return exit_code


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="per-layer pass over every workload")
    parser.add_argument("--smoke", action="store_true", help="tiny op counts (seconds, not minutes)")
    parser.add_argument("--src", help="source tree to measure (default: this checkout's src/)")
    parser.add_argument("--flip-history", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
