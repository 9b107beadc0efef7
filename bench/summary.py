"""Shared by ``agree.py`` and ``compare.py``: run passes, summarise samples."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: {workload: {metric: value}} of one pass over every workload.
Pass = Dict[str, Dict[str, float]]


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(
    name: str, seed: int, seconds: int, trace: int, *extra: str
) -> Tuple[int, Dict[str, Any], str]:
    """One workload in a fresh process: (exit code, result line, the other output)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=180)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, {}, done.stdout
    return done.returncode, result, "\n".join(lines[:-1])


def run_pass(seed: int, seconds: int, workloads: Sequence[str], src: Optional[str] = None) -> Pass:
    """One end-to-end run of each workload, each in a fresh process."""
    results: Pass = {}
    for name in workloads:
        code, result, _ = run_child(name, seed, seconds, 0, *(("--src", src) if src else ()))
        if code != 0:
            raise SystemExit(f"{name} (seed {seed}) exited {code}: not comparable")
        results[name] = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, float(statistics.median(values)), q3


def worsening(better: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if better == "lower" else -change


def column(passes: List[Pass], workload: str, metric: str) -> List[float]:
    return [one[workload][metric] for one in passes]
