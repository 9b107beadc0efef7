"""Benchmark: empirical check of Theorems 3.2, 4.2 and 5.2.

Workload: the three declarative theorem scenarios of
:func:`repro.experiments.consistency.theorem_scenarios` — benign
ε-intersecting under independent crashes, signed dissemination under silent
Byzantine servers, threshold masking under colluding forgers — each run as
hundreds (sequential oracle) / tens of thousands (batch engine) of
independent write/read trials, measuring the fraction of reads that return
the last written value.

Shape expectations: on both engines the measured miss rate stays below the
analytical ε of the underlying quorum system (plus Monte-Carlo noise),
fabricated values are essentially never observed in the dissemination and
masking settings.  The masking scenario's sequential and batch wall times at
equal trial counts are reported, not asserted: speed is measured by the
repository benchmark (``bench/``), never by a wall-clock threshold here.
"""

from __future__ import annotations

import math
import time

from repro.experiments.consistency import (
    run_consistency_scenarios,
    theorem_scenarios,
)
from repro.simulation.monte_carlo import estimate_read_consistency

N = 64
B = 8
SEQUENTIAL_TRIALS = 250
BATCH_TRIALS = 20_000


def run_all_protocols(engine: str, trials: int):
    scenarios = theorem_scenarios(n=N, b=B)
    reports = run_consistency_scenarios(scenarios, trials=trials, seed=11, engine=engine)
    return {name: (scenarios[name].system.epsilon, reports[name]) for name in scenarios}


def _check_results(results, lines, engine):
    lines.append(f"Protocol consistency on engine={engine!r}:")
    for name, (epsilon, report) in sorted(results.items()):
        lines.append(
            f"  {name:14s} analytical >= {1 - epsilon:.4f}   "
            f"measured fresh = {report.fresh_fraction:.4f}   "
            f"fabricated = {report.fabricated_fraction:.4f}"
        )
        # Allow Monte-Carlo noise plus the small crash-failure handicap of the
        # benign run (crashes are not part of Theorem 3.2's epsilon).
        assert report.fresh_fraction >= 1 - epsilon - 0.06
        # Fabrication is bounded by epsilon; allow three binomial standard
        # deviations of noise on top (matters at the sequential trial count).
        noise = 3.0 * math.sqrt(epsilon * (1 - epsilon) / report.trials)
        assert report.fabricated_fraction <= epsilon + noise


def test_protocol_consistency(benchmark, report_sink):
    results = benchmark.pedantic(
        run_all_protocols, args=("sequential", SEQUENTIAL_TRIALS), rounds=1, iterations=1
    )
    lines = []
    _check_results(results, lines, "sequential")
    # The same three scenarios on the vectorised engine, at 80x the trials.
    _check_results(run_all_protocols("batch", BATCH_TRIALS), lines, "batch")
    report_sink("\n".join(lines))


def test_masking_batch_speedup(report_sink):
    """Report the batch engine's speed-up over the sequential oracle (masking)."""
    spec = theorem_scenarios(n=N, b=B)["masking"]
    trials = 400

    start = time.perf_counter()
    sequential = estimate_read_consistency(spec, trials=trials, seed=3)
    sequential_s = time.perf_counter() - start

    # Best of three keeps the comparison robust against scheduler noise.
    batch_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = estimate_read_consistency(spec, trials=trials, seed=3, engine="batch")
        batch_s = min(batch_s, time.perf_counter() - start)

    speedup = sequential_s / batch_s
    report_sink(
        f"Masking consistency at {trials} trials: sequential {sequential_s:.3f}s, "
        f"batch {batch_s * 1000:.1f}ms ({speedup:.0f}x)"
    )
    assert batch.trials == sequential.trials == trials
