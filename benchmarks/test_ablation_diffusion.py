"""Ablation: lazy diffusion's effect on read staleness (Section 1.1).

The paper argues that coupling a probabilistic quorum system with a gossip
diffusion mechanism drives the probability of inconsistency "further toward
zero when updates are sufficiently dispersed in time".  This ablation runs
the full protocol stack with a deliberately loose construction (so that
staleness is measurable at all) and varies the number of gossip rounds
executed between consecutive writes.

Shape expectations: the fraction of fresh reads increases monotonically (up
to Monte-Carlo noise) with the number of gossip rounds, approaching 1 once a
handful of rounds is enough to reach most correct servers; the zero-round
column reproduces the raw quorum-only behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.simulation.monte_carlo import estimate_staleness_distribution
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec

N = 36
QUORUM_SIZE = 5  # deliberately loose: epsilon ~ 0.43, so staleness is visible
GOSSIP_ROUNDS = [0, 1, 2, 4, 8]
TRIALS = 120


def sweep_gossip_rounds():
    system = UniformEpsilonIntersectingSystem(N, QUORUM_SIZE)
    results = {}
    for rounds in GOSSIP_ROUNDS:
        workload = WorkloadSpec(writes=4, gossip_rounds_between_writes=rounds, gossip_fanout=3)
        report = estimate_staleness_distribution(
            ScenarioSpec(system=system, workload=workload), trials=TRIALS, seed=29
        )
        results[rounds] = report
    return {"epsilon": system.epsilon, "reports": results}


@pytest.mark.slow
def test_ablation_diffusion(benchmark, report_sink):
    outcome = benchmark.pedantic(sweep_gossip_rounds, rounds=1, iterations=1)
    reports = outcome["reports"]

    lines = [
        f"Ablation: gossip rounds between writes (R(n={N}, q={QUORUM_SIZE}), "
        f"epsilon = {outcome['epsilon']:.3f})",
        "  rounds   fresh fraction   mean staleness lag",
    ]
    for rounds in GOSSIP_ROUNDS:
        report = reports[rounds]
        lines.append(
            f"  {rounds:6d}   {report.fresh_fraction:14.3f}   {report.mean_lag:18.3f}"
        )
    report_sink("\n".join(lines))

    # Gossip helps: the fully-gossiped run is clearly fresher than the raw run,
    # and the mean staleness lag shrinks accordingly.
    assert reports[8].fresh_fraction > reports[0].fresh_fraction + 0.1
    assert reports[8].mean_lag < reports[0].mean_lag
    # With 8 rounds of fanout-3 gossip on 36 servers, nearly every read is fresh.
    assert reports[8].fresh_fraction > 0.9
    # Weak monotonicity (up to Monte-Carlo noise) across the sweep.
    fresh = [reports[r].fresh_fraction for r in GOSSIP_ROUNDS]
    assert all(later >= earlier - 0.08 for earlier, later in zip(fresh, fresh[1:]))
