"""Example: how far Byzantine tolerance can be pushed (Sections 4 and 5).

Strict Byzantine quorum systems hit hard ceilings: b <= (n-1)/3 for
dissemination systems and b <= (n-1)/4 for masking systems, with load at
least sqrt((b+1)/n) and sqrt((2b+1)/n).  The probabilistic constructions
break both.  This example sweeps the Byzantine threshold b for a fixed
universe and reports, for each b:

* whether a strict construction exists at all, and its quorum size;
* the probabilistic construction calibrated for epsilon <= 1e-3, its quorum
  size and load;
* the empirical consistency of the actual read/write protocol under that
  many colluding faulty servers.

Run with::

    python examples/byzantine_tolerance.py
"""

from __future__ import annotations

import random

from repro import (
    ProbabilisticDisseminationSystem,
    ThresholdDisseminationQuorumSystem,
    strict_load_lower_bound,
    strict_resilience_bound,
)
from repro.exceptions import ConfigurationError
from repro.protocol import ProbabilisticRegister, ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation import Cluster, FailurePlan

N = 120
EPSILON_TARGET = 1e-3
BYZANTINE_SWEEP = [5, 10, 20, 39, 45, 60, 75]
TRIALS = 150


def strict_row(b: int) -> str:
    try:
        system = ThresholdDisseminationQuorumSystem(N, b)
        return f"quorum {system.quorum_size:3d}, load {system.load():.2f}"
    except ConfigurationError:
        return "impossible (b > (n-1)/3)"


def measure_protocol(system: ProbabilisticDisseminationSystem, b: int) -> float:
    """Empirical fraction of fresh reads under b colluding Byzantine servers."""
    rule = ReadRule(signatures=SignatureScheme(b"sweep-key"))
    fresh = 0
    for seed in range(TRIALS):
        rng = random.Random(seed)
        plan = FailurePlan.colluding_forgers(
            N, b, "FORGED", Timestamp.forged_maximum(), rng=rng
        )
        cluster = Cluster(N, failure_plan=plan, seed=seed)
        register = ProbabilisticRegister(system, cluster, rng=rng, rule=rule)
        write = register.write("honest")
        outcome = register.read()
        if outcome.timestamp == write.timestamp and outcome.value == "honest":
            fresh += 1
    return fresh / TRIALS


def main() -> None:
    strict_ceiling = strict_resilience_bound(N, "dissemination")
    print(f"universe size n = {N}; strict dissemination systems tolerate at most b = {strict_ceiling}")
    print(f"{'b':>4s}  {'strict construction':28s}  {'probabilistic construction':34s}  {'measured fresh reads':>20s}")
    for b in BYZANTINE_SWEEP:
        strict_text = strict_row(b)
        try:
            system = ProbabilisticDisseminationSystem.for_epsilon(N, b, EPSILON_TARGET)
            prob_text = (
                f"quorum {system.quorum_size:3d}, load {system.load():.2f}, "
                f"eps {system.epsilon:.0e}"
            )
            measured = f"{measure_protocol(system, b):.3f}"
            bound_note = (
                " (beats strict load bound)"
                if system.load() < strict_load_lower_bound(N, b, "dissemination")
                else ""
            )
        except ConfigurationError:
            prob_text = "no construction at this epsilon"
            measured = "-"
            bound_note = ""
        print(f"{b:4d}  {strict_text:28s}  {prob_text:34s}  {measured:>20s}{bound_note}")

    print(
        "\nAbove b = (n-1)/3 no strict dissemination system exists at all, while the "
        "probabilistic construction keeps working (with growing quorums) for any "
        "constant fraction of Byzantine servers, and its measured consistency stays "
        "at 1 - epsilon."
    )


if __name__ == "__main__":
    main()
