"""Quickstart: build, inspect and use a probabilistic quorum system.

This walkthrough covers the library's core objects in the order the paper
introduces them:

1. construct the ε-intersecting system ``R(n, ℓ√n)`` and inspect its three
   quality measures (load, fault tolerance, failure probability);
2. compare it against the strict majority and grid baselines;
3. replicate a variable with the Section 3.1 access protocol on a simulated
   cluster and watch the consistency guarantee hold (and degrade gracefully
   when the construction is made deliberately loose);
4. repeat in a Byzantine environment with the dissemination and masking
   constructions: the same register, reading through a signed or a
   vote-threshold ``ReadRule``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import (
    GridQuorumSystem,
    MajorityQuorumSystem,
    ProbabilisticDisseminationSystem,
    ProbabilisticMaskingSystem,
    UniformEpsilonIntersectingSystem,
)
from repro.protocol import ProbabilisticRegister, ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation import Cluster, FailurePlan


def section(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def step_1_construct_and_measure() -> UniformEpsilonIntersectingSystem:
    section("1. The epsilon-intersecting construction R(n, l*sqrt(n))")
    n = 100
    system = UniformEpsilonIntersectingSystem.for_epsilon(n, epsilon=1e-3)
    print(f"universe size          n  = {system.n}")
    print(f"quorum size            q  = {system.quorum_size}   (l = {system.ell:.2f})")
    print(f"exact epsilon              = {system.epsilon:.2e}")
    print(f"paper bound e^(-l^2)       = {system.epsilon_bound():.2e}")
    print(f"load                       = {system.load():.3f}   (~ 1/sqrt(n))")
    print(f"fault tolerance            = {system.fault_tolerance()}   (~ n)")
    for p in (0.3, 0.5, 0.7):
        print(f"failure probability p={p}  = {system.failure_probability(p):.2e}")
    return system


def step_2_compare_with_strict_baselines(system: UniformEpsilonIntersectingSystem) -> None:
    section("2. Strict baselines: majority threshold and Maekawa grid")
    majority = MajorityQuorumSystem(system.n)
    grid = GridQuorumSystem(system.n)
    rows = [
        ("probabilistic R(n,q)", system.quorum_size, system.load(), system.fault_tolerance()),
        ("strict majority", majority.quorum_size, majority.load(), majority.fault_tolerance()),
        ("strict grid", grid.min_quorum_size(), grid.load(), grid.fault_tolerance()),
    ]
    print(f"{'system':24s} {'quorum':>8s} {'load':>8s} {'fault tol':>10s}")
    for name, size, load, fault_tolerance in rows:
        print(f"{name:24s} {size:8d} {load:8.3f} {fault_tolerance:10d}")
    print(
        "\nThe probabilistic construction keeps grid-like quorum sizes while "
        "its fault tolerance is Theta(n), escaping the strict trade-off."
    )


def step_3_replicate_a_variable() -> None:
    section("3. The Section 3.1 access protocol on a simulated cluster")
    n = 100
    system = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-3)
    cluster = Cluster(n, failure_plan=FailurePlan.random_crashes(n, 15, rng=random.Random(1)))
    register = ProbabilisticRegister(system, cluster, name="config", rng=random.Random(2))

    register.write({"version": 1, "leader": "server-7"})
    register.write({"version": 2, "leader": "server-9"})
    outcome = register.read()
    print(f"read value            = {outcome.value}")
    print(f"read timestamp        = {outcome.timestamp}")
    print(f"servers reporting it  = {len(outcome.reporting_servers)} of {len(outcome.quorum)}")
    print(f"fresh?                = {register.read_is_fresh(outcome)}")

    # A deliberately loose construction makes the epsilon visible.
    loose = UniformEpsilonIntersectingSystem(n, 6)
    print(f"\nloose construction: q=6, epsilon = {loose.epsilon:.2f}")
    misses = 0
    trials = 300
    for seed in range(trials):
        c = Cluster(n, seed=seed)
        r = ProbabilisticRegister(loose, c, rng=random.Random(seed))
        write = r.write("v")
        if r.read().timestamp != write.timestamp:
            misses += 1
    print(f"measured miss rate over {trials} write/read pairs = {misses / trials:.3f}")


def step_4_byzantine_environments() -> None:
    section("4. Byzantine environments: dissemination and masking constructions")
    n, b = 100, 15
    rng = random.Random(3)

    dissemination = ProbabilisticDisseminationSystem.for_epsilon(n, b, 1e-3)
    print(
        f"dissemination system: q={dissemination.quorum_size}, b={b}, "
        f"epsilon={dissemination.epsilon:.2e} (strict systems max out at b={(n - 1) // 3})"
    )
    plan = FailurePlan.colluding_forgers(n, b, "FORGED", Timestamp.forged_maximum(), rng=rng)
    cluster = Cluster(n, failure_plan=plan, seed=3)
    signed = ProbabilisticRegister(
        dissemination, cluster, rng=rng, rule=ReadRule(signatures=SignatureScheme(b"writer-key"))
    )
    signed.write("signed-payment-record")
    outcome = signed.read()
    print(f"read through {b} forging servers -> {outcome.value!r} (forgeries rejected)")

    masking = ProbabilisticMaskingSystem.for_epsilon(n, 10, 1e-3)
    print(
        f"\nmasking system: q={masking.quorum_size}, k={masking.read_threshold}, "
        f"b=10, epsilon={masking.epsilon:.2e}"
    )
    plan = FailurePlan.colluding_forgers(n, 10, "FORGED", Timestamp.forged_maximum(), rng=rng)
    cluster = Cluster(n, failure_plan=plan, seed=4)
    voted = ProbabilisticRegister(
        masking, cluster, rng=rng, rule=ReadRule(threshold=masking.read_threshold)
    )
    voted.write("unsigned-sensor-reading")
    outcome = voted.read()
    print(
        f"read through 10 colluding forgers -> {outcome.value!r} "
        f"({outcome.votes} matching votes, threshold {outcome.threshold})"
    )


def main() -> None:
    system = step_1_construct_and_measure()
    step_2_compare_with_strict_baselines(system)
    step_3_replicate_a_variable()
    step_4_byzantine_environments()
    print("\nDone.  See examples/voting_election.py and examples/mobile_location.py")
    print("for the end-to-end applications from Section 1.1 of the paper.")


if __name__ == "__main__":
    main()
