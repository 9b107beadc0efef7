"""End-to-end example: the Costa-Rica-style electronic voting system.

Section 1.1 of the paper describes the application that motivated
probabilistic quorums: voter IDs must be "locked" country-wide when
presented at any of ~1000 voting stations, so that large-scale repeat voting
is impossible, while the election must keep making progress even when many
stations are down and some have been tampered with.

This example simulates a small election:

* ``n`` replica servers hold the lock state (think: the voting stations'
  shared back-end replicas);
* some servers are crashed (benign failures) and some are Byzantine
  (bribed officials) that collude to fabricate lock records;
* honest voters vote once; a pool of fraudsters repeatedly tries to reuse
  their IDs at different stations.

The output reports the audit: how many ballots were accepted, how many
repeat attempts were rejected, and how many slipped through (the ε events).

Run with::

    python examples/voting_election.py
"""

from __future__ import annotations

import random

from repro import ProbabilisticMaskingSystem
from repro.apps import VotingService
from repro.protocol.timestamps import Timestamp
from repro.simulation import Cluster, FailureModel, FailurePlan

N_SERVERS = 120
N_STATIONS = 40
N_HONEST_VOTERS = 300
N_FRAUDSTERS = 15
REPEAT_ATTEMPTS_PER_FRAUDSTER = 8
BYZANTINE_SERVERS = 12
CRASHED_SERVERS = 10
EPSILON_TARGET = 1e-3


def build_service(rng: random.Random) -> VotingService:
    """Assemble the lock service over a masking quorum system.

    Masking quorums are used because the lock records are not self-verifying
    in this configuration: a reader believes a lock only if at least ``k``
    servers of its quorum vouch for it, so colluding Byzantine servers cannot
    fabricate locks (to disenfranchise voters) unless the read quorum hits at
    least ``k`` of them.
    """
    system = ProbabilisticMaskingSystem.for_epsilon(N_SERVERS, BYZANTINE_SERVERS, EPSILON_TARGET)
    byzantine_plan = FailureModel.colluding_forgers(
        BYZANTINE_SERVERS, {"station": -1, "voter": "fabricated-lock"}, Timestamp.forged_maximum()
    ).sample_plan_for(N_SERVERS, rng)
    # Crash a further batch of servers, disjoint from the Byzantine ones.
    crashable = sorted(set(range(N_SERVERS)) - byzantine_plan.byzantine_servers)
    crashed = frozenset(rng.sample(crashable, CRASHED_SERVERS))
    plan = FailurePlan(crashed=crashed, byzantine=dict(byzantine_plan.byzantine))
    cluster = Cluster(N_SERVERS, failure_plan=plan, seed=rng.randrange(2**32))
    print(
        f"cluster: {N_SERVERS} servers, {len(crashed)} crashed, "
        f"{BYZANTINE_SERVERS} Byzantine (colluding forgers)"
    )
    print(
        f"masking system: quorum size {system.quorum_size}, read threshold "
        f"{system.read_threshold}, epsilon <= {system.epsilon:.1e}"
    )
    return VotingService(system, cluster, rng=rng)


def run_election(service: VotingService, rng: random.Random) -> None:
    """Simulate election day."""
    # Honest voters: each votes exactly once at a random station.
    rejected_honest = 0
    for index in range(N_HONEST_VOTERS):
        outcome = service.cast_vote(f"citizen-{index:04d}", rng.randrange(N_STATIONS))
        if not outcome.accepted:
            rejected_honest += 1

    # Fraudsters: each votes once, then repeatedly tries other stations.
    admitted_repeats = 0
    for index in range(N_FRAUDSTERS):
        voter_id = f"fraudster-{index:02d}"
        service.cast_vote(voter_id, rng.randrange(N_STATIONS))
        for _ in range(REPEAT_ATTEMPTS_PER_FRAUDSTER):
            outcome = service.cast_vote(voter_id, rng.randrange(N_STATIONS))
            if outcome.accepted:
                admitted_repeats += 1

    audit = service.audit()
    print("\n--- election audit ---")
    print(f"ballots presented            : {audit.ballots_presented}")
    print(f"ballots accepted             : {audit.ballots_accepted}")
    print(f"distinct voters accepted     : {audit.distinct_voters_accepted}")
    print(f"repeat attempts rejected     : {audit.duplicates_rejected}")
    print(f"repeat attempts admitted     : {audit.duplicates_admitted}")
    print(f"repeat admission rate        : {audit.repeat_admission_rate:.4f}")
    print(f"honest voters wrongly blocked: {rejected_honest}")
    print(f"double voters detected       : {sorted(service.double_voters())}")
    print(
        "\nEach repeat attempt slips through only when its read quorum misses the "
        "entire lock-write quorum — probability <= epsilon — so a fraudster making "
        f"{REPEAT_ATTEMPTS_PER_FRAUDSTER} attempts gets them *all* admitted with "
        f"probability <= epsilon^{REPEAT_ATTEMPTS_PER_FRAUDSTER} (astronomically small)."
    )


def main() -> None:
    rng = random.Random(2026)
    service = build_service(rng)
    run_election(service, rng)


if __name__ == "__main__":
    main()
