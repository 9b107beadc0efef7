"""Tests for the dissemination (self-verifying data) register protocol (Section 4)."""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailurePlan
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
)


def make_register(n=50, b=10, plan=None, seed=0, epsilon=1e-2):
    system = ProbabilisticDisseminationSystem.for_epsilon(n, b, epsilon)
    cluster = Cluster(n, failure_plan=plan or FailurePlan.none(), seed=seed)
    register = ProbabilisticRegister(
        system,
        cluster,
        rng=random.Random(seed),
        rule=ReadRule(signatures=SignatureScheme(b"election-key")),
    )
    return system, cluster, register


class TestSignedWrites:
    def test_writes_carry_valid_signatures(self):
        _, cluster, register = make_register()
        outcome = register.write("value")
        for server_id in outcome.quorum:
            stored = cluster.server(server_id).storage.get("x")
            assert stored is not None
            assert register.rule.signatures.verify("x", stored.value, stored.timestamp, stored.signature)

    def test_timestamps_increase(self):
        _, _, register = make_register()
        assert register.write("a").timestamp < register.write("b").timestamp


class TestByzantineReads:
    def test_forged_values_are_rejected(self):
        # Every Byzantine server fabricates a value with a huge timestamp; the
        # reader must never return it because the signature cannot verify.
        n, b = 50, 10
        plan = FailurePlan(
            byzantine={
                server: ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
                for server in range(b)
            }
        )
        _, _, register = make_register(n=n, b=b, plan=plan)
        register.write("honest")
        for _ in range(20):
            outcome = register.read()
            assert outcome.value != "FORGED"
        assert register.forged_replies_rejected > 0

    def test_silent_byzantine_servers_only_cause_staleness(self):
        n, b = 50, 10
        plan = FailurePlan(
            byzantine={server: ByzantineSilentBehavior() for server in range(b)}
        )
        _, _, register = make_register(n=n, b=b, plan=plan)
        write = register.write("honest")
        outcome = register.read()
        assert outcome.value in ("honest", None)
        if outcome.value == "honest":
            assert outcome.timestamp == write.timestamp

    def test_replay_attack_returns_old_but_valid_value(self):
        n, b = 50, 10
        plan = FailurePlan(
            byzantine={server: ByzantineReplayBehavior() for server in range(b)}
        )
        _, _, register = make_register(n=n, b=b, plan=plan)
        register.write("v1")
        register.write("v2")
        outcome = register.read()
        # The reply can be stale (v1) only if no correct up-to-date server was
        # hit, but it can never be a value that was never written.
        assert outcome.value in ("v1", "v2")

    def test_consistency_close_to_one_minus_epsilon(self):
        # Theorem 4.2 check: with b random Byzantine servers the read misses
        # the latest write with probability at most epsilon (up to MC noise).
        n, b, epsilon = 36, 6, 0.05
        system = ProbabilisticDisseminationSystem.for_epsilon(n, b, epsilon)
        scheme = SignatureScheme(b"key")
        misses = 0
        trials = 300
        for seed in range(trials):
            rng = random.Random(seed)
            plan = FailurePlan.random_byzantine(
                n,
                b,
                behavior_factory=lambda: ByzantineForgeBehavior(
                    "FORGED", Timestamp.forged_maximum()
                ),
                rng=rng,
            )
            cluster = Cluster(n, failure_plan=plan, seed=seed)
            register = ProbabilisticRegister(
                system, cluster, rng=rng, rule=ReadRule(signatures=scheme)
            )
            write = register.write("honest")
            outcome = register.read()
            if outcome.timestamp != write.timestamp or outcome.value != "honest":
                misses += 1
        assert misses / trials <= epsilon + 0.05
