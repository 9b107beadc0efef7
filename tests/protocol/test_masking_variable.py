"""Tests for the masking (threshold read) register protocol (Section 5)."""

from __future__ import annotations

import random

import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ProtocolError
from repro.protocol.selection import ReadRule
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel, FailurePlan


def make_register(n=100, b=10, epsilon=1e-2, plan=None, seed=0):
    system = ProbabilisticMaskingSystem.for_epsilon(n, b, epsilon)
    cluster = Cluster(n, failure_plan=plan or FailurePlan(), seed=seed)
    register = ProbabilisticRegister(
        system, cluster, rng=random.Random(seed), rule=ReadRule(threshold=system.read_threshold)
    )
    return system, cluster, register


class TestThresholdRead:
    def test_read_threshold_exposed(self):
        system, _, register = make_register()
        assert register.rule.threshold == system.read_threshold

    def test_fresh_read_without_failures(self):
        _, _, register = make_register()
        write = register.write("value")
        outcome = register.read()
        assert outcome.value == "value"
        assert outcome.timestamp == write.timestamp
        assert outcome.votes >= register.rule.threshold
        assert outcome.passed_threshold
        assert register.classify_read(outcome) == "fresh"

    def test_read_before_write_is_empty(self):
        _, _, register = make_register()
        outcome = register.read()
        assert outcome.is_empty
        assert not outcome.passed_threshold
        with pytest.raises(ProtocolError):
            register.classify_read(outcome)

    def test_value_below_threshold_is_rejected(self):
        # Write through the register, then crash so many servers that fewer
        # than k holders can remain in any read quorum: the read returns ⊥
        # rather than accepting an under-vouched value.
        system, cluster, register = make_register(n=100, b=10)
        write = register.write("value")
        holders = sorted(write.quorum)
        for server in holders[: len(holders) - (register.rule.threshold - 1)]:
            cluster.crash(server)
        outcome = register.read()
        assert outcome.value in (None, "value")
        if outcome.value is None:
            assert register.classify_read(outcome) == "empty"


class TestByzantineMasking:
    def test_colluding_forgers_rarely_defeat_threshold(self):
        # The strongest attack: b colluding servers all report the same forged
        # value with a maximal timestamp.  The forgery succeeds only when the
        # read quorum contains at least k of them, which has probability well
        # below the system's epsilon.
        n, b = 100, 10
        system = ProbabilisticMaskingSystem.for_epsilon(n, b, 1e-2)
        fabricated = 0
        trials = 300
        for seed in range(trials):
            rng = random.Random(seed)
            plan = FailureModel.colluding_forgers(
                b, "FORGED", Timestamp.forged_maximum()
            ).sample_plan_for(n, rng)
            cluster = Cluster(n, failure_plan=plan, seed=seed)
            register = ProbabilisticRegister(
                system, cluster, rng=rng, rule=ReadRule(threshold=system.read_threshold)
            )
            register.write("honest")
            outcome = register.read()
            if outcome.value == "FORGED":
                fabricated += 1
        assert fabricated / trials <= 0.02

    def test_consistency_close_to_one_minus_epsilon(self):
        n, b, epsilon = 100, 10, 1e-2
        system = ProbabilisticMaskingSystem.for_epsilon(n, b, epsilon)
        misses = 0
        trials = 300
        for seed in range(trials):
            rng = random.Random(seed)
            plan = FailureModel.colluding_forgers(
                b, "FORGED", Timestamp.forged_maximum()
            ).sample_plan_for(n, rng)
            cluster = Cluster(n, failure_plan=plan, seed=seed)
            register = ProbabilisticRegister(
                system, cluster, rng=rng, rule=ReadRule(threshold=system.read_threshold)
            )
            write = register.write("honest")
            outcome = register.read()
            if outcome.timestamp != write.timestamp:
                misses += 1
        assert misses / trials <= epsilon + 0.04

    def test_classification_of_fabricated_value(self):
        # Force fabrication by making *every* server a colluding forger.
        n, b = 25, 25
        system = ProbabilisticMaskingSystem(25, 10, 5)
        plan = FailureModel.colluding_forgers(
            n, "FORGED", Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(0))
        cluster = Cluster(n, failure_plan=plan, seed=0)
        register = ProbabilisticRegister(
            system, cluster, rng=random.Random(0), rule=ReadRule(threshold=system.read_threshold)
        )
        register.write("honest")
        outcome = register.read()
        assert outcome.value == "FORGED"
        assert register.classify_read(outcome) == "fabricated"
