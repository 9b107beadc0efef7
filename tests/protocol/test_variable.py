"""Tests for the ε-intersecting register protocol (Section 3.1)."""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.exceptions import ProtocolError
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailurePlan


def make_register(n=25, q=10, plan=None, seed=0):
    system = UniformEpsilonIntersectingSystem(n, q)
    cluster = Cluster(n, failure_plan=plan or FailurePlan(), seed=seed)
    register = ProbabilisticRegister(system, cluster, rng=random.Random(seed))
    return system, cluster, register


class TestWrite:
    def test_write_touches_exactly_one_quorum(self):
        _, cluster, register = make_register()
        outcome = register.write("v1")
        assert len(outcome.quorum) == 10
        assert outcome.acknowledged == outcome.quorum
        assert cluster.servers_holding("x", "v1") == outcome.quorum
        assert register.writes_performed == 1

    def test_timestamps_strictly_increase(self):
        _, _, register = make_register()
        first = register.write("v1")
        second = register.write("v2")
        third = register.write("v3")
        assert first.timestamp < second.timestamp < third.timestamp

    def test_crashed_servers_do_not_ack(self):
        plan = FailurePlan(crashed=frozenset(range(5)))
        _, _, register = make_register(plan=plan)
        outcome = register.write("v1")
        assert outcome.acknowledged == outcome.quorum - frozenset(range(5))

    def test_last_write_tracked(self):
        _, _, register = make_register()
        assert register.last_write is None
        outcome = register.write("v1")
        assert register.last_write == outcome


class TestRead:
    def test_read_before_any_write_returns_empty(self):
        _, _, register = make_register()
        outcome = register.read()
        assert outcome.is_empty
        assert outcome.value is None
        # No server has ever stored the variable, so no value-bearing replies.
        assert outcome.replies == 0

    def test_read_returns_latest_value_without_failures(self):
        _, _, register = make_register()
        register.write("old")
        register.write("new")
        outcome = register.read()
        assert outcome.value == "new"
        assert not outcome.is_empty
        assert outcome.reporting_servers
        assert register.read_is_fresh(outcome)

    def test_read_returns_highest_timestamp_not_latest_arrival(self):
        # Write old value everywhere manually, then a newer one through the
        # register: readers must pick the newer timestamp.
        system, cluster, register = make_register()
        register.write("v1")
        register.write("v2")
        outcome = register.read()
        assert outcome.value == "v2"

    def test_read_with_many_crashes_can_be_stale_or_empty(self):
        # Crash enough servers that the original write quorum is mostly gone;
        # the read should never invent a value that was not written.
        plan = FailurePlan(crashed=frozenset(range(10)))
        _, _, register = make_register(plan=plan)
        register.write("v1")
        outcome = register.read()
        assert outcome.value in ("v1", None)

    def test_read_counts(self):
        _, _, register = make_register()
        register.write("v")
        register.read()
        register.read()
        assert register.reads_performed == 2

    def test_read_is_fresh_requires_a_write(self):
        _, _, register = make_register()
        outcome = register.read()
        with pytest.raises(ProtocolError):
            register.read_is_fresh(outcome)


class TestConsistencyStatistics:
    def test_empirical_consistency_matches_epsilon(self):
        # Over many independent write/read pairs the miss rate approximates
        # the analytical epsilon (Theorem 3.2).
        system = UniformEpsilonIntersectingSystem(25, 5)  # epsilon ~ 0.29: measurable
        misses = 0
        trials = 400
        for seed in range(trials):
            cluster = Cluster(25, seed=seed)
            register = ProbabilisticRegister(system, cluster, rng=random.Random(seed))
            write = register.write("v")
            outcome = register.read()
            if outcome.timestamp != write.timestamp:
                misses += 1
        assert misses / trials == pytest.approx(system.epsilon, abs=0.08)

    def test_mismatched_cluster_size_rejected(self):
        system = UniformEpsilonIntersectingSystem(25, 5)
        cluster = Cluster(30)
        with pytest.raises(ProtocolError):
            ProbabilisticRegister(system, cluster)
