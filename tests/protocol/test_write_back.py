"""Tests for the read-repair (write-back) register."""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.variable import ProbabilisticRegister
from repro.protocol.write_back import WriteBackRegister
from repro.simulation.cluster import Cluster


def make_register(n=36, q=8, seed=0, cls=WriteBackRegister):
    system = UniformEpsilonIntersectingSystem(n, q)
    cluster = Cluster(n, seed=seed)
    return cls(system, cluster, rng=random.Random(seed)), cluster


class TestWriteBack:
    def test_read_returns_latest_and_counts_repairs(self):
        register, _ = make_register()
        register.write("v1")
        register.write("v2")
        outcome = register.read()
        assert outcome.value == "v2"
        assert register.write_backs_performed == 1

    def test_empty_reads_do_not_write_back(self):
        register, _ = make_register()
        outcome = register.read()
        assert outcome.is_empty
        assert register.write_backs_performed == 0

    def test_replica_count_grows_with_reads(self):
        register, _ = make_register()
        register.write("value")
        initial = register.replicas_holding_latest()
        for _ in range(5):
            register.read()
        assert register.replicas_holding_latest() > initial

    def test_replicas_holding_latest_before_any_write(self):
        register, _ = make_register()
        assert register.replicas_holding_latest() == 0

    def test_write_back_keeps_the_writers_timestamp(self):
        register, cluster = make_register()
        write = register.write("value")
        register.read()
        for server in cluster.servers:
            stored = server.storage.get("x")
            if stored is not None:
                assert stored.timestamp == write.timestamp

    def test_a_signed_rule_signs_the_written_back_pair(self):
        rule = ReadRule(signatures=SignatureScheme(b"writer"))
        system = UniformEpsilonIntersectingSystem(36, 8)
        cluster = Cluster(36, seed=0)
        register = WriteBackRegister(system, cluster, rng=random.Random(0), rule=rule)
        register.write("value")
        register.read()
        stored = [server.storage["x"] for server in cluster.servers if "x" in server.storage]
        assert len(stored) > 8  # the write quorum plus the repaired replicas
        assert all(rule.verifies("x", record) for record in stored)

    def test_read_repair_reduces_future_misses(self):
        # With a loose construction, repeated plain reads keep the same miss
        # probability, while write-back reads make later reads progressively
        # safer.  Compare the miss rate of a *final* read after several
        # intermediate reads, with and without write-back.
        n, q = 36, 6
        system = UniformEpsilonIntersectingSystem(n, q)

        def final_read_miss_rate(cls, trials=250):
            misses = 0
            for seed in range(trials):
                cluster = Cluster(n, seed=seed)
                register = cls(system, cluster, rng=random.Random(seed))
                write = register.write("value")
                for _ in range(3):
                    register.read()  # intermediate reads (repairing or not)
                final = register.read()
                if final.timestamp != write.timestamp:
                    misses += 1
            return misses / trials

        plain_rate = final_read_miss_rate(ProbabilisticRegister)
        repaired_rate = final_read_miss_rate(WriteBackRegister)
        assert repaired_rate < plain_rate
        # And the repaired rate is far below the single-access epsilon.
        assert repaired_rate < system.epsilon / 2
