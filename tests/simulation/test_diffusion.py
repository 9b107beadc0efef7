"""Tests for the gossip/anti-entropy diffusion engine."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.quorum.base import sample_subset_mask
from repro.simulation.diffusion import DiffusionEngine, gossip_rounds_batch
from repro.simulation.failures import FailurePlan
from repro.simulation.server import ByzantineForgeBehavior


def seed_one_server(cluster, variable="x", value="v", counter=1):
    cluster.server(0).handle("write", (variable, value, Timestamp(counter, 0), None))


class TestGossipSpread:
    def test_coverage_reaches_everyone_without_failures(self):
        cluster = Cluster(30, seed=1)
        seed_one_server(cluster)
        engine = DiffusionEngine(cluster, fanout=3, rng=random.Random(1))
        assert engine.coverage("x", "v") == pytest.approx(1 / 30)
        engine.run_until_quiescent(["x"])
        assert engine.coverage("x", "v") == 1.0

    def test_coverage_monotonically_nondecreasing(self):
        cluster = Cluster(40, seed=2)
        seed_one_server(cluster)
        engine = DiffusionEngine(cluster, fanout=2, rng=random.Random(2))
        profile = engine.freshness_profile("x", "v", rounds=8)
        assert all(a <= b + 1e-12 for a, b in zip(profile, profile[1:]))
        assert profile[-1] > profile[0]

    def test_newer_values_overwrite_older_ones(self):
        cluster = Cluster(10, seed=3)
        # Server 0 has an old version everywhere, server 1 has the newest.
        for server in range(10):
            cluster.server(server).handle("write", ("x", "old", Timestamp(1, 0), None))
        cluster.server(1).handle("write", ("x", "new", Timestamp(2, 0), None))
        engine = DiffusionEngine(cluster, fanout=3, rng=random.Random(3))
        engine.run_until_quiescent(["x"])
        assert engine.coverage("x", "new") == 1.0

    def test_crashed_servers_do_not_receive(self):
        plan = FailurePlan(crashed=frozenset({5, 6}))
        cluster = Cluster(10, failure_plan=plan, seed=4)
        seed_one_server(cluster)
        engine = DiffusionEngine(cluster, fanout=3, rng=random.Random(4))
        engine.run_rounds(10, ["x"])
        assert cluster.server(5).storage.get("x") is None
        # Coverage counts only correct servers, so it can still reach 1.
        assert engine.coverage("x", "v") == 1.0

    def test_rounds_and_message_counters(self):
        cluster = Cluster(10, seed=5)
        seed_one_server(cluster)
        engine = DiffusionEngine(cluster, fanout=2, rng=random.Random(5))
        engine.run_rounds(3, ["x"])
        assert engine.rounds_run == 3
        assert engine.messages_pushed > 0

    def test_quiescence_bound(self):
        cluster = Cluster(10, seed=6)
        engine = DiffusionEngine(cluster, fanout=2, rng=random.Random(6))
        # Nothing to gossip: quiescent after the first round.
        assert engine.run_until_quiescent(["x"]) == 1


class TestGossipUnderAttack:
    def test_unverified_forgeries_do_not_spread(self):
        scheme = SignatureScheme(b"writer")
        n = 20
        plan = FailurePlan(
            byzantine={
                0: ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
            }
        )
        cluster = Cluster(n, failure_plan=plan, seed=7)
        # A correct server holds a signed honest value.
        honest_ts = Timestamp(1, 0)
        cluster.server(1).handle(
            "write", ("x", "honest", honest_ts, scheme.sign("x", "honest", honest_ts))
        )
        # The Byzantine server's storage claims a forged value.
        cluster.server(0).storage["x"] = cluster.server(0).handle("read", ("x",))

        def verify(variable, stored):
            return scheme.verify(variable, stored.value, stored.timestamp, stored.signature)

        engine = DiffusionEngine(cluster, fanout=3, verify=verify, rng=random.Random(7))
        engine.run_rounds(10, ["x"])
        # The forged value never propagates to correct servers.
        for server_id in range(1, n):
            stored = cluster.server(server_id).storage.get("x")
            assert stored is None or stored.value == "honest"

    def test_validation(self):
        cluster = Cluster(5)
        with pytest.raises(ConfigurationError):
            DiffusionEngine(cluster, fanout=-1)
        with pytest.raises(ConfigurationError):
            DiffusionEngine(cluster, fanout=5)
        # fanout=0 is the identity engine, not a configuration error.
        assert DiffusionEngine(cluster, fanout=0).run_rounds(3) == 0
        engine = DiffusionEngine(cluster, fanout=2)
        with pytest.raises(ConfigurationError):
            engine.run_rounds(-1)


class TestRoundModels:
    @pytest.mark.xfail(
        strict=True,
        reason="batch gossip rounds are synchronous: a server that adopts a "
        "version pushes it only in the next round, while the object engine's "
        "server-order round lets it push in the same one",
    )
    def test_one_round_spreads_a_write_as_far_on_both_engines(self):
        # One fanout-2 round after a write to 5 random servers of 25: the mean
        # share of servers holding the write is a per-trial mean in [0, 1], so
        # the two engines' estimates agree within two Hoeffding bounds.
        n, quorum, trials = 25, 5, 2000
        rng = random.Random(1)
        coverage = 0.0
        for _ in range(trials):
            cluster = Cluster(n, seed=rng.randrange(2**32))
            for server in rng.sample(range(n), quorum):
                cluster.server(server).handle("write", ("x", "v", Timestamp(1, 0), None))
            engine = DiffusionEngine(cluster, fanout=2, rng=rng)
            engine.run_round(["x"])
            coverage += engine.coverage("x", "v")
        generator = np.random.default_rng(1)
        written = sample_subset_mask(n, quorum, trials, generator)
        versions = written.astype(np.int64) - 1
        gossiped = gossip_rounds_batch(versions, np.ones_like(written), 2, 1, generator)
        tolerance = 2 * math.sqrt(math.log(2 / 1e-9) / (2 * trials))
        assert (gossiped >= 0).mean() == pytest.approx(coverage / trials, abs=tolerance)
