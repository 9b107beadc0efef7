"""Property tests for both anti-entropy implementations (Section 1.1).

The claim the service layer leans on — gossip only ever moves replicas
*toward* the newest value, never away from it — is pinned down here as
three properties that must hold for the object engine
(:class:`~repro.simulation.diffusion.DiffusionEngine`) and the
vectorised batch kernel
(:func:`~repro.simulation.diffusion.gossip_rounds_batch`) alike:

* the fresh-server fraction is monotone non-decreasing over rounds
  under benign faults (crashes only);
* a Byzantine payload is never adopted by a correct server when
  verification rejects it (object engine) / when its holder is
  ineligible (batch kernel);
* ``fanout=0`` is the identity.

The object engine additionally skips variables every correct replica
already holds at one timestamp; a round over such a settled cluster must
adopt nothing, leave every stored record the identical object, and still
count its rounds and pushes.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.simulation.diffusion import DiffusionEngine, gossip_rounds_batch
from repro.simulation.failures import FailurePlan
from repro.simulation.server import StoredValue

#: A version strictly above anything an eligible server legitimately holds.
FORGED_VERSION = 999


def crashed_plan(n: int, crash_fraction: float, rng: random.Random) -> FailurePlan:
    """Crash a random subset of servers, always sparing server 0 (the seeder)."""
    crashed = frozenset(
        server for server in range(1, n) if rng.random() < crash_fraction
    )
    return FailurePlan(crashed=crashed)


class TestEngineProperties:
    @given(
        n=st.integers(min_value=8, max_value=30),
        fanout=st.integers(min_value=1, max_value=4),
        crash_fraction=st.floats(min_value=0.0, max_value=0.4),
        rounds=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_fresh_fraction_monotone_under_benign_faults(
        self, n, fanout, crash_fraction, rounds, seed
    ):
        rng = random.Random(seed)
        cluster = Cluster(n, failure_plan=crashed_plan(n, crash_fraction, rng), seed=seed)
        cluster.server(0).handle("write", ("x", "v", Timestamp(1, 0), None))
        engine = DiffusionEngine(cluster, fanout=fanout, rng=random.Random(seed + 1))
        profile = engine.freshness_profile("x", "v", rounds=rounds)
        assert profile[0] > 0.0  # the seeder is correct by construction
        assert all(a <= b + 1e-12 for a, b in zip(profile, profile[1:]))

    @given(
        n=st.integers(min_value=8, max_value=24),
        poisoned=st.integers(min_value=1, max_value=3),
        fanout=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_rejected_payloads_never_adopted(self, n, poisoned, fanout, seed):
        # Plant an unsigned forged record — carrying the maximal timestamp,
        # the strongest possible lure — in a few servers' storage; with a
        # verifier installed, their pushes are discarded and the forgery
        # never reaches anyone else, while the honest signed value spreads.
        scheme = SignatureScheme(b"writer")
        cluster = Cluster(n, seed=seed)
        honest_ts = Timestamp(1, 0)
        cluster.server(poisoned).handle(
            "write", ("x", "honest", honest_ts, scheme.sign("x", "honest", honest_ts))
        )
        for server in range(poisoned):
            cluster.server(server).storage["x"] = StoredValue(
                value="FORGED", timestamp=Timestamp.forged_maximum(), signature=None
            )

        def verify(variable, stored):
            return scheme.verify(
                variable, stored.value, stored.timestamp, stored.signature
            )

        engine = DiffusionEngine(
            cluster, fanout=fanout, verify=verify, rng=random.Random(seed)
        )
        engine.run_rounds(8, ["x"])
        for server in range(poisoned, n):
            stored = cluster.server(server).storage.get("x")
            assert stored is None or stored.value == "honest"

    @given(
        n=st.integers(min_value=3, max_value=20),
        rounds=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_fanout_zero_is_the_identity(self, n, rounds, seed):
        cluster = Cluster(n, seed=seed)
        cluster.server(0).handle("write", ("x", "v", Timestamp(1, 0), None))
        engine = DiffusionEngine(cluster, fanout=0, rng=random.Random(seed))
        before = {
            server: cluster.server(server).storage.get("x") for server in range(n)
        }
        assert engine.run_rounds(rounds, ["x"]) == 0
        assert engine.messages_pushed == 0
        after = {
            server: cluster.server(server).storage.get("x") for server in range(n)
        }
        assert after == before

    @given(
        n=st.integers(min_value=3, max_value=20),
        fanout=st.integers(min_value=1, max_value=4),
        variables=st.integers(min_value=1, max_value=5),
        crash_fraction=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_settled_round_moves_nothing(
        self, n, fanout, variables, crash_fraction, seed
    ):
        # Every correct replica holds the same timestamp for every variable
        # (as distinct objects, some with a different value); crashed ones
        # hold older copies.  Nothing can adopt, yet the round still runs
        # and every correct server still pushes every variable.
        rng = random.Random(seed)
        fanout = min(fanout, n - 1)
        cluster = Cluster(n, failure_plan=crashed_plan(n, crash_fraction, rng), seed=seed)
        names = [f"k{index}" for index in range(variables)]
        for server in cluster.servers:
            for index, name in enumerate(names):
                counter = 1 if server.is_crashed else index + 2
                value = rng.choice(["a", "b"])
                server.storage[name] = StoredValue(value, Timestamp(counter, 0))
        before = [dict(server.storage) for server in cluster.servers]
        engine = DiffusionEngine(cluster, fanout=fanout, rng=random.Random(seed))
        assert engine.run_round() == 0
        for server, storage in zip(cluster.servers, before):
            assert server.storage.keys() == storage.keys()
            assert all(server.storage[name] is storage[name] for name in storage)
        assert engine.rounds_run == 1
        correct = len(cluster.correct_servers())
        assert engine.messages_pushed == correct * fanout * variables


def random_state(n, trials, seed, forged_servers=0):
    """A random batch-gossip state: versions, eligibility and generator.

    The last ``forged_servers`` servers are ineligible and hold
    :data:`FORGED_VERSION` — the batch analogue of a Byzantine replica
    whose pushes must never land.
    """
    generator = np.random.default_rng(seed)
    versions = generator.integers(-1, 6, size=(trials, n))
    eligible = generator.random(size=(trials, n)) < 0.8
    if forged_servers:
        versions[:, n - forged_servers:] = FORGED_VERSION
        eligible[:, n - forged_servers:] = False
    return versions, eligible, generator


class TestBatchKernelProperties:
    @given(
        trials=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=2, max_value=16),
        fanout=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_fresh_fraction_monotone_under_benign_faults(
        self, trials, n, fanout, rounds, seed
    ):
        fanout = min(fanout, n - 1)
        versions, eligible, generator = random_state(n, trials, seed)
        target = np.where(eligible, versions, -1).max(axis=1)
        current = versions

        def fresh_fraction(state):
            holding = ((state >= target[:, None]) & eligible).sum(axis=1)
            population = np.maximum(eligible.sum(axis=1), 1)
            return holding / population

        previous = fresh_fraction(current)
        for _ in range(rounds):
            current = gossip_rounds_batch(current, eligible, fanout, 1, generator)
            fraction = fresh_fraction(current)
            assert np.all(fraction >= previous - 1e-12)
            previous = fraction
        # Ineligible servers neither pushed nor received.
        assert np.array_equal(current[~eligible], versions[~eligible])

    @given(
        trials=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=3, max_value=16),
        forged=st.integers(min_value=1, max_value=2),
        fanout=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_ineligible_forgeries_never_adopted(
        self, trials, n, forged, fanout, rounds, seed
    ):
        fanout = min(fanout, n - 1)
        versions, eligible, generator = random_state(
            n, trials, seed, forged_servers=forged
        )
        result = gossip_rounds_batch(versions, eligible, fanout, rounds, generator)
        assert np.all(result[eligible] < FORGED_VERSION)
        assert np.array_equal(result[~eligible], versions[~eligible])

    @given(
        trials=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=2, max_value=16),
        rounds=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_fanout_zero_is_the_identity(self, trials, n, rounds, seed):
        versions, eligible, generator = random_state(n, trials, seed)
        result = gossip_rounds_batch(versions, eligible, 0, rounds, generator)
        assert result is not versions  # a copy, the input is never mutated
        assert np.array_equal(result, versions)
