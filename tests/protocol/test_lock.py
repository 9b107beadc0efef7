"""Tests for the quorum-based advisory lock."""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.protocol.lock import QuorumLock
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel, FailurePlan


def make_lock(n=50, epsilon=1e-3, seed=0, plan=None, signatures=None, system=None):
    system = system or UniformEpsilonIntersectingSystem.for_epsilon(n, epsilon)
    cluster = Cluster(n, failure_plan=plan or FailurePlan(), seed=seed)
    return QuorumLock(
        system, cluster, name="shared", signatures=signatures, rng=random.Random(seed)
    )


class TestBasicLocking:
    def test_first_acquire_succeeds(self):
        lock = make_lock()
        attempt = lock.acquire(client_id=1)
        assert attempt.acquired
        assert attempt.holder_seen is None
        assert lock.holder() == 1
        assert lock.acquisitions == 1

    def test_second_acquire_sees_the_holder(self):
        lock = make_lock()
        lock.acquire(client_id=1)
        attempt = lock.acquire(client_id=2)
        assert not attempt.acquired
        assert attempt.holder_seen == 1
        assert attempt.quorum is None

    def test_release_then_reacquire(self):
        lock = make_lock()
        lock.acquire(client_id=1)
        lock.release(client_id=1)
        assert lock.holder() is None
        attempt = lock.acquire(client_id=2)
        assert attempt.acquired
        assert lock.holder() == 2

    def test_release_without_holding_raises(self):
        lock = make_lock()
        with pytest.raises(ProtocolError):
            lock.release(client_id=1)
        lock.acquire(client_id=1)
        with pytest.raises(ProtocolError):
            lock.release(client_id=2)

    def test_negative_client_rejected(self):
        lock = make_lock()
        with pytest.raises(ProtocolError):
            lock.acquire(client_id=-1)

    def test_validation(self):
        system = UniformEpsilonIntersectingSystem(25, 10)
        with pytest.raises(ConfigurationError):
            QuorumLock(system, Cluster(30))
        with pytest.raises(ConfigurationError):
            QuorumLock(system, Cluster(25), name="")

    def test_distinct_locks_are_independent(self):
        system = UniformEpsilonIntersectingSystem.for_epsilon(50, 1e-3)
        cluster = Cluster(50, seed=1)
        first = QuorumLock(system, cluster, name="a", rng=random.Random(1))
        second = QuorumLock(system, cluster, name="b", rng=random.Random(2))
        first.acquire(1)
        assert second.holder() is None
        assert second.acquire(2).acquired


class TestProbabilisticSemantics:
    def test_mutual_exclusion_violation_rate_tracks_epsilon(self):
        # Two clients acquire back-to-back; both succeed only when the second
        # client's read quorum misses the first client's write quorum.
        system = UniformEpsilonIntersectingSystem(36, 6)  # measurable epsilon
        violations = 0
        trials = 300
        for seed in range(trials):
            cluster = Cluster(36, seed=seed)
            lock = QuorumLock(system, cluster, rng=random.Random(seed))
            first = lock.acquire(1)
            second = lock.acquire(2)
            if first.acquired and second.acquired:
                violations += 1
        assert violations / trials == pytest.approx(system.epsilon, abs=0.08)

    def test_tight_epsilon_gives_practically_exclusive_lock(self):
        # A double grant here is an ε event, not a protocol fault: the two
        # clients drew disjoint quorums (ε = 7.8e-4 per seed; seed 40 does).
        # Demanding zero in 100 seeds would fail a correct lock for 7.5 % of
        # draw orders.  It fails "at most 2" only if Bin(100, ε) >= 3, which
        # has probability ≈ 7.3e-5.
        system = UniformEpsilonIntersectingSystem.for_epsilon(64, 1e-3)
        double_grants = 0
        for seed in range(100):
            cluster = Cluster(64, seed=seed)
            lock = QuorumLock(system, cluster, rng=random.Random(seed))
            lock.acquire(1)
            if lock.acquire(2).acquired:
                double_grants += 1
        assert double_grants <= 2


class ScriptedQuorumSystem:
    """Quorum 'system' replaying a fixed quorum sequence (test-only).

    Lets a test choose exactly which replicas each read/write touches, so a
    lagging replica set (one that missed the release write) can be steered
    under a later read deterministically.
    """

    def __init__(self, n, script):
        self.n = n
        self._script = iter(script)

    def sample_quorum(self, rng):
        return frozenset(next(self._script))


class TestReleaseStaleness:
    FRESH = (0, 1, 2)  # replicas that will receive the release write
    LAGGING = (3, 4, 5)  # replicas that only ever saw the acquisition

    def scripted_lock(self, script, cluster=None):
        cluster = cluster or Cluster(6, seed=0)
        system = ScriptedQuorumSystem(6, script)
        return QuorumLock(system, cluster, rng=random.Random(0)), cluster

    def test_own_release_suppresses_phantom_holder_on_lagging_quorum(self):
        lock, _ = self.scripted_lock(
            [
                self.LAGGING,  # acquire: read (empty)
                self.LAGGING,  # acquire: write "held"
                self.LAGGING,  # release: read (sees the holder)
                self.FRESH,  # release: write "released"
                self.LAGGING,  # holder(): stale quorum, release invisible
            ]
        )
        lock.acquire(client_id=1)
        lock.release(client_id=1)
        # The read quorum contains only replicas that missed the release;
        # the stale "held" record must not be reported as a live holder.
        assert lock.holder() is None

    def test_observed_release_suppresses_phantom_holder_for_other_clients(self):
        script = [
            self.LAGGING,  # acquire: read
            self.LAGGING,  # acquire: write "held"
            self.LAGGING,  # release: read
            self.FRESH,  # release: write "released"
        ]
        lock, cluster = self.scripted_lock(script)
        lock.acquire(client_id=1)
        lock.release(client_id=1)
        # A different client process: first read sees the release, the next
        # read draws only lagging replicas.  Knowledge of the release must
        # carry over — no phantom holder, and the lock is acquirable.
        observer = QuorumLock(
            ScriptedQuorumSystem(6, [self.FRESH, self.LAGGING, self.LAGGING]),
            cluster,
            rng=random.Random(1),
        )
        assert observer.holder() is None  # sees "released"
        attempt = observer.acquire(client_id=2)  # stale read quorum
        assert attempt.acquired
        assert attempt.holder_seen is None

    def test_unreleased_holder_is_still_reported(self):
        lock, _ = self.scripted_lock(
            [
                self.LAGGING,  # acquire: read
                self.LAGGING,  # acquire: write "held"
                self.LAGGING,  # holder(): same replicas, lock genuinely held
            ]
        )
        lock.acquire(client_id=1)
        assert lock.holder() == 1


class TestByzantineLocking:
    def test_masking_threshold_blocks_fabricated_holders(self):
        # Byzantine servers all claim the lock is held by a phantom client;
        # with a masking system they can convince a reader only if the read
        # quorum hits at least k of them.
        n, b = 64, 6
        system = ProbabilisticMaskingSystem.for_epsilon(n, b, 1e-2)
        plan = FailureModel.colluding_forgers(
            b, {"state": "held", "holder": 666}, Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(5))
        cluster = Cluster(n, failure_plan=plan, seed=5)
        lock = QuorumLock(system, cluster, rng=random.Random(5))
        # An honest client is not blocked by the phantom holder.
        assert lock.acquire(client_id=1).acquired

    def test_signed_records_survive_forging_servers(self):
        n, b = 64, 12
        system = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-3)
        scheme = SignatureScheme(b"lock-authority")
        plan = FailureModel.colluding_forgers(
            b, {"state": "held", "holder": 666}, Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(6))
        cluster = Cluster(n, failure_plan=plan, seed=6)
        lock = QuorumLock(system, cluster, signatures=scheme, rng=random.Random(6))
        assert lock.acquire(client_id=1).acquired
        # The phantom holder never shows up because its records are unsigned.
        assert lock.holder() == 1
