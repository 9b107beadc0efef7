"""Tests for the voter-ID locking application."""

from __future__ import annotations

import random

import pytest

from repro.apps.voting import VotingService
from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel, FailurePlan


def plain_service(n=50, epsilon=1e-3, seed=0, plan=None):
    system = UniformEpsilonIntersectingSystem.for_epsilon(n, epsilon)
    cluster = Cluster(n, failure_plan=plan or FailurePlan(), seed=seed)
    return VotingService(system, cluster, rng=random.Random(seed))


class TestBasicVoting:
    def test_first_vote_accepted(self):
        service = plain_service()
        outcome = service.cast_vote("voter-1", station_id=3)
        assert outcome.accepted
        assert not outcome.duplicate_detected
        assert outcome.write_quorum is not None
        assert service.has_voted("voter-1")

    def test_distinct_voters_do_not_interfere(self):
        service = plain_service()
        for index in range(20):
            assert service.cast_vote(f"voter-{index}", station_id=index % 5).accepted
        audit = service.audit()
        assert audit.ballots_accepted == 20
        assert audit.distinct_voters_accepted == 20
        assert audit.duplicates_admitted == 0

    def test_duplicate_usually_rejected(self):
        service = plain_service()
        service.cast_vote("repeat-offender", station_id=0)
        second = service.cast_vote("repeat-offender", station_id=7)
        assert not second.accepted
        assert second.duplicate_detected
        audit = service.audit()
        assert audit.duplicates_rejected == 1
        assert audit.repeat_admission_rate == 0.0

    def test_many_repeat_attempts_are_virtually_certain_to_be_caught(self):
        # The paper's argument: each repeat attempt slips through with
        # probability <= epsilon, so r attempts all slipping through has
        # probability epsilon^r.  Empirically none should slip with eps<=1e-3.
        service = plain_service()
        service.cast_vote("offender", station_id=0)
        accepted_repeats = sum(
            1 for attempt in range(30) if service.cast_vote("offender", attempt % 10).accepted
        )
        assert accepted_repeats == 0
        assert not service.double_voters()

    def test_empty_voter_id_rejected(self):
        service = plain_service()
        with pytest.raises(ProtocolError):
            service.cast_vote("", station_id=0)

    def test_mismatched_cluster_size_rejected(self):
        system = UniformEpsilonIntersectingSystem(25, 10)
        with pytest.raises(ConfigurationError):
            VotingService(system, Cluster(30))

    def test_loose_epsilon_occasionally_admits_duplicates(self):
        # With a deliberately terrible construction (tiny quorums) duplicates
        # do slip through, demonstrating that the guarantee is really the
        # quorum system's epsilon and not something else.
        system = UniformEpsilonIntersectingSystem(50, 3)  # epsilon ~ 0.83
        cluster = Cluster(50, seed=1)
        service = VotingService(system, cluster, rng=random.Random(1))
        service.cast_vote("offender", 0)
        repeats = [service.cast_vote("offender", s) for s in range(20)]
        assert any(outcome.accepted for outcome in repeats)
        assert service.audit().duplicates_admitted >= 1
        assert "offender" in service.double_voters()


class TestByzantineVoting:
    def test_dissemination_mode_with_tampered_stations(self):
        n, b = 60, 12
        system = ProbabilisticDisseminationSystem.for_epsilon(n, b, 1e-2)
        scheme = SignatureScheme(b"election-authority")
        plan = FailureModel.colluding_forgers(
            b, {"station": 999, "voter": "nobody"}, Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(2))
        cluster = Cluster(n, failure_plan=plan, seed=2)
        service = VotingService(system, cluster, signatures=scheme, rng=random.Random(2))
        # Forged lock records are unverifiable, so they cannot block honest voters.
        for index in range(15):
            assert service.cast_vote(f"voter-{index}", station_id=index).accepted
        # Duplicates are still caught.
        assert not service.cast_vote("voter-3", station_id=9).accepted

    def test_masking_mode_uses_vote_threshold(self):
        n, b = 60, 6
        system = ProbabilisticMaskingSystem.for_epsilon(n, b, 1e-2)
        plan = FailureModel.colluding_forgers(
            b, {"station": 999, "voter": "nobody"}, Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(3))
        cluster = Cluster(n, failure_plan=plan, seed=3)
        service = VotingService(system, cluster, rng=random.Random(3))
        assert service.read_threshold == system.read_threshold
        for index in range(10):
            assert service.cast_vote(f"voter-{index}", station_id=index).accepted
        rejected = service.cast_vote("voter-0", station_id=55)
        assert not rejected.accepted

    def test_audit_counts_presented_ballots(self):
        service = plain_service()
        service.cast_vote("a", 0)
        service.cast_vote("b", 1)
        service.cast_vote("a", 2)
        audit = service.audit()
        assert audit.ballots_presented == 3
        assert audit.ballots_accepted == 2
        assert audit.duplicates_rejected == 1
