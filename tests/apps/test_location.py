"""Tests for the mobile-device location service."""

from __future__ import annotations

import random

import pytest

from repro.apps.location import LocationService
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailurePlan


def make_service(n=50, quorum_size=None, epsilon=1e-3, gossip_fanout=0, plan=None, seed=0):
    if quorum_size is None:
        system = UniformEpsilonIntersectingSystem.for_epsilon(n, epsilon)
    else:
        system = UniformEpsilonIntersectingSystem(n, quorum_size)
    cluster = Cluster(n, failure_plan=plan or FailurePlan(), seed=seed)
    return LocationService(system, cluster, gossip_fanout=gossip_fanout, rng=random.Random(seed))


class TestUpdatesAndQueries:
    def test_lookup_after_single_update(self):
        service = make_service()
        service.update_location("phone-1", "cell-A")
        answer = service.locate("phone-1")
        assert answer.found
        assert answer.cell == "cell-A"
        assert answer.is_current
        assert answer.forwarding_hops == 0

    def test_lookup_tracks_movement(self):
        service = make_service()
        for cell in ("A", "B", "C"):
            service.update_location("phone-1", cell)
        assert service.current_cell("phone-1") == "C"
        answer = service.locate("phone-1")
        assert answer.cell == "C"

    def test_devices_are_independent(self):
        service = make_service()
        service.update_location("phone-1", "north")
        service.update_location("phone-2", "south")
        assert service.locate("phone-1").cell == "north"
        assert service.locate("phone-2").cell == "south"

    def test_unknown_device_raises(self):
        service = make_service()
        with pytest.raises(ProtocolError):
            service.locate("ghost")

    def test_empty_names_rejected(self):
        service = make_service()
        with pytest.raises(ProtocolError):
            service.update_location("", "cell")
        with pytest.raises(ProtocolError):
            service.update_location("phone", "")

    def test_mismatched_cluster_rejected(self):
        system = UniformEpsilonIntersectingSystem(25, 10)
        with pytest.raises(ConfigurationError):
            LocationService(system, Cluster(30))


class TestStalenessAndForwarding:
    def test_stale_answers_are_forwarded(self):
        # A loose construction produces stale reads; the service must still
        # find the device by chasing forwarding pointers, never losing it.
        service = make_service(n=30, quorum_size=4, seed=2)
        moves = ["cell-%d" % i for i in range(6)]
        for cell in moves:
            service.update_location("phone-1", cell)
        answers = [service.locate("phone-1") for _ in range(40)]
        found = [a for a in answers if a.found]
        # Small quorums may occasionally miss every store that saw an update
        # ("no information" answers), but most queries find the device and are
        # forwarded to its current cell.
        assert len(found) >= len(answers) // 2
        assert all(a.cell == "cell-5" for a in found)
        assert any(a.forwarding_hops > 0 for a in found)
        assert service.stale_answer_rate > 0.0

    def test_unanswered_queries_only_under_massive_crashes(self):
        plan = FailurePlan(crashed=frozenset(range(25)))  # half the stores down
        service = make_service(n=50, quorum_size=10, plan=plan, seed=3)
        service.update_location("phone-1", "somewhere")
        for _ in range(20):
            service.locate("phone-1")
        # Rates are well-defined and bounded.
        assert 0.0 <= service.unanswered_rate <= 1.0
        assert 0.0 <= service.stale_answer_rate <= 1.0

    def test_gossip_reduces_staleness(self):
        def run(gossip_rounds):
            service = make_service(n=30, quorum_size=4, gossip_fanout=3, seed=4)
            stale = 0
            for step in range(15):
                service.update_location("phone-1", f"cell-{step}")
                if gossip_rounds:
                    service.run_gossip(gossip_rounds)
                if not service.locate("phone-1").is_current:
                    stale += 1
            return stale

        assert run(gossip_rounds=4) <= run(gossip_rounds=0)

    def test_gossip_requires_fanout(self):
        service = make_service()
        with pytest.raises(ConfigurationError):
            service.run_gossip()

    def test_query_statistics_accumulate(self):
        service = make_service()
        service.update_location("phone-1", "A")
        for _ in range(5):
            service.locate("phone-1")
        assert service.queries_answered == 5
