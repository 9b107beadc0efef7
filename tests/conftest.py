"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.threshold import MajorityQuorumSystem
from repro.simulation.cluster import Cluster


@pytest.fixture
def rng():
    """A deterministically seeded random source."""
    return random.Random(12345)


@pytest.fixture
def small_uniform_system():
    """R(25, 10): the smallest Table 2 configuration (ε ≤ 1e-3)."""
    return UniformEpsilonIntersectingSystem(25, 10)


@pytest.fixture
def medium_uniform_system():
    """R(100, 23): the n=100 Table 2 configuration (ε ≤ 1e-3)."""
    return UniformEpsilonIntersectingSystem(100, 23)


@pytest.fixture
def dissemination_system():
    """A (b, ε)-dissemination system over 100 servers with b = 10."""
    return ProbabilisticDisseminationSystem.for_epsilon(100, 10, 1e-3)


@pytest.fixture
def masking_system():
    """A (b, ε)-masking system over 100 servers with b = 5."""
    return ProbabilisticMaskingSystem.for_epsilon(100, 5, 1e-3)


@pytest.fixture
def majority_25():
    """The strict majority system over 25 servers."""
    return MajorityQuorumSystem(25)


@pytest.fixture
def grid_25():
    """The 5x5 Maekawa grid."""
    return GridQuorumSystem(25)


@pytest.fixture
def healthy_cluster():
    """A 25-server cluster with no failures."""
    return Cluster(25, seed=7)


@pytest.fixture
def record_fan_outs():
    """Patch a quorum client's driver to log each round it runs.

    ``record_fan_outs(client)`` returns the live list of
    ``(servers asked, servers answered)`` pairs, one per round.
    """

    def install(client):
        rounds = []
        driver = client.dispatcher
        run_round = driver._round

        async def recording(op, servers, *args):
            await run_round(op, servers, *args)
            rounds.append((tuple(servers), frozenset(op.replies).intersection(servers)))

        driver._round = recording
        return rounds

    return install
