"""Tests for the workload client and the Monte-Carlo consistency estimators."""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.strategy import ExplicitStrategy
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.simulation.client import LoadMeasurement, WorkloadClient, measure_system_load
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    estimate_staleness_distribution,
)
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec


class TestWorkloadClient:
    def test_empirical_load_matches_analytical(self):
        system = UniformEpsilonIntersectingSystem(50, 10)
        measurement = measure_system_load(system, accesses=8000, seed=1)
        # Analytical load is q/n = 0.2 for every server.
        assert measurement.max_load == pytest.approx(0.2, abs=0.03)
        assert measurement.mean_load == pytest.approx(0.2, abs=0.01)

    def test_skewed_strategy_shows_up_in_measurement(self):
        strategy = ExplicitStrategy([{0, 1}, {2, 3}], weights=[0.9, 0.1])
        client = WorkloadClient(4, strategy, random.Random(2))
        measurement = client.run(4000)
        assert measurement.per_server_counts[0] > measurement.per_server_counts[2]
        assert measurement.busiest_servers(2) == [0, 1] or measurement.busiest_servers(2) == [1, 0]

    def test_empty_measurement(self):
        strategy = ExplicitStrategy([{0}])
        client = WorkloadClient(3, strategy)
        measurement = client.measurement()
        assert measurement.accesses == 0
        assert measurement.max_load == 0.0
        assert measurement.empirical_loads == [0.0, 0.0, 0.0]

    def test_validation(self):
        strategy = ExplicitStrategy([{0}])
        with pytest.raises(ConfigurationError):
            WorkloadClient(0, strategy)
        client = WorkloadClient(1, strategy)
        with pytest.raises(ConfigurationError):
            client.run(-1)
        bad = WorkloadClient(1, ExplicitStrategy([{5}]))
        with pytest.raises(ConfigurationError):
            bad.access_once()


class TestConsistencyEstimator:
    def test_perfect_consistency_without_failures(self):
        system = UniformEpsilonIntersectingSystem.for_epsilon(25, 1e-3)
        report = estimate_read_consistency(ScenarioSpec(system=system), trials=100, seed=0)
        assert report.trials == 100
        assert report.fresh_fraction >= 0.97
        assert report.fabricated == 0
        assert "ConsistencyReport" in str(report)

    def test_measured_error_tracks_analytical_epsilon(self):
        # Use a deliberately loose construction so the error is measurable.
        system = UniformEpsilonIntersectingSystem(25, 5)
        report = estimate_read_consistency(ScenarioSpec(system=system), trials=400, seed=1)
        assert report.error_fraction == pytest.approx(system.epsilon, abs=0.08)

    def test_crash_failures_increase_error(self):
        system = UniformEpsilonIntersectingSystem(25, 6)
        baseline = estimate_read_consistency(ScenarioSpec(system=system), trials=200, seed=2)
        crashing = estimate_read_consistency(
            ScenarioSpec(system=system, failure_model=FailureModel.independent_crashes(0.3)),
            trials=200,
            seed=2,
        )
        assert crashing.fresh_fraction <= baseline.fresh_fraction + 0.02

    def test_trial_validation(self):
        system = UniformEpsilonIntersectingSystem(25, 10)
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(ScenarioSpec(system=system), trials=0)


class TestStalenessEstimator:
    @staticmethod
    def _spec(system, **workload):
        return ScenarioSpec(system=system, workload=WorkloadSpec(**workload))

    def test_reads_are_mostly_fresh_with_tight_epsilon(self):
        system = UniformEpsilonIntersectingSystem.for_epsilon(25, 1e-3)
        report = estimate_staleness_distribution(
            self._spec(system, writes=4), trials=60, seed=3
        )
        assert report.fresh_fraction >= 0.9
        assert report.mean_lag <= 0.5
        assert sum(report.lag_histogram().values()) == 60

    def test_gossip_reduces_staleness(self):
        # A loose construction misses often; gossip between writes repairs it.
        system = UniformEpsilonIntersectingSystem(25, 4)
        without = estimate_staleness_distribution(
            self._spec(system, writes=4), trials=150, seed=4
        )
        with_gossip = estimate_staleness_distribution(
            self._spec(system, writes=4, gossip_rounds_between_writes=3, gossip_fanout=3),
            trials=150,
            seed=4,
        )
        assert with_gossip.fresh_fraction >= without.fresh_fraction

    def test_a_forgery_tying_a_version_is_not_that_version(self):
        # Every quorum is the whole universe, so on every read the three
        # forgers outvote the one honest replica at the last version's
        # timestamp: the read returns the forged value, which lags the whole
        # history, unless the forged value is the version's own.
        system = UniformEpsilonIntersectingSystem(4, 4)

        def lags(fabricated_value):
            model = FailureModel.colluding_forgers(3, fabricated_value, Timestamp(3, 0))
            spec = ScenarioSpec(
                system=system, failure_model=model, workload=WorkloadSpec(writes=3)
            )
            return estimate_staleness_distribution(spec, trials=20, seed=1).lag_histogram()

        assert lags("forged") == {3: 20}
        assert lags(("value", 2)) == {0: 20}

    def test_validation(self):
        system = UniformEpsilonIntersectingSystem(25, 10)
        with pytest.raises(ConfigurationError):
            estimate_staleness_distribution(self._spec(system, writes=0))
        with pytest.raises(ConfigurationError):
            estimate_staleness_distribution(self._spec(system), trials=0)
