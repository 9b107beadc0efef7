"""Tests for the service load harness."""

from __future__ import annotations

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.classification import OUTCOME_LABELS
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.load import (
    FaultInjectionSpec,
    ServiceLoadSpec,
    classify_service_read,
    run_service_load,
)
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec

MASKING = ProbabilisticMaskingSystem(25, 10, 3)
PLAIN = UniformEpsilonIntersectingSystem(25, 8)


def small_spec(**overrides):
    defaults = dict(
        scenario=ScenarioSpec(system=MASKING),
        clients=20,
        reads_per_client=3,
        writes=5,
        seed=7,
    )
    defaults.update(overrides)
    return ServiceLoadSpec(**defaults)


class TestServiceLoadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceLoadSpec(scenario="not a scenario")
        with pytest.raises(ConfigurationError):
            small_spec(clients=0)
        with pytest.raises(ConfigurationError):
            small_spec(reads_per_client=0)
        with pytest.raises(ConfigurationError):
            small_spec(writes=0)
        with pytest.raises(ConfigurationError):
            small_spec(write_interval=-1.0)
        with pytest.raises(ConfigurationError):
            small_spec(dispatch="warp")
        with pytest.raises(ConfigurationError):
            small_spec(selection="fastest")
        with pytest.raises(ConfigurationError):
            small_spec(dispatch_window=-0.001)
        with pytest.raises(ConfigurationError):
            small_spec(quorum_pool=-1)
        with pytest.raises(ConfigurationError):
            FaultInjectionSpec(crash_count=-1)
        with pytest.raises(ConfigurationError):
            FaultInjectionSpec(interval=0.0)

    def test_latency_aware_refused_for_byzantine_scenarios(self):
        scenario = ScenarioSpec(
            system=MASKING,
            failure_model=FailureModel.colluding_forgers(
                3, "FORGED", Timestamp.forged_maximum()
            ),
        )
        with pytest.raises(ConfigurationError, match="latency-aware"):
            small_spec(scenario=scenario, selection="latency-aware")

    def test_totals_and_description(self):
        spec = small_spec()
        assert spec.total_ops == 20 * 3 + 5
        assert "clients=20" in spec.describe()


class TestClassifyServiceRead:
    WRITE = WriteOutcome(
        quorum=frozenset({0}), timestamp=Timestamp(2), acknowledged=frozenset({0})
    )
    HISTORY = {Timestamp(1): ("v", 0), Timestamp(2): ("v", 1), Timestamp(3): ("v", 2)}

    def outcome(self, value, timestamp):
        return ReadOutcome(
            value=value,
            timestamp=timestamp,
            quorum=frozenset({0}),
            reporting_servers=frozenset({0}),
            replies=1,
        )

    def test_matches_the_shared_classifier_for_settled_reads(self):
        assert classify_service_read(self.outcome(("v", 1), Timestamp(2)), self.WRITE, self.HISTORY) == "fresh"
        assert classify_service_read(self.outcome(("v", 0), Timestamp(1)), self.WRITE, self.HISTORY) == "stale"
        assert classify_service_read(self.outcome(None, None), self.WRITE, self.HISTORY) == "empty"
        forged = self.outcome("FORGED", Timestamp.forged_maximum())
        assert classify_service_read(forged, self.WRITE, self.HISTORY) == "fabricated"

    def test_concurrent_honest_write_is_not_a_violation(self):
        # Timestamp(3) outranks the settled write but is an issued honest
        # write: reading it concurrently is fresh, not fabricated.
        concurrent = self.outcome(("v", 2), Timestamp(3))
        assert classify_service_read(concurrent, self.WRITE, self.HISTORY) == "fresh"
        # A forgery tying that timestamp with the wrong value stays a violation.
        forged = self.outcome("FORGED", Timestamp(3))
        assert classify_service_read(forged, self.WRITE, self.HISTORY) == "fabricated"

    def test_old_timestamp_forgery_is_still_a_violation(self):
        # The shared classifier alone would call an honest-typed timestamp
        # below the settled write "stale"; the harness checks the issued
        # history, so a never-written pair is fabricated however old its
        # forged timestamp looks.
        forged_old = self.outcome("FORGED", Timestamp(1))
        assert classify_service_read(forged_old, self.WRITE, self.HISTORY) == "fabricated"

    def test_reads_before_the_first_settled_write(self):
        assert classify_service_read(self.outcome(None, None), None, {}) == "empty"
        issued = self.outcome(("v", 0), Timestamp(1))
        assert classify_service_read(issued, None, self.HISTORY) == "fresh"
        forged = self.outcome("FORGED", Timestamp.forged_maximum())
        assert classify_service_read(forged, None, self.HISTORY) == "fabricated"


class TestRunServiceLoad:
    def test_healthy_run_completes_every_operation(self):
        spec = small_spec()
        report = run_service_load(spec)
        assert report.reads_completed == 60
        assert report.writes_completed == 5
        assert report.operations == spec.total_ops
        assert sum(report.outcomes.values()) == report.reads_completed
        assert set(report.outcomes) == set(OUTCOME_LABELS)
        assert report.violations == 0
        assert report.write_failures == 0
        # Latency percentiles are ordered and populated.
        assert len(report.read_latencies) == 60
        assert report.read_latency(0.5) <= report.read_latency(0.99)
        assert report.throughput > 0
        assert "throughput" in report.render()

    def test_static_byzantine_failures_are_deployed(self):
        spec = small_spec(
            scenario=ScenarioSpec(
                system=MASKING,
                failure_model=FailureModel.colluding_forgers(
                    3, "FORGED", Timestamp.forged_maximum()
                ),
            ),
            clients=30,
        )
        report = run_service_load(spec)
        # b=3 < k=2?  No: k=2 and 3 forgers *can* vote a forgery through on
        # this loose system, but reads still complete and are all labelled.
        assert report.reads_completed == 90
        assert sum(report.outcomes.values()) == 90

    def test_live_fault_injection_crashes_and_recovers(self):
        spec = small_spec(
            clients=40,
            reads_per_client=5,
            latency=0.0005,
            deadline=0.01,
            fault_injection=FaultInjectionSpec(crash_count=4, interval=0.001),
        )
        report = run_service_load(spec)
        assert report.injected_crashes > 0
        assert report.reads_completed == 200
        # Churn forces at least some repair activity or timeouts.
        assert report.probe_fallbacks + report.rpc_timeouts > 0

    def test_dropping_transport_still_makes_progress(self):
        spec = small_spec(
            drop_probability=0.05,
            deadline=0.005,
        )
        report = run_service_load(spec)
        assert report.rpc_dropped > 0
        assert report.reads_completed == 60
        assert report.writes_completed + report.write_failures == 5

    def test_same_seed_same_outcome_counts(self):
        # Event-loop interleaving is deterministic for identical specs on a
        # loss-free zero-latency transport, so the whole report reproduces.
        first = run_service_load(small_spec())
        second = run_service_load(small_spec())
        assert first.outcomes == second.outcomes
        assert first.reads_completed == second.reads_completed

    def test_both_dispatch_modes_complete_the_same_workload(self):
        batched = run_service_load(small_spec(dispatch="batched"))
        per_rpc = run_service_load(small_spec(dispatch="per-rpc"))
        for report in (batched, per_rpc):
            assert report.reads_completed == 60
            assert report.writes_completed == 5
            assert report.violations == 0
        assert batched.dispatch_flushes > 0
        assert per_rpc.dispatch_flushes == 0
        # Coalescing: far fewer delivery events than RPCs.
        assert batched.dispatch_flushes < batched.rpc_calls / 5


class TestUvloopIntegration:
    def test_falls_back_to_stock_asyncio_when_uvloop_is_missing(self, monkeypatch):
        from repro.service import load as load_module

        monkeypatch.setattr(load_module, "_uvloop", None)
        assert load_module.active_loop_driver() == "asyncio"
        report = run_service_load(small_spec())
        assert report.loop_driver == "asyncio"
        assert report.reads_completed == 60

    def test_uses_uvloop_when_importable(self, monkeypatch):
        # Stand in for the optional dependency with an object exposing the
        # one attribute the harness uses, so the uvloop branch is exercised
        # without the package being installed.
        import asyncio

        from repro.service import load as load_module

        class FakeUvloop:
            new_event_loop = staticmethod(asyncio.new_event_loop)

        monkeypatch.setattr(load_module, "_uvloop", FakeUvloop)
        assert load_module.active_loop_driver() == "uvloop"
        report = run_service_load(small_spec())
        assert report.loop_driver == "uvloop"
        assert report.reads_completed == 60
