"""Tests for the service load harness."""

from __future__ import annotations

import asyncio
import selectors

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.classification import OUTCOME_LABELS
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.load import (
    FaultInjectionSpec,
    ServiceLoadReport,
    ServiceLoadSpec,
    classify_service_read,
    key_names,
    key_weight_cdf,
    merge_reports,
    partition_load,
    run_service_load,
    serve_load,
)
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

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
            small_spec(transport="tcp", latency=-1.0)
        with pytest.raises(ConfigurationError):
            small_spec(transport="tcp", deadline=None)
        with pytest.raises(ConfigurationError):
            FaultInjectionSpec(crash_count=-1)
        with pytest.raises(ConfigurationError):
            FaultInjectionSpec(interval=0.0)

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

    def test_batched_dispatch_coalesces_the_workload(self):
        report = run_service_load(small_spec())
        # Coalescing: far fewer delivery events than RPCs.
        assert 0 < report.dispatch_flushes < report.rpc_calls / 5


class _JumpingSelector(selectors.DefaultSelector):
    """A selector that advances a virtual clock instead of blocking."""

    now = 0.0

    def select(self, timeout=None):
        events = super().select(0)
        if not events and timeout:
            self.now += timeout
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock jumps to the next timer.

    Fault injection, gossip and deadlines all run on ``loop.time()``, so
    under this loop an in-process run is a pure function of its seed: no
    wall-clock race decides which operation sees which crash.
    """

    def __init__(self):
        super().__init__(_JumpingSelector())

    def time(self):
        return self._selector.now


def run_in_virtual_time(spec: ServiceLoadSpec) -> ServiceLoadReport:
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(serve_load(spec))
    finally:
        loop.close()


#: k = 3 > 2 forgers: fabrication is structurally impossible, so the pinned
#: runs exercise drops, deadlines, top-ups and repairs, not forgery luck.
PARITY_SYSTEM = ProbabilisticMaskingSystem(25, 12, 3)


def parity_specs():
    hostile = dict(
        scenario=ScenarioSpec(
            system=PARITY_SYSTEM,
            failure_model=FailureModel.colluding_forgers(
                2, "FORGED", Timestamp.forged_maximum()
            ),
        ),
        clients=20,
        reads_per_client=3,
        writes=5,
        seed=11,
        latency=0.001,
        jitter=0.0005,
        drop_probability=0.02,
        deadline=0.01,
        fault_injection=FaultInjectionSpec(crash_count=4, interval=0.002),
    )
    return {
        "benign": small_spec(scenario=ScenarioSpec(system=PARITY_SYSTEM)),
        "churn": ServiceLoadSpec(**hostile),
        "churn-anti-entropy": ServiceLoadSpec(**hostile, anti_entropy=AntiEntropySpec()),
    }


#: Recorded before the quorum operation became one object; a refactor of
#: the client or its dispatchers must reproduce every draw and every count.
PARITY_PINS = {
    "benign": dict(
        outcomes={"fresh": 60, "stale": 0, "empty": 0, "fabricated": 0},
        rpc_calls=780, rpc_dropped=0, rpc_timed_out=0, probe_fallbacks=0,
        dispatch_flushes=99, repairs_piggybacked=0, shard_ops=[65],
    ),
    "churn": dict(
        outcomes={"fresh": 60, "stale": 0, "empty": 0, "fabricated": 0},
        rpc_calls=865, rpc_dropped=20, rpc_timed_out=68, probe_fallbacks=42,
        dispatch_flushes=225, repairs_piggybacked=0, shard_ops=[65],
    ),
    "churn-anti-entropy": dict(
        outcomes={"fresh": 60, "stale": 0, "empty": 0, "fabricated": 0},
        rpc_calls=792, rpc_dropped=20, rpc_timed_out=65, probe_fallbacks=4,
        dispatch_flushes=176, repairs_piggybacked=179, shard_ops=[65],
    ),
}


class TestSeededParity:
    @pytest.mark.parametrize("name", sorted(PARITY_PINS))
    def test_seeded_run_reproduces_its_pinned_counters(self, name):
        report = run_in_virtual_time(parity_specs()[name])
        observed = dict(
            outcomes=report.outcomes,
            rpc_calls=report.rpc_calls,
            rpc_dropped=report.rpc_dropped,
            rpc_timed_out=report.rpc_timeouts,
            probe_fallbacks=report.probe_fallbacks,
            dispatch_flushes=report.dispatch_flushes,
            repairs_piggybacked=report.repairs_piggybacked,
            shard_ops=report.shard_ops,
        )
        assert observed == PARITY_PINS[name]


def slice_report(spec, worker: int, **overrides) -> ServiceLoadReport:
    """A hand-made per-slice report (what one load worker sends home)."""
    fields = dict(
        spec=spec,
        elapsed=0.5 + worker,
        reads_completed=10 + worker,
        writes_completed=2 + worker,
        write_failures=worker,
        outcomes={"fresh": 8 + worker, "stale": 1, "empty": 1, "fabricated": 0},
        read_latencies=[0.001 * (worker + 1)] * (10 + worker),
        write_latencies=[0.002 * (worker + 1)] * (2 + worker),
        rpc_calls=100 + worker,
        rpc_dropped=3 + worker,
        rpc_timeouts=4 + worker,
        probe_fallbacks=5 + worker,
        injected_crashes=worker,
        dispatch_flushes=6 + worker,
        repairs_piggybacked=7 + worker,
        gossip_rounds=8 + worker,
        shard_ops=[7 + worker, 5 + worker],
        traces=[{"trace_id": (worker << 40) + 1}],
        metrics=[{"labels": {"component": "load-harness", "worker": worker}}],
        epsilon_alerts=[{"kind": "epsilon-exceeded", "worker": worker}],
        epsilon_monitor={
            "epsilon": 0.0,
            "slack": 0.05,
            "window": 200,
            "min_samples": 50,
            "observed": 10 + worker,
            "errors": 1 + worker,
            "window_rate": 0.1 * (worker + 1),
            "total_rate": (1 + worker) / (10 + worker),
            "alerts": [{"kind": "epsilon-exceeded", "worker": worker}],
        },
    )
    fields.update(overrides)
    return ServiceLoadReport(**fields)


class TestMergeReports:
    SPEC = small_spec(transport="tcp", shards=2, keys=4, processes=3, codec="binary")

    def test_merging_one_report_is_the_identity(self):
        report = slice_report(self.SPEC, 1)
        assert merge_reports([report]) == report

    def test_counters_sum_and_streams_concatenate_in_worker_order(self):
        reports = [slice_report(self.SPEC, worker) for worker in range(3)]
        merged = merge_reports(reports)
        for name in (
            "reads_completed",
            "writes_completed",
            "write_failures",
            "rpc_calls",
            "rpc_dropped",
            "rpc_timeouts",
            "probe_fallbacks",
            "injected_crashes",
            "dispatch_flushes",
            "repairs_piggybacked",
            "gossip_rounds",
        ):
            assert getattr(merged, name) == sum(getattr(r, name) for r in reports), name
        assert merged.outcomes == {"fresh": 27, "stale": 3, "empty": 3, "fabricated": 0}
        for name in ("read_latencies", "write_latencies", "traces", "metrics", "epsilon_alerts"):
            assert getattr(merged, name) == [
                item for report in reports for item in getattr(report, name)
            ], name
        # Per shard index, never flattened.
        assert merged.shard_ops == [7 + 8 + 9, 5 + 6 + 7]
        assert sum(merged.shard_ops) == sum(sum(r.shard_ops) for r in reports)
        # Slices run concurrently: the run took as long as its slowest one.
        assert merged.elapsed == 2.5
        assert merged.spec is self.SPEC and merged.transport == "tcp"

    def test_epsilon_monitor_sums_counts_and_keeps_the_worst_window(self):
        merged = merge_reports([slice_report(self.SPEC, worker) for worker in range(3)])
        monitor = merged.epsilon_monitor
        assert monitor["observed"] == 10 + 11 + 12
        assert monitor["errors"] == 1 + 2 + 3
        assert monitor["window_rate"] == pytest.approx(0.3)
        assert monitor["total_rate"] == pytest.approx(6 / 33)
        assert monitor["alerts"] == merged.epsilon_alerts
        assert (monitor["epsilon"], monitor["slack"], monitor["window"]) == (0.0, 0.05, 200)
        unmonitored = [
            slice_report(self.SPEC, worker, epsilon_monitor=None, epsilon_alerts=[])
            for worker in range(2)
        ]
        assert merge_reports(unmonitored).epsilon_monitor is None


class TestKeyWeightsOverRankSubsets:
    @staticmethod
    def weights(cdf):
        return [b - a for a, b in zip([0.0] + cdf, cdf)]

    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.3])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_slices_reassemble_the_global_zipf_weights(self, skew, workers):
        keys = 11
        zipf = [1.0 / (rank + 1) ** skew for rank in range(keys)]
        reassembled = {}
        for worker in range(workers):
            ranks = tuple(range(worker, keys, workers))
            share = sum(zipf[rank] for rank in ranks)
            # A slice's cdf is normalised over the slice; scaling by the
            # slice's share of the global mass recovers the global weights.
            for rank, weight in zip(ranks, self.weights(key_weight_cdf(ranks, skew))):
                reassembled[rank] = weight * share
        assert sorted(reassembled) == list(range(keys))
        for rank in range(keys):
            assert reassembled[rank] == pytest.approx(zipf[rank])

    def test_the_count_spelling_is_the_full_rank_range(self):
        for skew in (0.0, 1.1):
            assert key_weight_cdf(9, skew) == key_weight_cdf(range(9), skew)
            assert key_weight_cdf(9, skew)[-1] == 1.0

    def test_partition_slices_carry_the_ranks_the_cdf_needs(self):
        spec = small_spec(transport="tcp", shards=2, keys=7, processes=3)
        names = key_names(spec.keys)
        slices = partition_load(spec)
        assert sorted(names[rank] for s in slices for rank in s.key_ranks) == sorted(names)
        for load_slice in slices:
            assert len(key_weight_cdf(load_slice.key_ranks, 1.0)) == len(load_slice.key_ranks)


class TestProcessCountDifferential:
    def spec(self, processes: int) -> ServiceLoadSpec:
        return small_spec(
            clients=8,
            reads_per_client=3,
            writes=10,
            deadline=2.0,
            transport="tcp",
            codec="binary",
            shards=2,
            keys=4,
            processes=processes,
            trace_sample=1.0,
            seed=17,
        )

    def test_in_loop_and_two_worker_runs_complete_the_same_workload(self):
        from collections import Counter

        names = key_names(4)
        expected_writes = Counter(names[version % 4] for version in range(10))
        for processes in (0, 2):
            spec = self.spec(processes)
            issued = sorted(v for s in partition_load(spec) for v in s.versions)
            assert issued == list(range(spec.writes))
            report = run_service_load(spec)
            assert report.reads_completed == 24
            assert report.writes_completed == 10
            assert report.write_failures == 0
            assert sum(report.shard_ops) == report.operations == spec.total_ops
            assert report.violations == 0
            written = Counter(
                trace["variable"] for trace in report.traces if trace["op"] == "write"
            )
            assert written == expected_writes
