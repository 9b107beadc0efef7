"""Tests for the service load harness."""

from __future__ import annotations

import asyncio
import random
import selectors
from collections import Counter

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
    drive_load,
    key_names,
    key_weight_cdf,
    run_service_load,
    serve_load,
)
from repro.service.sharding import ShardedDeployment
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

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_a_non_positive_deadline_is_refused_at_construction(self, deadline):
        # Not later, inside the driver's first client, after deploying.
        with pytest.raises(ConfigurationError, match="deadline must be positive"):
            small_spec(deadline=deadline)

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


class TestKeyWeightCdf:
    @staticmethod
    def weights(cdf):
        return [b - a for a, b in zip([0.0] + cdf, cdf)]

    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.3])
    @pytest.mark.parametrize("keys", [1, 2, 3, 11])
    def test_weights_are_the_normalised_zipf_weights(self, skew, keys):
        zipf = [1.0 / (rank + 1) ** skew for rank in range(keys)]
        cdf = key_weight_cdf(keys, skew)
        assert cdf[-1] == 1.0
        for weight, expected in zip(self.weights(cdf), zipf):
            assert weight == pytest.approx(expected / sum(zipf))

    def test_the_cdf_has_one_entry_per_key_name(self):
        # The driver draws with choices(names, cum_weights=cdf), which
        # needs the two lists to line up.
        for keys in (1, 2, 7, 64):
            for skew in (0.0, 1.1):
                assert len(key_weight_cdf(keys, skew)) == len(key_names(keys))


def record_client_calls(deployment, calls):
    """Log every read and write of the clients ``deployment`` hands out.

    Each entry is ``(op, client, writer_id, key, value)``, where ``client``
    numbers the clients in the order the driver asked for them.
    """
    make_client = deployment.new_register_client

    def new_register_client(rng, deadline=0.05, writer_id=None):
        client = make_client(rng, deadline=deadline, writer_id=writer_id)
        number = new_register_client.made
        new_register_client.made += 1
        write, read = client.write, client.read

        async def recorded_write(key, value):
            calls.append(("write", number, writer_id, key, value))
            return await write(key, value)

        async def recorded_read(key):
            calls.append(("read", number, writer_id, key, None))
            return await read(key)

        client.write, client.read = recorded_write, recorded_read
        return client

    new_register_client.made = 0
    deployment.new_register_client = new_register_client


class TestSingleDriverWorkload:
    """What one ``drive_load`` call issues for the whole spec."""

    def drive(self, spec):
        calls = []

        async def run():
            rng = random.Random(spec.seed)
            deployment = ShardedDeployment(spec, rng)
            record_client_calls(deployment, calls)
            await deployment.start()
            try:
                return await drive_load(deployment, spec, rng)
            finally:
                await deployment.aclose()

        report = asyncio.run(run())
        return report, calls

    def spec(self, **overrides):
        fields = dict(writers=3, writes=10, keys=4, shards=2, clients=6)
        fields.update(overrides)
        return small_spec(**fields)

    def test_writers_split_the_version_sequence(self):
        spec = self.spec()
        report, calls = self.drive(spec)
        writes = [call for call in calls if call[0] == "write"]
        names = key_names(spec.keys)
        versions = sorted(value[-1] for *_, value in writes)
        assert versions == list(range(spec.writes))
        for _, _, writer_id, key, value in writes:
            written, writer_index, version = value
            assert written == spec.scenario.workload.written_value
            assert version % spec.resolved_writers == writer_index
            assert key == names[version % spec.keys]
        assert report.writes_completed == spec.writes

    def test_writer_ids_start_at_the_scenario_writer_id(self):
        spec = self.spec(scenario=ScenarioSpec(system=MASKING, writer_id=40))
        _, calls = self.drive(spec)
        ids = {value[1]: writer_id for op, _, writer_id, _, value in calls if op == "write"}
        assert ids == {index: 40 + index for index in range(spec.resolved_writers)}

    def test_one_writer_writes_values_without_a_writer_index(self):
        spec = self.spec(writers=1)
        _, calls = self.drive(spec)
        values = [value for op, *_, value in calls if op == "write"]
        written = spec.scenario.workload.written_value
        assert values == [(written, version) for version in range(spec.writes)]

    def test_every_reader_client_reads_its_share(self):
        spec = self.spec()
        report, calls = self.drive(spec)
        reads = Counter(client for op, client, *_ in calls if op == "read")
        assert len(reads) == spec.clients
        assert set(reads.values()) == {spec.reads_per_client}
        # Readers never write and writers never read.
        writers = {client for op, client, *_ in calls if op == "write"}
        assert not writers & set(reads)
        assert report.reads_completed == spec.clients * spec.reads_per_client

    def test_report_counters_reconcile_with_the_issued_operations(self):
        spec = self.spec(key_skew=1.0)
        report, calls = self.drive(spec)
        assert sum(report.outcomes.values()) == report.reads_completed
        assert len(report.read_latencies) == report.reads_completed
        assert len(report.write_latencies) == report.writes_completed
        assert sum(report.shard_ops) == report.operations == len(calls)
        # Exactly one harness snapshot, from the one driver.
        harness = [
            snapshot
            for snapshot in report.metrics
            if snapshot.get("labels", {}).get("component") == "load-harness"
        ]
        assert len(harness) == 1


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

    def test_in_loop_and_cluster_runs_complete_the_same_workload(self):
        names = key_names(4)
        expected_writes = Counter(names[version % 4] for version in range(10))
        for processes in (0, 2):
            spec = self.spec(processes)
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
