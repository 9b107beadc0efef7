"""End-to-end observability: tracing, metrics and the ε-monitor under load.

Three contracts pin the subsystem to the load harness:

* **zero divergence** — the same seeded soak with tracing at 100% sampling
  classifies every read identically to the untraced run (the tracer's RNG
  is private, the hot path branch-free when off);
* **reconciliation** — with 100% sampling, the per-operation trace
  classifications reconcile *exactly* with the report's outcome
  counters — no lost, double-counted or mislabelled operation, in-process
  and across a 2-shard multi-process cluster;
* **report parity** — the one load driver produces the same *kind* of
  report whatever the process count: same metric components, one
  load-harness snapshot, the spec's codec, and no second set of client
  connections at ``processes=1``;
* **ε-monitor** — zero alerts under the benign conformance scenario
  (ε = 0 exactly for the 24-of-36 system), and provable firing when an
  injected forger regime pushes the observed error rate past ε + slack.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.service.load import ServiceLoadSpec, run_service_load
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec

#: ε = 0 exactly: every two 24-of-36 quorums share ≥ 12 servers, ≥ k = 8
#: of them correct against b = 3 — benign soaks are theorem-clean.
STRICT = ProbabilisticMaskingSystem(36, 24, 3)


def benign_scenario() -> ScenarioSpec:
    return ScenarioSpec(system=STRICT)


def forged_scenario() -> ScenarioSpec:
    """Three colluding forgers against a reader with no filter at all.

    ``register_kind="plain"`` models an unprotected reader (threshold 1),
    so any quorum touching a forger accepts the fabricated maximum — with
    24-of-36 quorums that is ~97% of reads, far past ε + slack = 0.05.
    """
    return ScenarioSpec(
        system=STRICT,
        failure_model=FailureModel.colluding_forgers(
            3, "FORGED", Timestamp.forged_maximum()
        ),
        register_kind="plain",
    )


def small_spec(**overrides) -> ServiceLoadSpec:
    defaults = dict(
        scenario=benign_scenario(),
        clients=20,
        reads_per_client=4,
        writes=6,
        seed=13,
    )
    defaults.update(overrides)
    return ServiceLoadSpec(**defaults)


def read_classifications(report) -> Counter:
    """Per-label counts of the report's read traces (writes excluded)."""
    counts = Counter()
    for trace in report.traces:
        if trace["op"] == "read" and trace["classification"] is not None:
            counts[trace["classification"]] += 1
    return counts


class TestSpecKnobs:
    def test_trace_sample_is_validated(self):
        with pytest.raises(ConfigurationError):
            small_spec(trace_sample=-0.1)
        with pytest.raises(ConfigurationError):
            small_spec(trace_sample=1.5)
        spec = small_spec(trace_sample=0.5, monitor_epsilon=True)
        assert "trace_sample=0.5" in spec.describe()

    def test_tracing_defaults_off(self):
        report = run_service_load(small_spec())
        assert report.traces == []
        assert report.epsilon_monitor is None
        assert report.epsilon_alerts == []
        assert report.codec == "json"  # the in-process spelling


class TestZeroDivergence:
    def test_traced_run_classifies_identically_to_untraced(self):
        untraced = run_service_load(small_spec())
        traced = run_service_load(
            small_spec(trace_sample=1.0, monitor_epsilon=True)
        )
        assert traced.outcomes == untraced.outcomes
        assert traced.violations == untraced.violations
        assert traced.reads_completed == untraced.reads_completed
        assert untraced.traces == [] and traced.traces != []

    def test_partial_sampling_does_not_diverge_either(self):
        untraced = run_service_load(small_spec())
        sampled = run_service_load(small_spec(trace_sample=0.25))
        assert sampled.outcomes == untraced.outcomes
        assert 0 < len(sampled.traces) < untraced.reads_completed + 6


class TestReconciliation:
    def test_traces_reconcile_with_report_counters_in_process(self):
        report = run_service_load(small_spec(trace_sample=1.0))
        observed = read_classifications(report)
        expected = {
            label: count for label, count in report.outcomes.items() if count
        }
        assert dict(observed) == expected
        assert sum(observed.values()) == report.reads_completed
        # Every trace carries its sampled quorum and at least one span.
        assert all(trace["quorum"] for trace in report.traces)
        assert all(trace["spans"] for trace in report.traces)

    def test_metrics_snapshots_cover_the_run(self):
        from repro.obs.metrics import merge_snapshots

        report = run_service_load(small_spec(trace_sample=1.0))
        assert report.metrics
        merged = merge_snapshots(report.metrics)
        assert merged["counters"]["rpc_calls"] > 0
        assert merged["counters"]["traces_started"] == len(report.traces)

    def test_cluster_traces_reconcile_with_the_merged_report(self):
        spec = small_spec(
            clients=6,
            reads_per_client=3,
            writes=6,
            keys=4,
            shards=2,
            processes=2,
            transport="tcp",
            trace_sample=1.0,
            monitor_epsilon=True,
            seed=3,
        )
        report = run_service_load(spec)
        observed = read_classifications(report)
        expected = {
            label: count for label, count in report.outcomes.items() if count
        }
        assert dict(observed) == expected
        assert sum(observed.values()) == report.reads_completed == 18
        ids = [trace["trace_id"] for trace in report.traces]
        assert len(ids) == len(set(ids))
        # After teardown the report's metrics include every shard-server
        # process's own snapshot.
        server_roles = [
            snapshot
            for snapshot in report.metrics
            if snapshot.get("labels", {}).get("role") == "shard-server"
        ]
        assert len(server_roles) == 2
        assert all(
            snapshot["counters"]["server_requests_handled"] > 0
            for snapshot in server_roles
        )
        # Benign ε = 0 cluster: the monitor observed every read, no alerts.
        assert report.epsilon_monitor is not None
        assert report.epsilon_monitor["observed"] == report.reads_completed
        assert report.epsilon_alerts == []


class TestReportParity:
    def report(self, processes: int):
        return run_service_load(
            small_spec(
                clients=6,
                reads_per_client=3,
                writes=6,
                keys=4,
                shards=2,
                processes=processes,
                transport="tcp",
                codec="binary",
                seed=3,
            )
        )

    def test_report_parity_across_process_counts(self):
        from repro.obs.metrics import merge_snapshots

        reports = {processes: self.report(processes) for processes in (0, 1, 2)}
        components = {
            processes: {
                snapshot["labels"]["component"] for snapshot in report.metrics
            }
            for processes, report in reports.items()
        }
        assert components[0] == components[1] == components[2]
        assert "load-harness" in components[0]
        for processes, report in reports.items():
            harness = [
                snapshot
                for snapshot in report.metrics
                if snapshot["labels"]["component"] == "load-harness"
            ]
            # The load runs in one driver whatever the shape: one snapshot.
            assert len(harness) == 1
            assert all("probe_fallback_ops" in h["counters"] for h in harness)
            assert all("fresh_read_fraction" in h["gauges"] for h in harness)
            # The codec the connections sent, in every shape.
            assert report.codec == "binary"
            assert report.reads_completed == 18 and report.writes_completed == 6
        accepted = {
            processes: merge_snapshots(report.metrics)["counters"][
                "server_connections_accepted"
            ]
            for processes, report in reports.items()
        }
        # processes=1 drives the load on the cluster deployment's own
        # transports: no second client pool beside them.
        assert accepted[1] == accepted[0]


class TestEpsilonMonitor:
    def test_benign_scenario_raises_zero_alerts(self):
        report = run_service_load(small_spec(monitor_epsilon=True))
        assert report.epsilon_monitor is not None
        assert report.epsilon_monitor["epsilon"] == 0.0
        assert report.epsilon_monitor["observed"] == report.reads_completed
        assert report.epsilon_monitor["errors"] == 0
        assert report.epsilon_alerts == []

    def test_forged_regime_provably_fires(self):
        report = run_service_load(
            small_spec(
                scenario=forged_scenario(),
                clients=30,
                reads_per_client=3,
                monitor_epsilon=True,
                seed=5,
            )
        )
        # The unprotected reader accepts forgeries on ~97% of reads: far
        # beyond ε + slack = 0.05, so the monitor must have fired.
        assert report.epsilon_monitor["errors"] > 0
        assert report.epsilon_alerts
        alert = report.epsilon_alerts[0]
        assert alert["kind"] == "epsilon-exceeded"
        assert alert["observed_rate"] > alert["bound"]

    def test_monitor_off_by_default_even_when_traced(self):
        report = run_service_load(small_spec(trace_sample=1.0))
        assert report.epsilon_monitor is None

