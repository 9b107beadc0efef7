"""Service-layer soaks: safety and completeness under load, never wall-clock.

Throughput is measured by the repo benchmark (``bench/``), not here; these
tests print nothing and time nothing.  The workloads exercise the asyncio
service layer (`repro.service`) end to end and assert only what must hold
on any machine:

* **batched, 1k clients** — 1,000 concurrent in-process clients reading a
  masking register on a loss-free transport through the coalescing
  dispatcher (`repro.service.dispatch`): every operation completes, nothing
  is fabricated, and delivery events coalesce.
* **TCP, 200 clients** — the same over *real localhost sockets*
  (`repro.service.net`: length-prefixed frames, per-connection writer tasks,
  the op-level `TcpDispatcher`).
* **sharded TCP** — the wire path spread over 4 shards × 16 zipf-skewed
  register keys on the *binary* codec, every shard's server on the
  caller's event loop.
* **cluster TCP** — the same workload on a `ClusterDeployment`
  (`repro.service.cluster`: 4 shard server processes, the load driven
  from the test process).
* **anti-entropy churn** — the same churn-heavy TCP workload run twice,
  anti-entropy off and on: piggybacked read-repair + background gossip
  must cut the probe-fallback rounds by at least **5×** at equal workload,
  with zero fabrication.
* **fault-injection soak** — the `serve` experiment's configuration:
  colluding forgers at the system's declared tolerance (``b = 3`` below the
  read threshold ``k = 5``), 1% message drops, latency + jitter, and rolling
  live crash/recovery churn.  Safety expectation: *zero* ``fabricated``
  outcomes — with ``k > b`` a fabricated accept would be a stack bug, not
  bad luck.

A handful of ``stale`` reads is allowed on the healthy runs: with
``R_k(25, 10, b=3)`` two strategy-drawn quorums fail to intersect in ``k``
responsive storers with the system's (small but nonzero) probability ε, and
such a read legitimately returns an older write — that is the paper's ε
allowance, not a defect.
"""

from __future__ import annotations

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.experiments.serve import serve_load_spec
from repro.service.load import FaultInjectionSpec, ServiceLoadSpec, run_service_load
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: Stale reads tolerated across 3k healthy reads (the ε allowance; the
#: measured count at the pinned seed is ≤ 2, so 5 keeps flake margin while
#: still catching a real intersection regression).
MAX_STALE_READS = 5


def check_healthy_run(report) -> None:
    """The safety assertions of the 1k-client in-process run."""
    assert report.reads_completed == 3_000
    assert report.writes_completed == 50
    assert report.violations == 0
    # Healthy deployment: nothing fabricated; non-fresh reads are either
    # racing the very first write (empty) or the ε-allowed stale event.
    assert report.outcomes["stale"] <= MAX_STALE_READS
    assert (
        report.outcomes["fresh"] + report.outcomes["empty"] + report.outcomes["stale"]
        == 3_000
    )


def test_batched_dispatch_1k_clients():
    report = run_service_load(
        ServiceLoadSpec(
            scenario=ScenarioSpec(system=ProbabilisticMaskingSystem(25, 10, 3)),
            clients=1_000,
            reads_per_client=3,
            writes=50,
            deadline=1.0,
            seed=11,
        )
    )
    check_healthy_run(report)
    # Coalescing must actually coalesce: far fewer delivery events than RPCs.
    assert 0 < report.dispatch_flushes < report.rpc_calls / 10


def tcp_spec(
    shards: int = 1,
    keys: int = 1,
    key_skew: float = 0.0,
    codec: str = "json",
    processes: int = 0,
) -> ServiceLoadSpec:
    """200 localhost clients over real sockets; healthy deployment.

    ``deadline`` is generous because TCP deadlines are wall-clock: spurious
    deadline expiries under scheduler noise would turn a healthy run into a
    degraded one.
    """
    return ServiceLoadSpec(
        scenario=ScenarioSpec(system=ProbabilisticMaskingSystem(25, 10, 3)),
        clients=200,
        reads_per_client=5,
        writes=max(20, keys),
        deadline=2.0,
        transport="tcp",
        shards=shards,
        keys=keys,
        key_skew=key_skew,
        codec=codec,
        processes=processes,
        seed=17,
    )


def check_tcp_run(report, reads: int = 1_000) -> None:
    """Safety gates of the wire path."""
    assert report.transport == "tcp"
    assert report.reads_completed == reads
    assert report.violations == 0
    assert sum(report.outcomes.values()) == reads


def test_tcp_transport_200_clients():
    report = run_service_load(tcp_spec())
    check_tcp_run(report)


def check_sharded_run(report) -> None:
    check_tcp_run(report)
    # Routing really spread the workload: every shard served operations.
    assert len(report.shard_ops) == 4
    assert sum(report.shard_ops) == report.operations
    assert all(ops > 0 for ops in report.shard_ops)


def test_sharded_tcp_deployment():
    """Sharded deployment on the binary codec: the in-loop wire path."""
    spec = tcp_spec(shards=4, keys=16, key_skew=0.8, codec="binary", processes=0)
    report = run_service_load(spec)
    check_sharded_run(report)


def test_cluster_deployment():
    """The same workload on 4 shard server processes + binary codec."""
    spec = tcp_spec(shards=4, keys=16, key_skew=0.8, codec="binary", processes=1)
    report = run_service_load(spec)
    check_sharded_run(report)


#: The anti-entropy churn soak must show at least this factor fewer
#: probe-fallback rounds than the same workload without anti-entropy
#: (the measured reduction at the pinned seed is ~10x on both transports).
MIN_PROBE_FALLBACK_REDUCTION = 5.0


def churn_spec(anti_entropy) -> ServiceLoadSpec:
    """The churn-regime TCP workload, with or without anti-entropy.

    Crash-prone replicas (10% each) plus rolling live crash/recovery churn
    make partial quorums routine, so without repair nearly every read pays
    the probe-fallback round.  With anti-entropy armed the same workload
    piggybacks repairs and gossips in the background, and the lazy
    fallback skips the probe whenever the partial reply set already
    settles the read.
    """
    return ServiceLoadSpec(
        scenario=ScenarioSpec(
            system=UniformEpsilonIntersectingSystem(25, 8),
            failure_model=FailureModel.independent_crashes(0.1),
        ),
        clients=12,
        reads_per_client=8,
        writes=10,
        deadline=0.05,
        write_interval=0.001,
        transport="tcp",
        fault_injection=FaultInjectionSpec(crash_count=3, interval=0.002),
        anti_entropy=anti_entropy,
        seed=7,
    )


def check_churn_run(report) -> None:
    """Safety bars of the churn soak: complete, fresh, zero fabrication."""
    assert report.reads_completed == 96
    assert report.violations == 0
    assert report.injected_crashes > 0
    assert report.fresh_fraction > 0.9


def test_anti_entropy_kills_the_probe_fallback_round_under_churn():
    """Same churn workload, anti-entropy off vs on, over real TCP sockets.

    The reduction bar is a semantic property of lazy fallback plus repair,
    not a wall-clock floor; one retry absorbs the rare scheduling pattern
    where churn lands between the reads.
    """
    anti_entropy = AntiEntropySpec(
        fanout=2, rounds=1, interval=0.001, repair_budget=4
    )
    baseline = run_service_load(churn_spec(None))
    check_churn_run(baseline)
    repaired = run_service_load(churn_spec(anti_entropy))
    check_churn_run(repaired)
    if baseline.probe_fallbacks < MIN_PROBE_FALLBACK_REDUCTION * max(
        repaired.probe_fallbacks, 1
    ):
        baseline = run_service_load(churn_spec(None))
        check_churn_run(baseline)
        repaired = run_service_load(churn_spec(anti_entropy))
        check_churn_run(repaired)
    assert baseline.probe_fallbacks > 0
    assert repaired.repairs_piggybacked > 0
    assert repaired.gossip_rounds > 0
    reduction = baseline.probe_fallbacks / max(repaired.probe_fallbacks, 1)
    assert reduction >= MIN_PROBE_FALLBACK_REDUCTION, (
        f"anti-entropy only cut probe fallbacks "
        f"{baseline.probe_fallbacks} -> {repaired.probe_fallbacks} "
        f"({reduction:.1f}x; bar: {MIN_PROBE_FALLBACK_REDUCTION:.0f}x)"
    )


def test_fault_injection_soak_accepts_no_fabricated_reads():
    spec = serve_load_spec(clients=150, reads_per_client=4, writes=15, seed=23)
    # The scenario's threshold strictly exceeds the forger count, making the
    # zero-fabrication assertion structural rather than statistical.
    assert spec.scenario.system.read_threshold > spec.scenario.failure_model.count
    report = run_service_load(spec)
    assert report.reads_completed == 600
    assert report.violations == 0, (
        f"{report.violations} fabricated reads were accepted under "
        f"{spec.scenario.failure_model.describe()}"
    )
    # The soak must actually have exercised the failure paths it claims to:
    # dropped messages, timed-out RPCs, live churn and probe-based repair.
    assert report.rpc_dropped > 0
    assert report.rpc_timeouts > 0
    assert report.injected_crashes > 0
    assert report.probe_fallbacks > 0
    assert report.dispatch_flushes > 0
    # Liveness under all of that: the masking read still mostly succeeds.
    assert report.fresh_fraction > 0.9
