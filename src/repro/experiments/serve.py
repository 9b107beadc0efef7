"""The ``serve`` experiment: live service traffic under fault injection.

Where the ``consistency`` experiment validates the theorems with offline
Monte-Carlo trials, ``serve`` deploys the same declarative scenario as an
asyncio service (:mod:`repro.service`) and measures it the way an operator
would: throughput, latency percentiles, and safety-violation counts while
Byzantine forgers answer reads, messages drop, and live crash/recovery
churn runs underneath the traffic.

The default workload is a masking deployment whose threshold *provably*
filters the configured adversary: ``Rk(100, 30, b=3)`` has ``k = ⌈q²/2n⌉ =
5 > b``, so three colluding forgers can never muster the votes a reader
requires — any ``fabricated`` count other than zero would be a bug in the
service stack, which is exactly what the report asserts operationally.
The CLI exposes the knobs that matter for load (client count, reads per
client); the benchmark suite reuses the same builders.
"""

from __future__ import annotations

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ExperimentError, ReproError
from repro.protocol.timestamps import Timestamp
from repro.service.load import (
    FaultInjectionSpec,
    ServiceLoadReport,
    ServiceLoadSpec,
    run_service_load,
)
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: Default service workload: enough concurrency to exercise interleaving,
#: small enough to finish in a couple of seconds on a laptop.
DEFAULT_CLIENTS = 200
DEFAULT_READS_PER_CLIENT = 5
DEFAULT_WRITES = 20


def serve_scenario(
    n: int = 100, quorum_size: int = 30, b: int = 3, byzantine: bool = True
) -> ScenarioSpec:
    """The masking scenario the ``serve`` experiment deploys.

    The defaults put the threshold strictly above the adversary
    (``k = 5 > b = 3``), so the zero-fabrication safety check is a theorem,
    not a statistical accident.  ``byzantine=False`` swaps the colluding
    forgers for the same number of benign crashes.
    """
    system = ProbabilisticMaskingSystem(n, quorum_size, b)
    if system.read_threshold <= b:
        raise ExperimentError(
            f"the serve scenario wants k > b so zero fabrication is provable; "
            f"got k={system.read_threshold}, b={b}"
        )
    if not byzantine:
        return ScenarioSpec(system=system, failure_model=FailureModel.random_crashes(b))
    return ScenarioSpec(
        system=system,
        failure_model=FailureModel.colluding_forgers(
            b, "FORGED", Timestamp.forged_maximum()
        ),
    )


def serve_load_spec(
    clients: int = DEFAULT_CLIENTS,
    reads_per_client: int = DEFAULT_READS_PER_CLIENT,
    writes: int = DEFAULT_WRITES,
    seed: int = 0,
    scenario: ScenarioSpec = None,
    transport: str = "inproc",
    shards: int = 1,
    keys: int = 1,
    key_skew: float = 0.0,
    writers: int = None,
    contention: float = 0.0,
    codec: str = "json",
    processes: int = 0,
    trace_sample: float = 0.0,
    monitor_epsilon: bool = False,
    anti_entropy: AntiEntropySpec = None,
) -> ServiceLoadSpec:
    """The full soak configuration: forgers + drops + latency + live churn.

    ``transport`` moves the same soak between the
    simulated in-process message layer and real localhost TCP sockets;
    ``shards``/``keys``/``key_skew`` spread it over a multi-register
    sharded deployment (each shard its own replica group and failure plan).
    A multi-shard run needs at least as many keys as shards, and keeping
    ``writes >= keys`` avoids reads of never-written registers dominating
    the outcome counts.  ``writers`` splits the write workload across that
    many concurrent writer clients (each under its own writer identity);
    ``contention`` is the probability a multi-key write is redirected to
    the hottest key, colliding the writers on one register.

    ``codec`` picks the TCP wire codec (``"json"`` or the struct-packed
    ``"binary"``; the servers answer in it).  ``processes > 0`` moves the
    soak onto a :class:`~repro.service.cluster.ClusterDeployment` — one
    server process per shard, the load still driven from this process;
    both imply ``transport="tcp"``.  Live crash/recovery churn is in-loop
    surgery on the server objects, which a process boundary makes
    unreachable, so a multi-process soak runs without churn (the
    crashed-shard path is covered by the cluster tests instead).

    ``trace_sample`` turns on end-to-end quorum tracing for that fraction
    of operations (0, the default, keeps the hot path untouched);
    ``monitor_epsilon`` arms the online ε-monitor, which compares the
    sliding-window stale/fabricated-accepted rate against the scenario's
    predicted ε and records structured alerts on the report.

    ``anti_entropy`` arms the §1.1 diffusion mechanism for the deployment:
    piggybacked read-repair on every client plus (for a gossiping spec) a
    background gossip task per shard — the configuration under which the
    probe-fallback round all but disappears from the read path.
    """
    if codec != "json" or processes > 0:
        transport = "tcp"
    if scenario is None:
        scenario = serve_scenario()
    fault_injection = (
        FaultInjectionSpec(crash_count=0)
        if processes > 0
        else FaultInjectionSpec(crash_count=5, interval=0.002)
    )
    return ServiceLoadSpec(
        scenario=scenario,
        clients=clients,
        reads_per_client=reads_per_client,
        writes=writes,
        latency=0.0002,
        jitter=0.0001,
        drop_probability=0.01,
        # The in-process deadline is simulated-time-tight; over real sockets
        # the deadline must absorb wall-clock queueing (hundreds of clients
        # share one event loop with the servers in this harness), or
        # timeouts cascade into probe-ping storms.
        deadline=0.005 if transport == "inproc" else 0.25,
        fault_injection=fault_injection,
        transport=transport,
        shards=shards,
        keys=keys,
        key_skew=key_skew,
        writers=writers,
        contention=contention,
        codec=codec,
        processes=processes,
        trace_sample=trace_sample,
        monitor_epsilon=monitor_epsilon,
        anti_entropy=anti_entropy,
        seed=seed,
    )


def run_serve(
    clients: int = DEFAULT_CLIENTS,
    reads_per_client: int = DEFAULT_READS_PER_CLIENT,
    writes: int = DEFAULT_WRITES,
    seed: int = 0,
    transport: str = "inproc",
    shards: int = 1,
    keys: int = 1,
    key_skew: float = 0.0,
    writers: int = None,
    contention: float = 0.0,
    codec: str = "json",
    processes: bool = False,
    trace_sample: float = 0.0,
    trace_out: str = None,
    metrics_out: str = None,
    monitor_epsilon: bool = False,
    anti_entropy: bool = False,
    ae_fanout: int = 2,
    ae_interval: float = 0.002,
    ae_repair_budget: int = 4,
) -> str:
    """Run the service soak and render its report (the CLI entry point).

    ``processes`` (the ``--processes`` switch) deploys one server process
    per shard instead of the in-loop replica groups; it implies the TCP
    transport and no live churn.

    ``trace_sample`` samples that fraction of quorum operations into
    end-to-end traces; ``trace_out`` writes them as JSON lines (one trace
    per line).  ``metrics_out`` dumps the run's metrics registry snapshots
    (per component plus a cluster-wide merge) as one JSON document.
    ``monitor_epsilon`` arms the online ε-monitor.

    ``anti_entropy`` arms background freshness (piggybacked read-repair +
    per-shard gossip) with the ``ae_*`` knobs; the report's anti-entropy
    line then shows the repairs and gossip rounds the run banked while the
    probe-fallback count drops.
    """
    if trace_out is not None and trace_sample <= 0.0:
        trace_sample = 1.0  # a trace dump with nothing sampled is a footgun
    if shards > 1 and keys == 1:
        # A sharded run needs keys to hash; default to a key per shard and
        # enough writes that every register is written at least once.
        keys = shards
    try:
        spec = serve_load_spec(
            clients=clients,
            reads_per_client=reads_per_client,
            writes=max(writes, keys),
            seed=seed,
            transport=transport,
            shards=shards,
            keys=keys,
            key_skew=key_skew,
            writers=writers,
            contention=contention,
            codec=codec,
            processes=int(processes),
            trace_sample=trace_sample,
            monitor_epsilon=monitor_epsilon,
            anti_entropy=(
                AntiEntropySpec(
                    fanout=ae_fanout,
                    interval=ae_interval,
                    repair_budget=ae_repair_budget,
                )
                if anti_entropy
                else None
            ),
        )
    except ReproError as error:
        raise ExperimentError(str(error)) from error
    report = run_service_load(spec)
    if trace_out is not None:
        dump_traces(report, trace_out)
    if metrics_out is not None:
        dump_metrics(report, metrics_out)
    return render_serve(report)


def dump_traces(report: ServiceLoadReport, path: str) -> int:
    """Write the report's sampled traces as JSON lines; returns the count."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for trace in report.traces:
            handle.write(json.dumps(trace, sort_keys=True) + "\n")
    return len(report.traces)


def dump_metrics(report: ServiceLoadReport, path: str) -> dict:
    """Write the run's metrics as one JSON document; returns the document.

    The document carries the raw per-component snapshots (one per client
    pool, shard server or worker), a cluster-wide merge, and — when the
    ε-monitor was armed — its final state including any alerts.
    """
    import json

    from repro.obs.metrics import merge_snapshots

    document = {
        "snapshots": report.metrics,
        "merged": merge_snapshots(report.metrics),
        "epsilon_monitor": report.epsilon_monitor,
        "epsilon_alerts": report.epsilon_alerts,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def render_serve(report: ServiceLoadReport) -> str:
    """The experiment's report block, with the safety verdict spelled out."""
    verdict = (
        "OK: no fabricated value was ever accepted"
        if report.violations == 0
        else f"VIOLATION: {report.violations} fabricated reads accepted"
    )
    return f"{report.render()}\n  safety verdict    {verdict}"
