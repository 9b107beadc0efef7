"""The service load harness: N concurrent clients under live fault injection.

:class:`ServiceLoadSpec` mirrors the declarative
:class:`~repro.simulation.scenario.ScenarioSpec` one level up: it is a
:class:`~repro.service.sharding.DeploymentSpec` (scenario, transport,
conditions, deadline, shards, codec, processes, tracing, anti-entropy —
described and checked once there) plus a *service* workload: how many
concurrent reader clients, how many writes, how many register keys the
workload spreads over (optionally zipf-skewed), and a rolling
crash/recovery schedule injected while requests are in flight.

:func:`serve_load` is *deploy → drive*.  It hands the spec to the one
factory (:func:`~repro.service.cluster.deploy`: replica groups on this
loop, or one server process per shard when ``processes > 0``) and the
deployment to :func:`drive_load`, the **only** workload loop: ``writers``
concurrent writers (each under its own writer identity, so contending
timestamps tie-break by writer id exactly as in the Monte-Carlo engines)
and ``clients`` concurrent readers, driven through the ordinary client
surface of whatever :class:`~repro.service.sharding.ShardedClientAPI` it is
given.  The load always runs in this process, whatever the deployment
shape, so readers classify against the same per-key issued histories and
settled-write snapshots the writers update.  A report carries throughput
(aggregate and per shard), latency percentiles and — via the shared
classifier of :mod:`repro.protocol.classification` — the same
fresh/stale/empty/fabricated outcome counts the Monte-Carlo engines
produce.  ``fabricated`` outcomes are the report's *safety violations*:
values that were never written being accepted by a reader.  Live fault
injection is refused with ``processes > 0``: it needs the replica node
objects in this process.

Unlike the trial engines, reads here genuinely overlap writes, and the
theorems say nothing about a read concurrent with a write.  The harness
therefore classifies each read against the last write *completed before the
read started* on the same key and re-labels as fresh any "fabricated"
outcome that is in fact a concurrent honest write (its value/timestamp pair
appears in that key's issued history).  What remains fabricated is a true
violation on any interleaving.

Simulated time vs wall clock: with ``transport="inproc"`` every delay and
deadline is event-loop time over simulated message passing.  A stock
asyncio loop's time is the wall clock, so a seeded run is *not*
reproducible there (its timeout and crash counters move between runs);
only a virtual-time loop such as the tests' ``VirtualTimeLoop`` makes it
deterministic.  With ``transport="tcp"`` the frames cross real localhost
sockets and deadlines bound wall-clock time, so scheduling noise is part
of the measurement (the conformance suite checks the *classification
rates* still agree between the two).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections import deque

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import EpsilonMonitor
from repro.protocol.classification import OUTCOME_LABELS, classify_read_outcome
from repro.protocol.register import ReadOutcome, WriteOutcome
from repro.service.cluster import deploy
from repro.service.sharding import (
    DeploymentSpec,
    ShardedClientAPI,
    ShardedDeployment,
    shard_for_key,
)


@dataclass(frozen=True)
class FaultInjectionSpec:
    """Rolling crash/recovery injected while the load runs.

    Every ``interval`` event-loop seconds the injector crashes one currently
    correct server (across all shards), keeping at most ``crash_count``
    injected crashes alive at once (the oldest recovers first) — a churn
    model on top of whatever static failures the scenario's failure model
    installed per shard.
    """

    crash_count: int = 0
    interval: float = 0.002

    def __post_init__(self) -> None:
        if self.crash_count < 0:
            raise ConfigurationError(
                f"the injected crash count must be non-negative, got {self.crash_count}"
            )
        if self.interval <= 0.0:
            raise ConfigurationError(
                f"the injection interval must be positive, got {self.interval}"
            )


def key_names(keys: int) -> List[str]:
    """The register keys a ``keys``-register workload addresses.

    A single-register workload keeps the historical name ``"x"`` so
    single-key runs stay byte-compatible with earlier harness versions.
    """
    if keys == 1:
        return ["x"]
    return [f"x{index}" for index in range(keys)]


def key_weight_cdf(keys: int, skew: float) -> List[float]:
    """Cumulative selection weights over the ranks ``0..keys-1``.

    ``skew=0`` is uniform; ``skew>0`` is zipf-like (rank ``i`` drawn with
    probability proportional to ``1/(i+1)**skew``), modelling the hot-key
    traffic real multi-register deployments see.
    """
    weights = [1.0 / float(rank + 1) ** skew for rank in range(keys)]
    total = sum(weights)
    cdf: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0  # guard the floating-point tail
    return cdf


def refuse_remote_churn(spec: Any) -> None:
    """Refuse live churn on a cluster, for both load specs.

    :func:`inject_faults` crashes node objects in this process; with
    ``processes > 0`` the replicas live in shard server processes, so it
    would find nothing to crash and the run would silently go unchurned.
    """
    if spec.processes > 0 and spec.fault_injection.crash_count > 0:
        raise ConfigurationError(
            "live fault injection needs in-process node objects; with "
            "processes > 0 the servers live in their own processes, so "
            "use the scenario's static failure model instead"
        )


@dataclass(frozen=True)
class ServiceLoadSpec(DeploymentSpec):
    """One service load experiment: a deployment plus its workload.

    The deployment fields (scenario, transport, shards, codec, processes,
    conditions, deadline, seed, trace sampling, anti-entropy) and their
    checks are :class:`~repro.service.sharding.DeploymentSpec`'s; ``seed``
    defaults to 0 here.  The workload fields are:

    Attributes
    ----------
    clients:
        Number of concurrent reader clients.
    reads_per_client:
        Reads each client issues back to back.
    writes:
        Writes issued in total, split round-robin over the workload's
        writers and keys (write ``v`` belongs to writer ``v % writers``).
    write_interval:
        Event-loop seconds between writes (0 = as fast as possible).
    fault_injection:
        Live crash/recovery churn on top of the scenario's failures
        (refused with ``processes > 0``).
    keys:
        Register keys the workload spreads over (at least ``shards``).
    key_skew:
        Zipf exponent of the readers' key distribution (0 = uniform).
    writers:
        Concurrent writer clients, each with its own writer identity
        (``scenario.writer_id + w``), so contending timestamps tie-break
        exactly as in the Monte-Carlo engines.  ``None`` inherits the
        scenario's ``writers``.
    contention:
        Probability each write targets the hottest key (``names[0]``)
        instead of its round-robin key — the knob that makes concurrent
        writers actually collide on one register.
    monitor_epsilon:
        Run the online :class:`~repro.obs.monitor.EpsilonMonitor` over the
        classified read stream, attaching its alerts to the report.
    """

    clients: int = 100
    reads_per_client: int = 5
    writes: int = 10
    write_interval: float = 0.0
    fault_injection: FaultInjectionSpec = field(default_factory=FaultInjectionSpec)
    keys: int = 1
    key_skew: float = 0.0
    seed: int = 0
    writers: Optional[int] = None
    contention: float = 0.0
    monitor_epsilon: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.clients}")
        if self.reads_per_client < 1:
            raise ConfigurationError(
                f"each client needs at least one read, got {self.reads_per_client}"
            )
        if self.writes < 1:
            raise ConfigurationError(f"need at least one write, got {self.writes}")
        if self.write_interval < 0.0:
            raise ConfigurationError(
                f"the write interval must be non-negative, got {self.write_interval}"
            )
        if self.keys < 1:
            raise ConfigurationError(f"need at least one register key, got {self.keys}")
        if self.shards > self.keys:
            raise ConfigurationError(
                f"{self.shards} shards with only {self.keys} register keys "
                f"leaves shards provably idle; use shards <= keys"
            )
        if self.key_skew < 0.0:
            raise ConfigurationError(
                f"the key skew must be non-negative, got {self.key_skew}"
            )
        if self.writers is not None and self.writers < 1:
            raise ConfigurationError(
                f"need at least one writer, got {self.writers}"
            )
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigurationError(
                f"contention is a probability in [0, 1], got {self.contention}"
            )
        refuse_remote_churn(self)

    @property
    def total_ops(self) -> int:
        """Operations the workload issues in total."""
        return self.clients * self.reads_per_client + self.writes

    @property
    def resolved_writers(self) -> int:
        """The effective writer count (the spec's, else the scenario's)."""
        return self.scenario.writers if self.writers is None else self.writers

    def describe(self) -> str:
        """One-line summary used in reports."""
        extras = ""
        if self.transport != "inproc" or self.shards > 1 or self.keys > 1:
            extras = (
                f", transport={self.transport}, shards={self.shards}, "
                f"keys={self.keys}"
            )
            if self.key_skew:
                extras += f", key_skew={self.key_skew}"
        if self.codec != "json":
            extras += f", codec={self.codec}"
        if self.processes:
            extras += f", processes={self.processes}"
        if self.resolved_writers > 1:
            extras += f", writers={self.resolved_writers}"
        if self.contention:
            extras += f", contention={self.contention}"
        if self.trace_sample:
            extras += f", trace_sample={self.trace_sample}"
        if self.monitor_epsilon:
            extras += ", monitor_epsilon=True"
        if self.resolved_anti_entropy is not None:
            extras += f", anti_entropy={self.resolved_anti_entropy.describe()}"
        return (
            f"ServiceLoadSpec({self.scenario.describe()}, clients={self.clients}, "
            f"reads/client={self.reads_per_client}, writes={self.writes}, "
            f"latency={self.latency}, drop={self.drop_probability}, "
            f"injected_crashes={self.fault_injection.crash_count}{extras})"
        )


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class ServiceLoadReport:
    """What the harness measured: throughput, latency and safety."""

    spec: ServiceLoadSpec
    elapsed: float
    reads_completed: int
    writes_completed: int
    write_failures: int
    outcomes: Dict[str, int]
    read_latencies: List[float]
    write_latencies: List[float]
    rpc_calls: int
    rpc_dropped: int
    rpc_timeouts: int
    probe_fallbacks: int
    injected_crashes: int
    #: Delivery events the in-process batched dispatcher fired (0 on the
    #: TCP path); coalescing quality is roughly
    #: ``rpc_calls / dispatch_flushes``.
    dispatch_flushes: int = 0
    #: Read-repair payloads piggybacked on already-scheduled deliveries
    #: (0 unless the run's anti-entropy spec grants a repair budget).
    repairs_piggybacked: int = 0
    #: Background gossip rounds the deployment ran while the load was in
    #: flight (0 unless the anti-entropy spec gossips).
    gossip_rounds: int = 0
    #: Completed operations routed to each shard (length ``spec.shards``).
    shard_ops: List[int] = field(default_factory=list)
    #: Sampled :class:`~repro.obs.trace.QuorumTrace` dicts (empty unless
    #: ``spec.trace_sample > 0``).
    traces: List[dict] = field(default_factory=list)
    #: Picklable metric snapshots (client side, plus one per shard server);
    #: merge with :func:`repro.obs.metrics.merge_snapshots`.
    metrics: List[dict] = field(default_factory=list)
    #: Alerts the online ε-monitor raised (empty unless
    #: ``spec.monitor_epsilon``).
    epsilon_alerts: List[dict] = field(default_factory=list)
    #: The ε-monitor's closing summary (``None`` unless enabled).
    epsilon_monitor: Optional[dict] = None

    @property
    def transport(self) -> str:
        """Which transport carried the RPCs (the spec's)."""
        return self.spec.transport

    @property
    def codec(self) -> str:
        """The wire codec every connection of the run sent (the spec's)."""
        return self.spec.codec

    @property
    def operations(self) -> int:
        """Completed operations (reads + writes)."""
        return self.reads_completed + self.writes_completed

    @property
    def throughput(self) -> float:
        """Completed operations per wall-clock second."""
        return self.operations / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def per_shard_throughput(self) -> List[float]:
        """Completed operations per second, split by owning shard."""
        if self.elapsed <= 0:
            return [0.0 for _ in self.shard_ops]
        return [ops / self.elapsed for ops in self.shard_ops]

    @property
    def shard_imbalance(self) -> float:
        """Hottest-to-coldest shard ratio of completed operations.

        ``1.0`` is perfectly even; ``inf`` means some shard completed
        nothing while another did work.  Single-shard runs (and runs that
        completed nothing at all) report ``1.0`` — there is nothing to be
        imbalanced against.  Benchmark comparisons warn (never gate) on
        this: zipf-skewed keys make some imbalance expected, but a jump is
        how a routing or hot-shard regression first shows up.
        """
        if len(self.shard_ops) < 2:
            return 1.0
        hottest = max(self.shard_ops)
        coldest = min(self.shard_ops)
        if hottest == 0:
            return 1.0
        if coldest == 0:
            return math.inf
        return hottest / coldest

    @property
    def fresh_fraction(self) -> float:
        """Fraction of completed reads that returned the latest settled write."""
        if not self.reads_completed:
            return 0.0
        return self.outcomes.get("fresh", 0) / self.reads_completed

    @property
    def violations(self) -> int:
        """Fabricated-accepted reads: values never written that a read returned."""
        return self.outcomes.get("fabricated", 0)

    def read_latency(self, fraction: float) -> float:
        """A read-latency percentile in seconds (nearest rank)."""
        return _percentile(sorted(self.read_latencies), fraction)

    def render(self) -> str:
        """Plain-text report block (the ``serve`` experiment's output)."""
        reads_ms = sorted(self.read_latencies)
        lines = [
            "Service load report",
            f"  {self.spec.describe()}",
            f"  elapsed           {self.elapsed:.3f} s",
            f"  throughput        {self.throughput:,.0f} ops/s "
            f"({self.reads_completed} reads + {self.writes_completed} writes)",
        ]
        if len(self.shard_ops) > 1:
            lines.append(
                "  per-shard ops/s   "
                + "  ".join(
                    f"s{index}={throughput:,.0f}"
                    for index, throughput in enumerate(self.per_shard_throughput)
                )
                + f"  (imbalance {self.shard_imbalance:.2f}x)"
            )
        lines += [
            "  read latency      "
            + "  ".join(
                f"p{int(fraction * 100)}={_percentile(reads_ms, fraction) * 1e3:.2f}ms"
                for fraction in (0.50, 0.90, 0.99)
            )
            + (f"  max={reads_ms[-1] * 1e3:.2f}ms" if reads_ms else ""),
            "  outcomes          "
            + "  ".join(f"{label}={self.outcomes.get(label, 0)}" for label in OUTCOME_LABELS),
            f"  safety violations {self.violations} fabricated-accepted reads",
            f"  transport         {self.transport}: {self.rpc_calls} rpcs, "
            f"{self.rpc_dropped} dropped, {self.rpc_timeouts} timed out"
            + (
                f", {self.dispatch_flushes} coalesced deliveries"
                if self.dispatch_flushes
                else ""
            ),
            f"  resilience        {self.probe_fallbacks} probe fallbacks, "
            f"{self.injected_crashes} live crashes injected, "
            f"{self.write_failures} writes found no live quorum",
        ]
        if self.repairs_piggybacked or self.gossip_rounds:
            lines.append(
                f"  anti-entropy      {self.repairs_piggybacked} repairs "
                f"piggybacked, {self.gossip_rounds} gossip rounds"
            )
        if self.traces:
            lines.append(f"  tracing           {len(self.traces)} sampled traces")
        if self.epsilon_monitor is not None:
            monitor = self.epsilon_monitor
            lines.append(
                f"  ε-monitor         observed rate "
                f"{monitor['total_rate']:.4f} vs bound "
                f"{monitor['epsilon'] + monitor['slack']:.4f}: "
                f"{len(self.epsilon_alerts)} alerts"
            )
        return "\n".join(lines)


def classify_service_read(
    outcome: ReadOutcome,
    settled_write: Optional[WriteOutcome],
    history: Dict[Any, Any],
) -> str:
    """Label one service read with the shared classification rule.

    ``settled_write`` is the last write that had *completed* when the read
    started (``None`` before the first completion); ``history`` maps every
    issued write timestamp to its value (both are per register key).  The
    label is exactly
    :func:`~repro.protocol.classification.classify_read_outcome` against the
    settled write, except that an outcome matching a *concurrent* issued
    write is fresh, not fabricated — the theorems do not constrain reads
    that overlap writes, and returning the newer honest value is not a
    safety violation.
    """

    def is_issued(timestamp: Any, value: Any) -> bool:
        try:
            return timestamp in history and history[timestamp] == value
        except TypeError:  # unhashable forged timestamp: never issued
            return False

    if settled_write is None:
        if outcome.is_empty:
            return "empty"
        return "fresh" if is_issued(outcome.timestamp, outcome.value) else "fabricated"
    label = classify_read_outcome(
        outcome,
        settled_write,
        expected_value=history[settled_write.timestamp],
        check_value=True,
    )
    if label == "fabricated" and is_issued(outcome.timestamp, outcome.value):
        return "fresh"
    if label == "stale" and not is_issued(outcome.timestamp, outcome.value):
        # The shared classifier trusts any honest-*typed* timestamp below the
        # settled write, but the harness knows the full issued history: a
        # pair that was never written is a violation however old its forged
        # timestamp looks.
        return "fabricated"
    return label


async def inject_faults(
    deployment: ShardedDeployment,
    injection: FaultInjectionSpec,
    rng: random.Random,
    counters: Dict[str, int],
) -> None:
    """Rolling crash/recovery churn over a live deployment.

    Every ``injection.interval`` event-loop seconds one currently correct
    server (across all shards) crashes, keeping at most
    ``injection.crash_count`` injected crashes alive at once (the oldest
    recovers first).  Statically faulty servers are never touched — the
    scenario's failure model owns those.  Runs until cancelled; increments
    ``counters["injected"]`` per crash.  Shared by the register load
    harness and the lock-service harness in :mod:`repro.apps.mutex`.
    """
    if injection.crash_count < 1:
        return
    statically_faulty = {
        (shard.index, server)
        for shard in deployment.shards
        for server in shard.plan.faulty_servers
    }
    injected: deque = deque()
    while True:
        await asyncio.sleep(injection.interval)
        if len(injected) >= injection.crash_count:
            shard_index, server = injected.popleft()
            deployment.shards[shard_index].nodes[server].recover()
        candidates = [
            (shard.index, node.server_id)
            for shard in deployment.shards
            for node in shard.nodes
            if (shard.index, node.server_id) not in statically_faulty
            and (shard.index, node.server_id) not in injected
            and not node.server.is_crashed
        ]
        if not candidates:
            continue
        victim = rng.choice(candidates)
        deployment.shards[victim[0]].nodes[victim[1]].crash()
        injected.append(victim)
        counters["injected"] += 1


async def drive_load(
    deployment: ShardedClientAPI,
    spec: ServiceLoadSpec,
    rng: random.Random,
) -> ServiceLoadReport:
    """Drive ``spec``'s workload through a started deployment.

    The only workload loop there is: every deployment shape runs it against
    the client surface it is handed.  ``rng`` seeds every client (and,
    in-loop, the fault injector); the deployment's ``tracer``, if any, was
    installed by the caller before ``start()``.
    """
    scenario = spec.scenario
    tracer = deployment.tracer
    monitor = EpsilonMonitor.for_scenario(scenario) if spec.monitor_epsilon else None

    def make_client(writer_id: Optional[int] = None):
        return deployment.new_register_client(rng, writer_id=writer_id)

    writer_count = spec.resolved_writers
    writers = [
        make_client(writer_id=scenario.writer_id + index)
        for index in range(writer_count)
    ]
    readers = [make_client() for _ in range(spec.clients)]

    # -- workload: the keys and their read distribution ---------------------------
    names = key_names(spec.keys)
    # Routing is stable, so hash each key once instead of per operation.
    shard_of = {name: shard_for_key(name, spec.shards) for name in names}
    # Reader / writer streams are drawn only when something will use them,
    # so single-key and uncontended runs keep their per-seed randomness
    # byte for byte.
    if len(names) > 1:
        cdf = key_weight_cdf(spec.keys, spec.key_skew)
        reader_rngs = [
            random.Random(rng.randrange(2**63)) for _ in range(spec.clients)
        ]
    if spec.contention > 0.0:
        writer_rngs = [
            random.Random(rng.randrange(2**63)) for _ in range(writer_count)
        ]

    # -- shared observation state -------------------------------------------------
    history: Dict[str, Dict[Any, Any]] = {name: {} for name in names}
    settled: Dict[str, Optional[WriteOutcome]] = {name: None for name in names}
    outcomes: Dict[str, int] = {label: 0 for label in OUTCOME_LABELS}
    read_latencies: List[float] = []
    write_latencies: List[float] = []
    shard_ops = [0] * spec.shards
    counters = {"reads": 0, "writes": 0, "write_failures": 0, "injected": 0}

    # A reader may legitimately observe a write the moment its RPCs fan
    # out, before the writer considers it complete — record issued pairs
    # eagerly, per key.  Writer ids are distinct, so concurrent writers
    # never collide on a timestamp key.
    for writer in writers:
        writer.on_issued = (
            lambda key, timestamp, value: history[key].__setitem__(timestamp, value)
        )

    def settle(key: str, outcome: WriteOutcome) -> None:
        # With concurrent writers the *highest timestamp* settles, not
        # the last completion: that is the value the shared selection
        # rule makes every subsequent read prefer, whichever writer's
        # RPCs happened to finish later.
        current = settled[key]
        if current is None or current.timestamp < outcome.timestamp:
            settled[key] = outcome

    async def run_writer(writer_index: int) -> None:
        writer = writers[writer_index]
        for version in range(writer_index, spec.writes, writer_count):
            key = names[version % spec.keys]
            if spec.contention > 0.0:
                if writer_rngs[writer_index].random() < spec.contention:
                    key = names[0]
            if writer_count == 1:
                value = (scenario.workload.written_value, version)
            else:
                value = (scenario.workload.written_value, writer_index, version)
            started = time.perf_counter()
            try:
                outcome = await writer.write(key, value)
            except QuorumUnavailableError:
                counters["write_failures"] += 1
            else:
                write_latencies.append(time.perf_counter() - started)
                settle(key, outcome)
                counters["writes"] += 1
                shard_ops[shard_of[key]] += 1
            if spec.write_interval:
                await asyncio.sleep(spec.write_interval)

    async def run_reader(reader, index: int) -> None:
        for _ in range(spec.reads_per_client):
            if len(names) == 1:
                key = names[0]
            else:
                key = reader_rngs[index].choices(names, cum_weights=cdf)[0]
            snapshot = settled[key]
            started = time.perf_counter()
            outcome = await reader.read(key)
            read_latencies.append(time.perf_counter() - started)
            label = classify_service_read(outcome, snapshot, history[key])
            outcomes[label] += 1
            if tracer is not None and reader.last_trace is not None:
                # The read's trace was just finished by the client;
                # stamping its classification afterwards keeps the hot
                # path label-free and lets the acceptance check
                # reconcile traces against the report's counters.
                reader.last_trace.classification = label
            if monitor is not None:
                monitor.observe(label)
            counters["reads"] += 1
            shard_ops[shard_of[key]] += 1

    # Returns at once unless the spec injects crashes — which it may only
    # do where the replica nodes are in this process.
    injector = asyncio.ensure_future(
        inject_faults(deployment, spec.fault_injection, rng, counters)
    )
    started = time.perf_counter()
    try:
        await asyncio.gather(
            *(run_writer(index) for index in range(writer_count)),
            *(run_reader(reader, index) for index, reader in enumerate(readers)),
        )
    finally:
        injector.cancel()
        try:
            await injector
        except asyncio.CancelledError:
            pass
    elapsed = time.perf_counter() - started

    probe_fallbacks = sum(client.probe_fallbacks for client in writers + readers)
    # The harness's own perf accounting rides along as one more
    # snapshot: the read-path cost (probe fallbacks) next to the
    # background cost that absorbs it (repairs, gossip rounds), plus
    # the freshness the trade bought.
    harness = MetricsRegistry(labels={"component": "load-harness"})
    harness.counter("probe_fallback_ops").inc(probe_fallbacks)
    harness.counter("repairs_piggybacked").inc(deployment.repairs_piggybacked)
    harness.counter("gossip_rounds").inc(deployment.gossip_rounds)
    harness.gauge("fresh_read_fraction").set(
        outcomes.get("fresh", 0) / counters["reads"] if counters["reads"] else 0.0
    )

    return ServiceLoadReport(
        spec=spec,
        elapsed=elapsed,
        reads_completed=counters["reads"],
        writes_completed=counters["writes"],
        write_failures=counters["write_failures"],
        outcomes=outcomes,
        read_latencies=read_latencies,
        write_latencies=write_latencies,
        rpc_calls=deployment.rpc_calls,
        rpc_dropped=deployment.rpc_dropped,
        rpc_timeouts=deployment.rpc_timeouts,
        probe_fallbacks=probe_fallbacks,
        injected_crashes=counters["injected"],
        dispatch_flushes=deployment.dispatch_flushes,
        repairs_piggybacked=deployment.repairs_piggybacked,
        gossip_rounds=deployment.gossip_rounds,
        shard_ops=shard_ops,
        traces=tracer.to_dicts() if tracer is not None else [],
        metrics=deployment.metrics_snapshots() + [harness.to_dict()],
        epsilon_alerts=list(monitor.alerts) if monitor is not None else [],
        epsilon_monitor=monitor.to_dict() if monitor is not None else None,
    )


async def serve_load(spec: ServiceLoadSpec) -> ServiceLoadReport:
    """Run one service load experiment on the current event loop.

    Deploy, then drive the whole workload on the deployment itself —
    whether its replica groups live on this loop or in shard server
    processes.
    """
    rng = random.Random(spec.seed)
    deployment = deploy(spec, rng)
    try:
        await deployment.start()
        report = await drive_load(deployment, spec, rng)
    finally:
        await deployment.aclose()
    # Shard server processes report their metric snapshots on the readiness
    # pipe at SIGTERM, so they (and the gossip rounds they ran) only exist
    # once aclose() has drained it; in-loop deployments have none.
    report.metrics.extend(deployment.server_metrics)
    report.gossip_rounds += sum(
        snapshot.get("counters", {}).get("gossip_rounds", 0)
        for snapshot in deployment.server_metrics
    )
    return report


def run_service_load(spec: ServiceLoadSpec) -> ServiceLoadReport:
    """Run one service load experiment on a fresh asyncio event loop."""
    return asyncio.run(serve_load(spec))
