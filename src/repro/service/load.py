"""The service load harness: N concurrent clients under live fault injection.

:class:`ServiceLoadSpec` mirrors the declarative
:class:`~repro.simulation.scenario.ScenarioSpec` one level up: it pairs a
scenario (quorum system + failure model + register kind) with a *service*
workload — how many concurrent reader clients, how many writes, which
transport (``"inproc"`` shared-memory or ``"tcp"`` localhost sockets) and
conditions (latency / jitter / drops), the per-RPC deadline, how many
independent shards the deployment runs and how many register keys the
workload spreads over (optionally zipf-skewed), and a rolling
crash/recovery schedule injected while requests are in flight.

:func:`serve_load` is *deploy → slice → drive → merge*.  It deploys the
scenario through the one factory (:func:`~repro.service.cluster.deploy`:
replica groups on this loop, or one server process per shard when
``processes > 0``), partitions the workload by register key
(:func:`partition_load` — the unpartitioned run is the 1-way partition),
and hands each :class:`LoadSlice` to :func:`drive_load`, the **only**
workload loop: ``writers`` concurrent writers (each under its own writer
identity, so contending timestamps tie-break by writer id exactly as in the
Monte-Carlo engines) and the slice's concurrent readers, driven through the
ordinary client surface of whatever
:class:`~repro.service.sharding.ShardedClientAPI` it is given.  With
``processes <= 1`` that is the deployment itself; with more, each spawned
worker attaches a :class:`~repro.service.cluster.ClusterClientPool` to the
shared cluster, runs the same :func:`drive_load` on its slice and returns
its :class:`ServiceLoadReport`, and :func:`merge_reports` folds them.  A
report carries throughput (aggregate and per shard), latency percentiles
and — via the shared classifier of :mod:`repro.protocol.classification` —
the same fresh/stale/empty/fabricated outcome counts the Monte-Carlo
engines produce.  ``fabricated`` outcomes are the report's *safety
violations*: values that were never written being accepted by a reader.

The partition is by *key* because readers classify against per-key issued
histories and settled-write snapshots, which are only sound when observed
in the process that tracks them: co-locating each key's readers and
writers keeps the zero-fabrication accounting exact with no cross-process
coordination.  (It is also why live fault injection and write
``contention`` are refused with ``processes > 0``: the first needs
in-process node objects, the second would collide writers across slices.)

Unlike the trial engines, reads here genuinely overlap writes, and the
theorems say nothing about a read concurrent with a write.  The harness
therefore classifies each read against the last write *completed before the
read started* on the same key and re-labels as fresh any "fabricated"
outcome that is in fact a concurrent honest write (its value/timestamp pair
appears in that key's issued history).  What remains fabricated is a true
violation on any interleaving.

Simulated time vs wall clock: with ``transport="inproc"`` every delay and
deadline is event-loop time over simulated message passing, so a run is
deterministic for a fixed seed; with ``transport="tcp"`` the frames cross
real localhost sockets and deadlines bound wall-clock time, so scheduling
noise is part of the measurement (the conformance suite checks the
*classification rates* still agree between the two).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections import deque

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import EpsilonMonitor
from repro.obs.trace import Tracer
from repro.protocol.classification import OUTCOME_LABELS, classify_read_outcome
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.client import DEFAULT_QUORUM_POOL
from repro.service.cluster import (
    ClusterClientPool,
    LoadSlice,
    deploy,
    drive_in_workers,
    merge_worker_provenance,
    partition_load,
)
from repro.service.sharding import (
    ShardedClientAPI,
    ShardedDeployment,
    shard_for_key,
    validate_deployment,
)
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec


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


def key_weight_cdf(keys: Union[int, Sequence[int]], skew: float) -> List[float]:
    """Cumulative selection weights over ``keys`` ranks.

    ``skew=0`` is uniform; ``skew>0`` is zipf-like (rank ``i`` drawn with
    probability proportional to ``1/(i+1)**skew``), modelling the hot-key
    traffic real multi-register deployments see.  ``keys`` is a count (the
    ranks ``0..keys-1``) or an explicit subset of *global* ranks — a load
    slice's keys keep their global weights, so the slices' draws reassemble
    the unpartitioned key distribution.
    """
    ranks = range(keys) if isinstance(keys, int) else keys
    weights = [1.0 / float(rank + 1) ** skew for rank in ranks]
    total = sum(weights)
    cdf: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0  # guard the floating-point tail
    return cdf


@dataclass(frozen=True)
class ServiceLoadSpec:
    """One service load experiment, described declaratively.

    Attributes
    ----------
    scenario:
        What is deployed: system, static failure model, register kind.
    clients:
        Number of concurrent reader clients.
    reads_per_client:
        Reads each client issues back to back.
    writes:
        Writes issued in total, split round-robin over the workload's
        writers and keys (write ``v`` belongs to writer ``v % writers``).
    write_interval:
        Event-loop seconds between writes (0 = as fast as possible).
    latency, jitter, drop_probability:
        Transport conditions (see
        :class:`~repro.service.transport.AsyncTransport`; over TCP they are
        added to the real socket cost).
    deadline:
        Per-RPC deadline for every client (``None`` disables it; never
        disable it on a lossy or TCP transport).
    fault_injection:
        Live crash/recovery churn on top of the scenario's failures.
    transport:
        ``"inproc"`` (default; simulated message passing on the current
        event loop) or ``"tcp"`` (localhost socket servers, one per shard,
        length-prefixed frames, wall-clock deadlines).
    shards:
        Independent replica groups keys are hashed across (each shard runs
        its own quorum system deployment and failure plan).
    keys:
        Register keys the workload spreads over.
    key_skew:
        Zipf exponent of the readers' key distribution (0 = uniform).
    dispatch_window:
        Extra coalescing time per delivery event of the in-process
        :class:`~repro.service.dispatch.BatchedDispatcher`.
    quorum_pool:
        Strategy quorums pre-sampled per client per block refill
        (``0`` disables pooling).
    seed:
        Root seed: per-shard failure sampling, transport noise and every
        client's quorum sampling derive from it.
    writers:
        Concurrent writer clients, each with its own writer identity
        (``scenario.writer_id + w``), so contending timestamps tie-break
        exactly as in the Monte-Carlo engines.  ``None`` inherits the
        scenario's ``writers``.
    contention:
        Probability each write targets the hottest key (``names[0]``)
        instead of its round-robin key — the knob that makes concurrent
        writers actually collide on one register.
    """

    scenario: ScenarioSpec
    clients: int = 100
    reads_per_client: int = 5
    writes: int = 10
    write_interval: float = 0.0
    latency: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    deadline: Optional[float] = 0.05
    fault_injection: FaultInjectionSpec = field(default_factory=FaultInjectionSpec)
    transport: str = "inproc"
    shards: int = 1
    keys: int = 1
    key_skew: float = 0.0
    dispatch_window: float = 0.0
    quorum_pool: int = DEFAULT_QUORUM_POOL
    seed: int = 0
    writers: Optional[int] = None
    contention: float = 0.0
    #: Wire codec the TCP transports send (``"json"`` or ``"binary"``).
    codec: str = "json"
    #: ``0`` (default) keeps everything on the caller's event loop; ``> 0``
    #: deploys via :class:`~repro.service.cluster.ClusterDeployment` (one
    #: server process per shard) and splits the load over this many worker
    #: processes (``1`` = cluster servers, load driven in the parent).
    processes: int = 0
    #: Fraction of quorum operations that assemble a full
    #: :class:`~repro.obs.trace.QuorumTrace` (``0.0``, the default, keeps
    #: every tracing branch off the hot path; ``1.0`` traces everything).
    #: The tracer draws from its own salted RNG stream, so any rate leaves
    #: the workload's classification counters byte-identical to untraced.
    trace_sample: float = 0.0
    #: Run the online :class:`~repro.obs.monitor.EpsilonMonitor` over the
    #: classified read stream, attaching its alerts to the report.
    monitor_epsilon: bool = False
    #: Anti-entropy for the deployment: an
    #: :class:`~repro.simulation.scenario.AntiEntropySpec` arms piggybacked
    #: read-repair (``repair_budget``) on every client and, when the spec
    #: gossips, a background gossip task per shard.  ``None`` (the default)
    #: inherits the scenario's ``anti_entropy`` — so a scenario that
    #: declares diffusion keeps it under load, and everything stays off
    #: when neither declares it.
    anti_entropy: Optional[AntiEntropySpec] = None

    def __post_init__(self) -> None:
        # Scenario, shards, transport, codec and anti-entropy are refused by
        # the same check the deployments themselves run.
        validate_deployment(
            self.scenario, self.shards, self.transport, self.codec, self.anti_entropy
        )
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
        if self.transport == "tcp" and self.deadline is None:
            raise ConfigurationError(
                "deadline=None is refused over transport='tcp': a silent "
                "replica sends no response frame, so without a deadline the "
                "caller would block forever (in-process, the simulated "
                "transport knows the fate and raises; the wire cannot)"
            )
        if self.writers is not None and self.writers < 1:
            raise ConfigurationError(
                f"need at least one writer, got {self.writers}"
            )
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigurationError(
                f"contention is a probability in [0, 1], got {self.contention}"
            )
        if self.dispatch_window < 0.0:
            raise ConfigurationError(
                f"the dispatch window must be non-negative, got {self.dispatch_window}"
            )
        if self.quorum_pool < 0:
            raise ConfigurationError(
                f"the quorum pool size must be non-negative, got {self.quorum_pool}"
            )
        if self.processes < 0:
            raise ConfigurationError(
                f"the process count must be non-negative, got {self.processes}"
            )
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigurationError(
                f"the trace sampling rate is a probability in [0, 1], "
                f"got {self.trace_sample}"
            )
        if self.processes > 0:
            if self.transport != "tcp":
                raise ConfigurationError(
                    "processes > 0 deploys one server process per shard, which "
                    "only makes sense over transport='tcp' (in-process nodes "
                    "cannot cross a process boundary)"
                )
            if self.fault_injection.crash_count > 0:
                raise ConfigurationError(
                    "live fault injection needs in-process node objects; with "
                    "processes > 0 the servers live in their own processes, so "
                    "use the scenario's static failure model instead"
                )
            if self.contention > 0.0:
                raise ConfigurationError(
                    "contention redirects writes to the hottest key, but the "
                    "multi-process load partitions writers by key; contention "
                    "requires processes=0"
                )
            if self.processes > self.keys:
                raise ConfigurationError(
                    f"{self.processes} load processes over {self.keys} register "
                    f"keys leaves workers provably idle; use processes <= keys"
                )
            if self.processes > self.clients:
                raise ConfigurationError(
                    f"{self.processes} load processes need at least that many "
                    f"reader clients, got {self.clients}"
                )

    @property
    def total_ops(self) -> int:
        """Operations the workload issues in total."""
        return self.clients * self.reads_per_client + self.writes

    @property
    def resolved_writers(self) -> int:
        """The effective writer count (the spec's, else the scenario's)."""
        return self.scenario.writers if self.writers is None else self.writers

    @property
    def resolved_anti_entropy(self) -> Optional[AntiEntropySpec]:
        """The effective anti-entropy spec (the spec's, else the scenario's)."""
        if self.anti_entropy is not None:
            return self.anti_entropy
        return self.scenario.anti_entropy

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
    #: Which event loop drove the run (always stock "asyncio").  A
    #: multi-process merge keeps the single value when every worker agrees
    #: and the per-worker list when they differ (never silently the first
    #: worker's value).
    loop_driver: Any = "asyncio"
    #: Which transport carried the RPCs ("inproc" or "tcp").
    transport: str = "inproc"
    #: Completed operations routed to each shard (length ``spec.shards``).
    shard_ops: List[int] = field(default_factory=list)
    #: Wire codec the run's connections sent ("json" in process);
    #: merged across shards and workers with the same list-when-differing
    #: rule as ``loop_driver``.
    codec: Any = "json"
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
    load_slice: LoadSlice,
    rng: random.Random,
) -> ServiceLoadReport:
    """Drive one slice of ``spec``'s workload through a started deployment.

    The only workload loop there is: every deployment shape and every load
    worker runs it against the client surface it is handed.  ``rng`` seeds
    every client (and, in-loop, the fault injector); the deployment's
    ``tracer``, if any, was installed by the caller before ``start()``.
    """
    scenario = spec.scenario
    tracer = deployment.tracer
    monitor = EpsilonMonitor.for_scenario(scenario) if spec.monitor_epsilon else None

    def make_client(writer_id: Optional[int] = None):
        return deployment.new_register_client(
            rng,
            deadline=spec.deadline,
            quorum_pool=spec.quorum_pool,
            writer_id=writer_id,
        )

    writer_count = spec.resolved_writers
    writers = [
        make_client(writer_id=load_slice.writer_id_base + index)
        for index in range(writer_count)
    ]
    readers = [make_client() for _ in range(load_slice.readers)]

    # -- workload: the slice's keys and their read distribution -------------------
    all_names = key_names(spec.keys)
    names = [all_names[rank] for rank in load_slice.key_ranks]
    # Routing is stable, so hash each key once instead of per operation.
    shard_of = {name: shard_for_key(name, spec.shards) for name in names}
    # Reader / writer streams are drawn only when something will use them,
    # so single-key and uncontended runs keep their per-seed randomness
    # byte for byte.
    if len(names) > 1:
        cdf = key_weight_cdf(load_slice.key_ranks, spec.key_skew)
        reader_rngs = [
            random.Random(rng.randrange(2**63)) for _ in range(load_slice.readers)
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
        for version in load_slice.versions:
            if version % writer_count != writer_index:
                continue
            key = all_names[version % spec.keys]
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
    labels = {"worker": load_slice.worker}
    harness = MetricsRegistry(labels={"component": "load-harness", **labels})
    harness.counter("probe_fallback_ops").inc(probe_fallbacks)
    harness.counter("repairs_piggybacked").inc(deployment.repairs_piggybacked)
    harness.counter("gossip_rounds").inc(deployment.gossip_rounds)
    harness.gauge("fresh_read_fraction").set(
        outcomes.get("fresh", 0) / counters["reads"] if counters["reads"] else 0.0
    )
    # What the connections sent, read off the transports themselves.
    codecs = (
        sorted({shard.transport.negotiated_codec for shard in deployment.shards})
        if spec.transport == "tcp"
        else ["json"]
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
        transport=spec.transport,
        shard_ops=shard_ops,
        codec=merge_worker_provenance(codecs),
        traces=tracer.to_dicts() if tracer is not None else [],
        metrics=deployment.metrics_snapshots(labels) + [harness.to_dict()],
        epsilon_alerts=list(monitor.alerts) if monitor is not None else [],
        epsilon_monitor=monitor.to_dict() if monitor is not None else None,
    )


_SUMMED_FIELDS = (
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
)
_CONCATENATED_FIELDS = (
    "read_latencies",
    "write_latencies",
    "traces",
    "metrics",
    "epsilon_alerts",
)


def merge_reports(reports: Sequence[ServiceLoadReport]) -> ServiceLoadReport:
    """Fold the reports of concurrently driven slices into the run's report.

    Counters and outcome counts sum, ``shard_ops`` sums per shard index,
    latencies / traces / metric snapshots / alerts concatenate in worker
    order, ``elapsed`` is the slowest slice, and the provenance fields keep
    the single shared value or the per-worker list
    (:func:`~repro.service.cluster.merge_worker_provenance`).  Merging one
    report returns an equal report.
    """
    merged: Dict[str, Any] = {
        name: sum(getattr(report, name) for report in reports)
        for name in _SUMMED_FIELDS
    }
    for name in _CONCATENATED_FIELDS:
        merged[name] = [item for report in reports for item in getattr(report, name)]
    monitors = [
        report.epsilon_monitor
        for report in reports
        if report.epsilon_monitor is not None
    ]
    epsilon_monitor = None
    if monitors:
        observed = sum(monitor["observed"] for monitor in monitors)
        errors = sum(monitor["errors"] for monitor in monitors)
        epsilon_monitor = {
            **monitors[0],
            "observed": observed,
            "errors": errors,
            # The most alarming worker window: windows do not compose
            # across processes, so report the worst one seen.
            "window_rate": max(monitor["window_rate"] for monitor in monitors),
            "total_rate": errors / observed if observed else 0.0,
            "alerts": merged["epsilon_alerts"],
        }
    return ServiceLoadReport(
        spec=reports[0].spec,
        elapsed=max(report.elapsed for report in reports),
        outcomes={
            label: sum(report.outcomes.get(label, 0) for report in reports)
            for label in OUTCOME_LABELS
        },
        transport=reports[0].transport,
        shard_ops=[sum(ops) for ops in zip(*(report.shard_ops for report in reports))],
        loop_driver=merge_worker_provenance([report.loop_driver for report in reports]),
        codec=merge_worker_provenance([report.codec for report in reports]),
        epsilon_monitor=epsilon_monitor,
        **merged,
    )


def _client_options(spec: ServiceLoadSpec, rng: random.Random) -> Dict[str, Any]:
    """The spine parameters a spec fixes, for a deployment or a worker's pool."""
    return {
        "codec": spec.codec,
        "latency": spec.latency,
        "jitter": spec.jitter,
        "drop_probability": spec.drop_probability,
        "rng": rng,
        "anti_entropy": spec.resolved_anti_entropy,
    }


def _load_tracer(spec: ServiceLoadSpec, seed: int, worker: int = 0) -> Optional[Tracer]:
    """The run's tracer, to install *before* ``start()``: TCP transports
    offer the trace envelope extension in their handshakes only when a
    tracer exists.  Disjoint id bases keep trace ids unique across workers."""
    if spec.trace_sample <= 0.0:
        return None
    return Tracer(sample_rate=spec.trace_sample, seed=seed, id_base=worker << 40)


async def drive_slice(
    spec: ServiceLoadSpec,
    addresses: Sequence[Tuple[str, int]],
    load_slice: LoadSlice,
    seed: int,
) -> ServiceLoadReport:
    """What a load worker process runs: attach a client pool to the shard
    servers at ``addresses`` and drive one slice through it."""
    rng = random.Random(seed)
    pool = ClusterClientPool(spec.scenario, addresses, **_client_options(spec, rng))
    pool.tracer = _load_tracer(spec, seed, load_slice.worker)
    async with pool:
        return await drive_load(pool, spec, load_slice, rng)


async def serve_load(spec: ServiceLoadSpec) -> ServiceLoadReport:
    """Run one service load experiment on the current event loop.

    Deploy, slice, drive, merge: with at most one load process the single
    slice is driven on the deployment itself; with more, each slice goes to
    a worker process that attaches its own client pool to the cluster.
    """
    rng = random.Random(spec.seed)
    deployment = deploy(
        spec.scenario,
        processes=spec.processes,
        shards=spec.shards,
        transport=spec.transport,
        dispatch_window=spec.dispatch_window,
        **_client_options(spec, rng),
    )
    deployment.tracer = _load_tracer(spec, spec.seed)
    slices = partition_load(spec)
    try:
        await deployment.start()
        if len(slices) == 1:
            report = await drive_load(deployment, spec, slices[0], rng)
        else:
            reports, elapsed = await drive_in_workers(
                spec, deployment.addresses, slices, rng
            )
            report = merge_reports(reports)
            report.elapsed = elapsed
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
