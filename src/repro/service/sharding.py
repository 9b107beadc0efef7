"""Multi-register sharding: independent quorum deployments keyed by register.

One probabilistic quorum system bounds per-*server* load, but a single
replica group still caps aggregate throughput at what ``n`` servers can
serve.  Sharding scales the *service* horizontally the same way the paper
scales the *quorum*: register keys are hashed across ``shards`` independent
deployments — each shard its own replica group, transport, dispatcher and
per-trial failure plan, running the same quorum construction — so shard
loads grow with traffic per key range while every single read/write keeps
the exact ε/masking semantics of its shard's quorum system.  Failures do
not cross shards: a fully crashed shard takes down only the keys that hash
to it (the sharding tests pin this isolation down).

* :func:`shard_for_key` — the stable routing hash (BLAKE2b, *not* Python's
  randomised ``hash``), identical across processes and runs;
* :class:`DeploymentSpec` — the one frozen description of a deployment
  (scenario, transport, shards, codec, processes, conditions, deadline,
  seed, tracing, anti-entropy), checked once at construction; every shape,
  both load specs and the :class:`~repro.api.Deployment` facade read it;
* :class:`ShardedClientAPI` — the spine every deployment shape shares:
  per-shard seed derivation, the tracer a spec asks for, the one TCP
  client-side wiring (a
  :class:`~repro.service.net.TcpTransport` + op-level
  :class:`~repro.service.net.TcpDispatcher` per shard address) and its
  teardown, and the clients it hands out;
* :class:`ShardedDeployment` — the shape whose replica groups run on the
  caller's loop (``"inproc"``: shared-memory nodes behind the batched
  dispatcher; ``"tcp"``: one
  :class:`~repro.service.net.TcpServiceServer` per shard);
* :class:`ShardedAsyncRegisterClient` — one logical client routing
  ``read(key)``/``write(key, value)`` to per-key register frontends on the
  key's shard.

The deployment is transport-symmetric on purpose: the conformance suite
runs the same scenario through both modes and asserts the classification
rates agree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.protocol.register import WriteOutcome
from repro.service.client import AsyncQuorumClient
from repro.service.dispatch import BatchedDispatcher
from repro.service.gossip import GOSSIP_SEED_SALT, GossipService, scenario_verifier
from repro.service.net import (
    TcpDispatcher,
    TcpServiceServer,
    TcpTransport,
    remote_nodes,
)
from repro.service.node import ServiceNode
from repro.service.register import AsyncRegister, async_register_for
from repro.service.transport import AsyncTransport, check_conditions
from repro.service.wire import WIRE_CODECS
from repro.simulation.failures import FailurePlan
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: The two deployment transports the service layer exposes.
TRANSPORT_MODES = ("inproc", "tcp")


def shard_for_key(key: str, shards: int) -> int:
    """The shard a register key lives on: stable, total, uniform.

    Uses BLAKE2b rather than built-in ``hash`` so routing survives process
    restarts and ``PYTHONHASHSEED`` (a key must map to the same shard from
    every client, forever).
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if shards == 1:
        return 0
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass(frozen=True)
class DeploymentSpec:
    """One deployment, described once and checked once at construction.

    The paper's object is one quorum system under one failure model and
    access strategy (``scenario``); every other field is harness.  Every
    deployment shape, both load specs (which subclass this and add only
    their workload fields) and the :class:`~repro.api.Deployment` facade
    read this one object, so a bad value is refused before anything is
    bound or spawned.

    Attributes
    ----------
    scenario:
        What every shard deploys: quorum system, failure model (sampled
        independently per shard) and register kind.
    transport:
        ``"inproc"`` (simulated message passing on the caller's loop) or
        ``"tcp"`` (localhost sockets, wall-clock deadlines).
    shards:
        Independent replica groups register keys are hashed across.
    codec:
        The wire codec TCP clients send (``"json"`` or ``"binary"``; the
        servers answer in the codec a request arrives in).  Refused with
        ``transport="inproc"``, where payloads pass by reference.
    processes:
        ``0`` keeps the replica groups on the caller's loop; any positive
        value gives every shard its own server process (a
        :class:`~repro.service.cluster.ClusterDeployment`, TCP only).  The
        load is driven from the caller's loop either way.
    latency, jitter, drop_probability:
        Transport conditions, with the same meaning on both transports
        (over TCP they are added to the real socket cost).
    deadline:
        Per-RPC deadline of every client, positive; ``None`` disables it
        and is refused over TCP, where a silent replica sends no response.
    seed:
        Root seed: per-shard failure plans, transport seeds, pool
        generators and every client's quorum sampling derive from it
        (``None``: unseeded).
    trace_sample:
        Fraction of quorum operations traced end to end, in ``[0, 1]``;
        above 0 one :class:`~repro.obs.trace.Tracer` is shared by every
        client the deployment hands out.
    anti_entropy:
        Optional :class:`~repro.simulation.scenario.AntiEntropySpec`;
        ``None`` inherits the scenario's own axis (see
        :attr:`resolved_anti_entropy`).  When resolved, readers piggyback
        up to ``repair_budget`` repairs per read and a gossiping spec runs
        one background gossip task per shard, wherever the replicas live.
    """

    scenario: ScenarioSpec
    transport: str = "inproc"
    shards: int = 1
    codec: str = "json"
    processes: int = 0
    latency: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    deadline: Optional[float] = 0.05
    seed: Optional[int] = None
    trace_sample: float = 0.0
    anti_entropy: Optional[AntiEntropySpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, ScenarioSpec):
            raise ConfigurationError(
                f"a deployment is described over a ScenarioSpec, "
                f"got {type(self.scenario).__name__}"
            )
        if self.transport not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORT_MODES}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"need at least one shard, got {self.shards}")
        if self.codec not in WIRE_CODECS:
            raise ConfigurationError(
                f"unknown wire codec {self.codec!r}; choose from {WIRE_CODECS}"
            )
        if self.codec != "json" and self.transport == "inproc":
            raise ConfigurationError(
                "codec applies to the wire: transport='inproc' passes payloads "
                "by reference, so codec='json' is the only valid spelling there"
            )
        if self.processes < 0:
            raise ConfigurationError(
                f"the process count must be non-negative, got {self.processes}"
            )
        if self.processes > 0 and self.transport != "tcp":
            raise ConfigurationError(
                "processes > 0 deploys one server process per shard, which "
                "only makes sense over transport='tcp' (in-process nodes "
                "cannot cross a process boundary)"
            )
        check_conditions(self.latency, self.jitter, self.drop_probability)
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(f"the deadline must be positive, got {self.deadline}")
        if self.deadline is None and self.transport == "tcp":
            raise ConfigurationError(
                "deadline=None is refused over transport='tcp': a silent replica "
                "sends no response frame, so the caller would block forever"
            )
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigurationError(
                f"the trace sample rate must lie in [0, 1], got {self.trace_sample}"
            )
        if self.anti_entropy is not None and not isinstance(
            self.anti_entropy, AntiEntropySpec
        ):
            raise ConfigurationError(
                f"anti_entropy is described by an AntiEntropySpec, "
                f"got {type(self.anti_entropy).__name__}"
            )
        resolved = self.resolved_anti_entropy
        if resolved is not None and resolved.fanout >= self.scenario.n:
            raise ConfigurationError(
                f"anti-entropy fanout {resolved.fanout} must be smaller "
                f"than the replica group size {self.scenario.n}"
            )

    @property
    def resolved_anti_entropy(self) -> Optional[AntiEntropySpec]:
        """The effective anti-entropy spec: the explicit one, else the
        scenario's own axis (``None`` keeps read-repair and gossip off)."""
        if self.anti_entropy is not None:
            return self.anti_entropy
        return self.scenario.anti_entropy


def build_nodes(n: int, plan: FailurePlan) -> List[ServiceNode]:
    """One shard's replica group with its static failure plan applied."""
    nodes = [ServiceNode(server) for server in range(n)]
    for server in plan.crashed:
        nodes[server].crash()
    for server, behavior in plan.byzantine.items():
        nodes[server].set_behavior(behavior)
    return nodes


def arm_gossip(
    nodes: Sequence[ServiceNode],
    scenario: ScenarioSpec,
    anti_entropy: Optional[AntiEntropySpec],
    transport_seed: int,
) -> Optional[GossipService]:
    """Start one shard's background gossip task (``None`` unless it gossips).

    Runs where the replicas live (the deployment's loop, or the shard's
    server process), under the scenario's verifiability rule; needs a
    running event loop.
    """
    if anti_entropy is None or not anti_entropy.gossips:
        return None
    service = GossipService(
        nodes,
        anti_entropy,
        rng=random.Random(transport_seed ^ GOSSIP_SEED_SALT),
        verify=scenario_verifier(scenario),
    )
    service.start()
    return service


class _Shard:
    """One shard's resources (internal holder; the deployment owns these)."""

    __slots__ = (
        "index",
        "nodes",
        "plan",
        "transport",
        "transport_seed",
        "dispatcher",
        "server",
        "gossip",
        "client_nodes",
        "pool_generator",
    )

    def __init__(self) -> None:
        self.index = 0
        self.nodes: List[ServiceNode] = []
        self.plan: Optional[FailurePlan] = None
        self.transport = None
        self.transport_seed = 0
        self.dispatcher = None
        #: In-loop socket server / gossip task (``None``: not on this loop).
        self.server: Optional[TcpServiceServer] = None
        self.gossip: Optional[GossipService] = None
        self.client_nodes: Sequence[Any] = ()
        self.pool_generator: Optional[np.random.Generator] = None


class ShardedClientAPI:
    """The deployment spine: per-shard client resources and the client API.

    A deployment is *(replica groups) × (a transport) × (where the groups
    run)*; this class is everything but the last factor.  It draws each
    shard's failure plan, transport seed and pool generator from the root
    ``rng`` (in that order, shard by shard — so one seed describes the same
    deployment in every shape), wires the TCP client side to a list of
    shard addresses, and derives everything clients need — routing, quorum
    clients, the sharded register client, aggregate counters — from that.
    :class:`ShardedDeployment` (servers on this loop) and
    :class:`~repro.service.cluster.ClusterDeployment` (a server process per
    shard) add only bringing their servers up and down.  Every setting
    comes from one :class:`DeploymentSpec`; ``rng`` defaults to a generator
    seeded with ``spec.seed``.
    """

    #: Optional shared :class:`~repro.obs.trace.Tracer`, installed from
    #: ``spec.trace_sample``.  Replace it only before creating clients:
    #: every quorum client built through this surface samples traces from
    #: it.  ``None`` keeps tracing off the hot path entirely.
    tracer: Optional[Tracer] = None

    def __init__(
        self, spec: DeploymentSpec, rng: Optional[random.Random] = None
    ) -> None:
        self.spec = spec
        self.scenario = spec.scenario
        self.codec = spec.codec
        self.transport_mode = spec.transport
        #: The effective :class:`~repro.simulation.scenario.AntiEntropySpec`
        #: (quorum clients derive their repair budget from it).
        self.anti_entropy = spec.resolved_anti_entropy
        self._conditions = dict(
            latency=spec.latency,
            jitter=spec.jitter,
            drop_probability=spec.drop_probability,
        )
        if spec.trace_sample > 0.0:
            # Installed before any client exists: each samples from it.
            self.tracer = Tracer(
                sample_rate=spec.trace_sample,
                seed=0 if spec.seed is None else spec.seed,
            )
        self._started = False
        #: ``(host, port)`` per shard, known once the servers are up.
        self.addresses: List[Tuple[str, int]] = []
        #: Metric snapshots reported by servers living in other processes
        #: (a cluster's :meth:`aclose` fills this in).
        self.server_metrics: List[dict] = []
        rng = rng if rng is not None else random.Random(spec.seed)
        n = spec.scenario.n
        self.shards: List[_Shard] = []
        for index in range(spec.shards):
            shard = _Shard()
            shard.index = index
            shard.plan = spec.scenario.failure_model.sample_plan_for(n, rng)
            shard.transport_seed = rng.randrange(2**63)
            shard.client_nodes = remote_nodes(n)
            shard.pool_generator = np.random.default_rng(rng.randrange(2**63))
            self.shards.append(shard)

    # -- lifecycle ----------------------------------------------------------------

    async def _connect(self, addresses: Sequence[Tuple[str, int]]) -> None:
        """Wire the TCP client side: one transport + dispatcher per shard."""
        self.addresses = [(str(host), int(port)) for host, port in addresses]
        for shard, address in zip(self.shards, self.addresses):
            shard.transport = TcpTransport(
                address,
                seed=shard.transport_seed,
                codec=self.codec,
                **self._conditions,
            )
            await shard.transport.connect()
            shard.dispatcher = TcpDispatcher(shard.transport)
        self._started = True

    async def aclose(self) -> None:
        """Close the client-side sockets (idempotent; never stops servers)."""
        for shard in self.shards:
            if isinstance(shard.transport, TcpTransport):
                await shard.transport.aclose()
        self._started = False

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- clients ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """How many independent replica groups the deployment runs."""
        return len(self.shards)

    def shard_for(self, key: str) -> int:
        """Route a register key to its shard."""
        return shard_for_key(key, len(self.shards))

    def client_for_shard(
        self,
        shard_index: int,
        rng: Optional[random.Random] = None,
        client_id: Optional[str] = None,
    ) -> AsyncQuorumClient:
        """One quorum client bound to a single shard's replica group (the spec's ``deadline``)."""
        if not self._started:
            raise ConfigurationError(
                "start() the deployment before creating clients (TCP ports "
                "are unknown until the servers are up)"
            )
        shard = self.shards[shard_index]
        anti_entropy = self.anti_entropy
        return AsyncQuorumClient(
            self.scenario.system,
            shard.client_nodes,
            shard.transport,
            deadline=self.spec.deadline,
            rng=rng,
            dispatcher=shard.dispatcher,
            pool_generator=shard.pool_generator,
            tracer=self.tracer,
            client_id=client_id,
            shard=shard_index,
            repair_budget=(
                anti_entropy.repair_budget if anti_entropy is not None else 0
            ),
            # With anti-entropy maintaining freshness in the background, a
            # partial-but-settleable read skips the top-up round.
            lazy_fallback=anti_entropy is not None,
        )

    def new_register_client(
        self,
        rng: random.Random,
        writer_id: Optional[int] = None,
    ) -> "ShardedAsyncRegisterClient":
        """One logical sharded client (one quorum client per shard).

        Per-shard client RNGs are derived from ``rng`` in shard order, so a
        harness seeding one generator per logical client stays reproducible
        whatever the shard count.  ``writer_id`` overrides the scenario's
        writer identity for this client's registers — concurrent service
        writers must each write under their own id or colliding timestamps
        would alias distinct values.
        """
        clients = [
            self.client_for_shard(
                index,
                rng=random.Random(rng.randrange(2**63)),
                client_id=None if writer_id is None else str(writer_id),
            )
            for index in range(len(self.shards))
        ]
        return ShardedAsyncRegisterClient(self, clients, writer_id=writer_id)

    # -- aggregate counters -------------------------------------------------------

    @property
    def rpc_calls(self) -> int:
        return sum(shard.transport.calls for shard in self.shards)

    @property
    def rpc_dropped(self) -> int:
        return sum(shard.transport.dropped for shard in self.shards)

    @property
    def rpc_timeouts(self) -> int:
        return sum(shard.transport.timed_out for shard in self.shards)

    @property
    def dispatch_flushes(self) -> int:
        return sum(shard.dispatcher.flushes for shard in self.shards)

    @property
    def repairs_piggybacked(self) -> int:
        """Read-repair payloads piggybacked across every shard's dispatcher."""
        return sum(shard.dispatcher.repairs_piggybacked for shard in self.shards)

    @property
    def gossip_rounds(self) -> int:
        """Background gossip rounds run by this deployment's own tasks.

        Zero for deployments whose gossip runs elsewhere (a cluster's shard
        server processes report theirs through the metrics pipe instead).
        """
        return sum(
            shard.gossip.gossip_rounds
            for shard in self.shards
            if shard.gossip is not None
        )

    # -- metrics ------------------------------------------------------------------

    def metrics_snapshots(self, labels: Optional[Dict[str, Any]] = None) -> List[dict]:
        """Picklable metric snapshots: client-side counters, one snapshot
        per in-loop shard server and gossip task, and whatever servers in
        other processes reported home (:attr:`server_metrics`).

        Feed the list to :func:`repro.obs.metrics.merge_snapshots` (the
        ``Deployment.metrics()`` facade does).
        """
        registry = MetricsRegistry(
            labels={"component": "sharded-client", **(labels or {})}
        )
        registry.counter("rpc_calls").inc(self.rpc_calls)
        registry.counter("rpc_dropped").inc(self.rpc_dropped)
        registry.counter("rpc_timeouts").inc(self.rpc_timeouts)
        registry.counter("dispatch_flushes").inc(self.dispatch_flushes)
        registry.counter("repairs_piggybacked").inc(self.repairs_piggybacked)
        registry.gauge("shards").set(len(self.shards))
        if self.tracer is not None:
            registry.counter("traces_started").inc(self.tracer.started)
            registry.counter("traces_sampled_out").inc(self.tracer.sampled_out)
        snapshots = [registry.to_dict()]
        for shard in self.shards:
            for part in (shard.server, shard.gossip):
                if part is not None:
                    snapshots.append(part.metrics_snapshot({"shard": shard.index}))
        return snapshots + list(self.server_metrics)


class ShardedDeployment(ShardedClientAPI):
    """``spec.shards`` replica groups of one scenario on this loop, routed by key.

    ``spec.transport="inproc"`` keeps shared-memory nodes behind the batched
    dispatcher; ``"tcp"`` serves each shard from one localhost
    :class:`~repro.service.net.TcpServiceServer` bound to ``host`` (the same
    option :class:`~repro.service.cluster.ClusterDeployment` takes).
    ``rng`` is the root randomness (default: seeded with ``spec.seed``):
    per-shard failure plans, transport seeds and pool generators derive
    from it in shard order, so a deployment is reproducible from one seed.
    A gossiping anti-entropy spec arms one background
    :class:`~repro.service.gossip.GossipService` per shard at :meth:`start`.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        rng: Optional[random.Random] = None,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(spec, rng)
        for shard in self.shards:
            shard.nodes = build_nodes(spec.scenario.n, shard.plan)
            if spec.transport == "tcp":
                # The client side needs the server's ephemeral port, known
                # only after start().
                shard.server = TcpServiceServer(shard.nodes, host=host)
                continue
            shard.transport = AsyncTransport(seed=shard.transport_seed, **self._conditions)
            shard.dispatcher = BatchedDispatcher(shard.nodes, shard.transport)
            shard.client_nodes = shard.nodes
        # In-process deployments are serving from construction.
        self._started = spec.transport == "inproc"

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bring the deployment up (starts socket servers in TCP mode).

        Also arms the per-shard background gossip tasks when the deployment
        has a gossiping anti-entropy spec — in *both* transport modes, since
        the replica node objects live on this loop either way.  Any failure
        tears down whatever was already brought up, then re-raises.
        """
        try:
            if not self._started:
                for shard in self.shards:
                    await shard.server.start()
                await self._connect([shard.server.address for shard in self.shards])
            for shard in self.shards:
                if shard.gossip is None:
                    shard.gossip = arm_gossip(
                        shard.nodes, self.scenario, self.anti_entropy, shard.transport_seed
                    )
        except BaseException:
            await self.aclose()
            raise

    async def aclose(self) -> None:
        """Tear the deployment down (closes sockets in TCP mode; idempotent)."""
        for shard in self.shards:
            if shard.gossip is not None:
                await shard.gossip.aclose()
                shard.gossip = None
        if self.transport_mode != "tcp":
            return
        await super().aclose()
        for shard in self.shards:
            await shard.server.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ShardedDeployment({self.scenario.describe()}, "
            f"shards={len(self.shards)}, transport={self.transport_mode!r})"
        )


class ShardedAsyncRegisterClient:
    """Route per-key register operations across a sharded deployment.

    Lazily builds one register frontend per key (protocol resolved from the
    deployment's scenario) on the key's shard.  The ``on_issued`` hook
    mirrors :attr:`~repro.service.register.AsyncRegister.on_issued` with the
    key prepended, so the load harness keeps one issued-history per
    register.  ``writer_id`` overrides the scenario's writer identity for
    this client's registers (``None`` keeps the scenario default);
    contending service writers each carry their own.
    """

    def __init__(
        self,
        deployment: ShardedClientAPI,
        clients: Sequence[AsyncQuorumClient],
        writer_id: Optional[int] = None,
    ) -> None:
        if len(clients) != deployment.shard_count:
            raise ConfigurationError(
                f"the deployment has {deployment.shard_count} shards but "
                f"{len(clients)} clients were given"
            )
        self.deployment = deployment
        self.clients = list(clients)
        self.writer_id = writer_id
        self._registers: Dict[str, AsyncRegister] = {}
        #: Optional ``(key, timestamp, value)`` callback fired when a write
        #: is issued (before its RPCs fan out).
        self.on_issued = None
        #: Trace of the most recent routed operation (mirrors
        #: :attr:`~repro.service.register.AsyncRegister.last_trace`).
        self.last_trace: Optional[Any] = None

    def shard_for(self, key: str) -> int:
        """The shard ``key``'s register lives on."""
        return self.deployment.shard_for(key)

    def register_for(self, key: str) -> AsyncRegister:
        """The (cached) register frontend for ``key`` on its shard."""
        register = self._registers.get(key)
        if register is None:
            shard = self.shard_for(key)
            register = async_register_for(
                self.deployment.scenario,
                self.clients[shard],
                name=key,
                writer_id=self.writer_id,
            )
            register.on_issued = (
                lambda timestamp, value, _key=key: self._notify(_key, timestamp, value)
            )
            self._registers[key] = register
        return register

    def _notify(self, key: str, timestamp: Any, value: Any) -> None:
        if self.on_issued is not None:
            self.on_issued(key, timestamp, value)

    async def read(self, key: str):
        """Read ``key``'s register on its shard."""
        register = self.register_for(key)
        try:
            return await register.read()
        finally:
            self.last_trace = register.last_trace

    async def write(self, key: str, value: Any) -> WriteOutcome:
        """Write ``key``'s register on its shard."""
        register = self.register_for(key)
        try:
            return await register.write(value)
        finally:
            # A write nobody acknowledged raises; its trace still lands here.
            self.last_trace = register.last_trace

    @property
    def probe_fallbacks(self) -> int:
        """Probe-based repairs across every shard's quorum client."""
        return sum(client.probe_fallbacks for client in self.clients)
