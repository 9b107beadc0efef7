"""The deployment facade: one front door to the live service layer.

The service stack is deliberately layered — scenario specs, sharded
deployments, per-shard quorum clients, register frontends, lock handles —
and wiring them by hand takes half a dozen imports.  This module is the
single entry point that composes them:

>>> from repro.api import Deployment
>>> deployment = (
...     Deployment.builder(scenario)
...     .transport("inproc")
...     .shards(2)
...     .deadline(0.05)
...     .seed(7)
...     .build()
... )
>>> async with deployment:                       # doctest: +SKIP
...     registers = deployment.connect()         # register client
...     await registers.write("x", "hello")
...     outcome = await registers.read("x")
...     lock = deployment.lock_client("leader", client_id=1)
...     grant = await lock.acquire()
...     await lock.release()

Everything the facade hands out runs the same code paths the conformance
suite pins down: registers route through
:class:`~repro.service.sharding.ShardedAsyncRegisterClient` (the scenario's
protocol per key, shared deterministic selection), and lock handles are
:class:`~repro.apps.mutex.AsyncQuorumMutex` over the same quorum clients.
The builder's knob names (``deadline``, ``seed``, ``codec``,
``processes``, ``anti_entropy``) are the canonical spellings used across
:class:`~repro.service.client.AsyncQuorumClient`,
:class:`~repro.service.sharding.ShardedDeployment` and
:class:`~repro.service.load.ServiceLoadSpec`.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.exceptions import ConfigurationError
from repro.service.cluster import deploy
from repro.service.sharding import (
    TRANSPORT_MODES,
    ShardedAsyncRegisterClient,
    check_deadline,
)
from repro.service.wire import WIRE_CODECS
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

__all__ = ["Deployment", "DeploymentBuilder"]


class DeploymentBuilder:
    """Fluent configuration for a :class:`Deployment`.

    Every setter returns the builder; :meth:`build` materialises the
    deployment (servers are not started until ``await deployment.start()``
    or ``async with deployment:``).
    """

    def __init__(self, scenario: ScenarioSpec) -> None:
        if not isinstance(scenario, ScenarioSpec):
            raise ConfigurationError(
                f"a deployment is described over a ScenarioSpec, "
                f"got {type(scenario).__name__}"
            )
        self._scenario = scenario
        self._transport = "inproc"
        self._shards = 1
        self._deadline: Optional[float] = 0.05
        self._seed: Optional[int] = None
        self._latency = 0.0
        self._jitter = 0.0
        self._drop_probability = 0.0
        self._codec = "json"
        self._processes = 0
        self._trace_sample = 0.0
        self._anti_entropy: Optional[AntiEntropySpec] = None

    def transport(self, mode: str) -> "DeploymentBuilder":
        """``"inproc"`` (simulated message passing) or ``"tcp"`` (localhost sockets)."""
        if mode not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"unknown transport {mode!r}; choose from {TRANSPORT_MODES}"
            )
        self._transport = mode
        return self

    def shards(self, count: int) -> "DeploymentBuilder":
        """Independent replica groups register keys are hashed across."""
        if count < 1:
            raise ConfigurationError(f"need at least one shard, got {count}")
        self._shards = int(count)
        return self

    def deadline(self, seconds: Optional[float]) -> "DeploymentBuilder":
        """Per-RPC deadline for every client built by this deployment."""
        if seconds is not None and seconds <= 0:
            raise ConfigurationError(f"the deadline must be positive, got {seconds}")
        self._deadline = seconds
        return self

    def seed(self, seed: int) -> "DeploymentBuilder":
        """Root seed: failure sampling, transport noise and client RNGs."""
        self._seed = int(seed)
        return self

    def conditions(
        self,
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
    ) -> "DeploymentBuilder":
        """Transport conditions (added to the real socket cost over TCP)."""
        self._latency = latency
        self._jitter = jitter
        self._drop_probability = drop_probability
        return self

    def codec(self, name: str) -> "DeploymentBuilder":
        """Wire codec the TCP clients send: ``"json"`` or ``"binary"``.

        The servers answer in whichever codec a request arrives in.  Only
        meaningful over ``transport("tcp")`` — the in-process transport
        passes payloads by reference.
        """
        if name not in WIRE_CODECS:
            raise ConfigurationError(
                f"unknown wire codec {name!r}; choose from {WIRE_CODECS}"
            )
        self._codec = name
        return self

    def processes(self, count: int) -> "DeploymentBuilder":
        """Process-backed serving: one server process per shard.

        ``count > 0`` turns the deployment into a
        :class:`~repro.service.cluster.ClusterDeployment` — every shard's
        ``TcpServiceServer`` runs in its own spawned process with a
        readiness handshake, health probes and clean teardown.  Implies
        ``transport("tcp")`` (real sockets are the only way across a
        process boundary).  The server side always runs one process per
        shard, so every positive ``count`` builds the same deployment; the
        clients, and whatever load drives them, stay in this process.
        """
        if count < 0:
            raise ConfigurationError(
                f"the process count must be non-negative, got {count}"
            )
        self._processes = int(count)
        return self

    def trace_sample(self, rate: float) -> "DeploymentBuilder":
        """Fraction of quorum operations traced end to end, in ``[0, 1]``.

        0 (the default) keeps the hot path entirely instrumentation-free;
        above 0 a :class:`~repro.obs.trace.Tracer` is shared by every client
        the deployment hands out, and over TCP a traced request carries the
        trace id in its wire envelope so server processes can attribute it.
        Collected traces come back from :meth:`Deployment.traces`.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"the trace sample rate must lie in [0, 1], got {rate}"
            )
        self._trace_sample = float(rate)
        return self

    def anti_entropy(
        self,
        spec: Optional[AntiEntropySpec] = None,
        *,
        fanout: int = 2,
        rounds: int = 1,
        interval: float = 0.002,
        repair_budget: int = 4,
    ) -> "DeploymentBuilder":
        """Arm background freshness (§1.1 diffusion) for the deployment.

        Pass an explicit :class:`~repro.simulation.scenario.AntiEntropySpec`
        or use the keyword knobs to build one.  Clients the deployment
        hands out then piggyback up to ``repair_budget`` read-repairs onto
        their coalesced deliveries and skip the top-up round when a
        partial reply set can already settle a value; a gossiping spec
        (``fanout > 0``) additionally runs one background push-gossip task
        per shard.  Without this call the deployment inherits the
        scenario's own ``anti_entropy`` axis (off by default).
        """
        if spec is None:
            spec = AntiEntropySpec(
                fanout=fanout,
                rounds=rounds,
                interval=interval,
                repair_budget=repair_budget,
            )
        elif not isinstance(spec, AntiEntropySpec):
            raise ConfigurationError(
                f"anti_entropy is described by an AntiEntropySpec, "
                f"got {type(spec).__name__}"
            )
        self._anti_entropy = spec
        return self

    def build(self) -> "Deployment":
        """Materialise the deployment (servers start on ``start()``)."""
        if self._processes > 0:
            self._transport = "tcp"  # process boundaries need real sockets
        check_deadline(self._transport, self._deadline)
        return Deployment(self)


class Deployment:
    """A deployed scenario handing out register and lock clients.

    Build with :meth:`builder`; bring up with ``async with`` (or explicit
    :meth:`start` / :meth:`aclose` — in-process deployments are usable
    immediately, TCP ones bind their sockets on start).
    """

    def __init__(self, builder: DeploymentBuilder) -> None:
        if not isinstance(builder, DeploymentBuilder):
            raise ConfigurationError(
                "construct deployments through Deployment.builder(scenario)"
            )
        self._rng = random.Random(builder._seed)
        self.scenario = builder._scenario
        self.deadline = builder._deadline
        self.processes = builder._processes
        self.trace_sample = builder._trace_sample
        # In-loop servers, or one server process per shard when processes > 0.
        self.sharded = deploy(
            builder._scenario,
            processes=builder._processes,
            shards=builder._shards,
            transport=builder._transport,
            codec=builder._codec,
            latency=builder._latency,
            jitter=builder._jitter,
            drop_probability=builder._drop_probability,
            rng=self._rng,
            anti_entropy=builder._anti_entropy,
        )
        self.tracer = None
        if builder._trace_sample > 0.0:
            # Imported lazily so untraced deployments never touch repro.obs.
            from repro.obs.trace import Tracer

            self.tracer = Tracer(
                sample_rate=builder._trace_sample,
                seed=0 if builder._seed is None else builder._seed,
            )
            # Must be set before any client is created: each samples from it.
            self.sharded.tracer = self.tracer

    @classmethod
    def builder(cls, scenario: ScenarioSpec) -> DeploymentBuilder:
        """Start configuring a deployment of ``scenario``."""
        return DeploymentBuilder(scenario)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def transport(self) -> str:
        """Which transport carries the RPCs ("inproc" or "tcp")."""
        return self.sharded.transport_mode

    @property
    def shard_count(self) -> int:
        """How many independent replica groups the deployment runs."""
        return self.sharded.shard_count

    async def start(self) -> "Deployment":
        """Bring the deployment up (binds socket servers in TCP mode)."""
        await self.sharded.start()
        return self

    async def aclose(self) -> None:
        """Tear the deployment down (idempotent)."""
        await self.sharded.aclose()

    async def __aenter__(self) -> "Deployment":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- observability ------------------------------------------------------------

    def metrics(self) -> dict:
        """One merged metrics snapshot for the whole deployment.

        Folds the per-component snapshots (client-side RPC counters, every
        in-loop shard server, and — after ``aclose()`` on a cluster — the
        per-process server snapshots shipped back over the readiness pipe)
        with :func:`repro.obs.metrics.merge_snapshots`.
        """
        from repro.obs.metrics import merge_snapshots

        return merge_snapshots(self.sharded.metrics_snapshots())

    def traces(self) -> list:
        """Every quorum trace collected so far, in JSON-ready dict form.

        Empty unless the deployment was built with a positive
        :meth:`DeploymentBuilder.trace_sample` rate.
        """
        return [] if self.tracer is None else self.tracer.to_dicts()

    # -- clients ------------------------------------------------------------------

    def connect(
        self,
        writer_id: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> ShardedAsyncRegisterClient:
        """A register client: ``read(key)`` / ``write(key, value)`` by shard.

        Each call builds an independent client (own RNG stream, own
        register frontends).  ``writer_id`` overrides the scenario's writer
        identity — concurrent writers must each connect with their own.
        """
        if rng is None:
            rng = random.Random(self._rng.randrange(2**63))
        return self.sharded.new_register_client(
            rng,
            deadline=self.deadline,
            writer_id=writer_id,
        )

    def lock_client(
        self,
        name: str = "lock",
        client_id: int = 0,
        rng: Optional[random.Random] = None,
    ):
        """A distributed-lock handle on lock ``name`` for ``client_id``.

        Returns an :class:`~repro.apps.mutex.AsyncQuorumMutex` talking to
        the lock arbiters through a quorum client bound to the shard that
        owns the lock's key.  Contending clients must each use a distinct
        ``client_id`` (it is both the holder identity and the timestamp
        tie-break).
        """
        # Imported here: repro.api is importable without pulling the apps
        # package (and its load-harness dependencies) along.
        from repro.apps.mutex import lock_variable, mutex_for

        if rng is None:
            rng = random.Random(self._rng.randrange(2**63))
        shard = self.sharded.shard_for(lock_variable(name))
        client = self.sharded.client_for_shard(
            shard,
            rng=random.Random(rng.randrange(2**63)),
            deadline=self.deadline,
            client_id=f"lock:{name}:{client_id}",
        )
        return mutex_for(
            self.scenario,
            client,
            name=name,
            client_id=client_id,
            rng=rng,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Deployment({self.scenario.describe()}, shards={self.shard_count}, "
            f"transport={self.transport!r})"
        )
