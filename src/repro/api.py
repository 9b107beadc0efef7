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
A deployment is described by one
:class:`~repro.service.sharding.DeploymentSpec`:
``Deployment(DeploymentSpec(scenario, shards=2, seed=7))`` builds the
deployment of the chain above.  The builder's setters are
``dataclasses.replace`` calls on that spec, named after its fields, and
both load specs (:class:`~repro.service.load.ServiceLoadSpec`,
:class:`~repro.apps.mutex.LockLoadSpec`) are subclasses of it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Optional

from repro.exceptions import ConfigurationError
from repro.service.cluster import deploy
from repro.service.sharding import DeploymentSpec, ShardedAsyncRegisterClient
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

__all__ = ["Deployment", "DeploymentBuilder", "DeploymentSpec"]


class DeploymentBuilder:
    """Fluent configuration for a :class:`Deployment`.

    Holds one :class:`~repro.service.sharding.DeploymentSpec` (``spec``);
    every setter replaces one of its fields and returns the builder, so a
    bad value raises at the setter.  :meth:`build` materialises the
    deployment (servers are not started until ``await deployment.start()``
    or ``async with deployment:``).
    """

    def __init__(self, scenario: ScenarioSpec) -> None:
        self.spec = DeploymentSpec(scenario=scenario)

    def _set(self, **fields: Any) -> "DeploymentBuilder":
        self.spec = dataclasses.replace(self.spec, **fields)
        return self

    def transport(self, mode: str) -> "DeploymentBuilder":
        """``"inproc"`` (simulated message passing) or ``"tcp"`` (localhost sockets)."""
        return self._set(transport=mode)

    def shards(self, count: int) -> "DeploymentBuilder":
        """Independent replica groups register keys are hashed across."""
        return self._set(shards=int(count))

    def deadline(self, seconds: Optional[float]) -> "DeploymentBuilder":
        """Per-RPC deadline for every client built by this deployment."""
        return self._set(deadline=seconds)

    def seed(self, seed: int) -> "DeploymentBuilder":
        """Root seed: failure sampling, transport noise and client RNGs."""
        return self._set(seed=int(seed))

    def conditions(
        self, latency: float = 0.0, jitter: float = 0.0, drop_probability: float = 0.0
    ) -> "DeploymentBuilder":
        """Transport conditions (added to the real socket cost over TCP)."""
        return self._set(latency=latency, jitter=jitter, drop_probability=drop_probability)

    def codec(self, name: str) -> "DeploymentBuilder":
        """Wire codec the TCP clients send: ``"json"`` or ``"binary"``."""
        return self._set(codec=name)

    def processes(self, count: int) -> "DeploymentBuilder":
        """Process-backed serving: one server process per shard.

        ``count > 0`` turns the deployment into a
        :class:`~repro.service.cluster.ClusterDeployment` and implies
        ``transport("tcp")`` (real sockets are the only way across a process
        boundary); every positive ``count`` builds the same deployment.
        """
        implied = {"transport": "tcp"} if count > 0 else {}
        return self._set(processes=int(count), **implied)

    def trace_sample(self, rate: float) -> "DeploymentBuilder":
        """Fraction of quorum operations traced end to end, in ``[0, 1]``.

        Traces come back from :meth:`Deployment.traces`; over TCP a traced
        request carries its trace id so server processes can attribute it.
        """
        return self._set(trace_sample=float(rate))

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

        Pass an :class:`~repro.simulation.scenario.AntiEntropySpec` or use
        the keyword knobs to build one.  Without this call the deployment
        inherits the scenario's own ``anti_entropy`` axis (off by default).
        """
        if spec is None:
            spec = AntiEntropySpec(
                fanout=fanout, rounds=rounds, interval=interval, repair_budget=repair_budget
            )
        return self._set(anti_entropy=spec)

    def build(self) -> "Deployment":
        """Materialise the deployment (servers start on ``start()``)."""
        return Deployment(self.spec)


class Deployment:
    """A deployed scenario handing out register and lock clients.

    Build from a :class:`~repro.service.sharding.DeploymentSpec` or with
    :meth:`builder`; bring up with ``async with`` (or explicit
    :meth:`start` / :meth:`aclose` — in-process deployments are usable
    immediately, TCP ones bind their sockets on start).
    """

    def __init__(self, spec: DeploymentSpec) -> None:
        if not isinstance(spec, DeploymentSpec):
            raise ConfigurationError(
                f"a Deployment is built from a DeploymentSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self._rng = random.Random(spec.seed)
        # In-loop servers, or one server process per shard when processes > 0.
        self.sharded = deploy(spec, self._rng)

    @classmethod
    def builder(cls, scenario: ScenarioSpec) -> DeploymentBuilder:
        """Start configuring a deployment of ``scenario``."""
        return DeploymentBuilder(scenario)

    @property
    def scenario(self) -> ScenarioSpec:
        """What is deployed: system, failure model, register kind."""
        return self.spec.scenario

    @property
    def deadline(self) -> Optional[float]:
        """The per-RPC deadline of every client the deployment hands out."""
        return self.spec.deadline

    @property
    def tracer(self):
        """The shared :class:`~repro.obs.trace.Tracer` (``None``: untraced)."""
        return self.sharded.tracer

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

        Empty unless the deployment's spec has a positive ``trace_sample``.
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
