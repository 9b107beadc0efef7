"""The asynchronous quorum client: one strategy-drawn quorum per operation.

A client performs one protocol operation (read or write) by sampling a
quorum through the system's access strategy — the paper stresses the
strategy must be followed for the ε guarantee to hold — and handing it to a
:class:`~repro.protocol.quorum_op.QuorumOp`, which a driver runs under a
per-round deadline.  The op owns the rule for partial failure (**the
operation is the probe**: answers in hand are kept, each server is asked at
most once, and only the deficit is re-drawn from servers not yet
contacted); the driver owns the messages: the shared in-process
:class:`~repro.service.dispatch.BatchedDispatcher` (a client built without
one gets its own) or the wire-level :class:`~repro.service.net.TcpDispatcher`.
After the last top-up round the operation returns what it has —
``acknowledged`` / ``responders`` tell the caller how thin it is, and a
write raises only when *nobody* acknowledged.

A client draws its quorums from a **pool**, refilled
:data:`DEFAULT_QUORUM_POOL` at a time through
:meth:`~repro.core.probabilistic.ProbabilisticQuorumSystem.sample_quorum_block`
(one vectorised NumPy draw).  Every pooled quorum is an independent
strategy draw, so pooling changes *when* the sampling cost is paid, never
the distribution.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.obs.trace import QuorumTrace, Tracer
from repro.protocol.quorum_op import QuorumOp
from repro.rngs import fresh_rng
from repro.service.dispatch import BatchedDispatcher, QuorumDriver
from repro.service.node import ServiceNode
from repro.service.transport import AsyncTransport
from repro.simulation.server import StoredValue
from repro.types import Quorum, ServerId

#: Quorums pre-sampled per pool refill (one vectorised block draw).
DEFAULT_QUORUM_POOL = 32


@dataclass(frozen=True, slots=True)
class WriteRpcResult:
    """Outcome of one fanned-out quorum write.

    ``quorum`` is the set the write finally rests on: the sampled quorum,
    or after a top-up the answering originals plus the answering spares
    (never more than ``q`` servers), so ``acknowledged ⊆ quorum``.
    ``retried`` says a top-up round ran and ``probes_used`` counts the spare
    servers it asked.  ``trace`` carries the operation's
    :class:`~repro.obs.trace.QuorumTrace` when the client samples traces,
    ``None`` otherwise.
    """

    quorum: Quorum
    acknowledged: frozenset
    retried: bool
    probes_used: int
    trace: Optional[QuorumTrace] = None


@dataclass(frozen=True, slots=True)
class ReadRpcResult:
    """Outcome of one fanned-out quorum read.

    ``replies`` holds the value-bearing answers; ``responders`` counts every
    server that answered at all (including explicit "I store nothing"), which
    is what distinguishes an empty register from a dead quorum.  ``quorum``,
    ``retried`` and ``probes_used`` (spare servers asked) read as on
    :class:`WriteRpcResult`.  ``trace`` carries the operation's
    :class:`~repro.obs.trace.QuorumTrace` when the client samples traces,
    ``None`` otherwise.
    """

    quorum: Quorum
    replies: Dict[ServerId, StoredValue]
    responders: int
    retried: bool
    probes_used: int
    trace: Optional[QuorumTrace] = None


class AsyncQuorumClient:
    """Concurrent quorum RPCs over a set of service nodes.

    Parameters
    ----------
    system:
        The probabilistic quorum system; quorums are drawn from its access
        strategy and top-up uses its structure.
    nodes:
        The ``n`` replica nodes, indexed by server id.
    transport:
        The shared :class:`~repro.service.transport.AsyncTransport`.
    deadline:
        Per-round deadline in event-loop seconds (``None`` disables it).
    rng:
        Random source for quorum sampling and spare draws.  Partial failures
        always trigger the top-up rounds; :attr:`probe_fallbacks` counts the
        operations that needed one.
    dispatcher:
        The driver that runs this client's operations, shared by every
        client of a deployment: a
        :class:`~repro.service.dispatch.BatchedDispatcher` in process or a
        :class:`~repro.service.net.TcpDispatcher` on the wire.  ``None``
        builds a private ``BatchedDispatcher(nodes, transport)``.
    pool_generator:
        Optional persistent NumPy generator backing the pool's block draws.
        A deployment shares one across its clients so a thousand clients do
        not pay a thousand bit-generator constructions; by default each
        client derives its own from ``rng`` on first refill.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When set, sampled
        operations assemble a :class:`~repro.obs.trace.QuorumTrace` (quorum,
        per-RPC spans, top-up accounting) attached to the RPC result.
        ``None`` (the default) keeps every per-operation trace branch off
        the hot path — tracing costs nothing when unused.
    client_id:
        Identity recorded in this client's traces (e.g. the register layer's
        writer id); purely observational.
    shard:
        Shard index recorded in this client's traces when the client serves
        one shard of a sharded deployment; purely observational.
    repair_budget:
        Lagging replicas one settled read may repair by piggybacking
        fire-and-forget repair payloads onto the dispatcher's coalescing
        path (``0``, the default, disables piggybacked read-repair).
    lazy_fallback:
        Skip the read path's top-up round when the partial reply set can
        already settle a value (see
        :meth:`~repro.protocol.quorum_op.QuorumOp.settleable`).  The top-up
        exists to chase freshness into a full quorum; with anti-entropy
        running that freshness is maintained in the background, so
        deployments arm this together with gossip/read-repair and the extra
        round becomes pure overhead.  Off by default — without anti-entropy
        the top-up is what keeps reads fresh under churn.  Writes always top
        up: a write that lands on too few servers is a durability loss no
        later read can repair.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        nodes: Sequence[ServiceNode],
        transport: AsyncTransport,
        deadline: Optional[float] = 0.05,
        rng: Optional[random.Random] = None,
        dispatcher: Optional[QuorumDriver] = None,
        pool_generator: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        client_id: Optional[str] = None,
        shard: Optional[int] = None,
        repair_budget: int = 0,
        lazy_fallback: bool = False,
    ) -> None:
        if len(nodes) != system.n:
            raise ConfigurationError(
                f"the system is over {system.n} servers but {len(nodes)} nodes were given"
            )
        if deadline is not None and deadline <= 0.0:
            raise ConfigurationError(f"the RPC deadline must be positive, got {deadline}")
        if repair_budget < 0:
            raise ConfigurationError(
                f"the repair budget must be non-negative, got {repair_budget}"
            )
        self.system = system
        self.nodes = list(nodes)
        self.transport = transport
        self.deadline = deadline
        self.rng = rng or fresh_rng()
        self.dispatcher = (
            dispatcher if dispatcher is not None else BatchedDispatcher(self.nodes, transport)
        )
        self._pool: list = []
        self._pool_generator = pool_generator
        self.probe_fallbacks = 0
        self.repair_budget = int(repair_budget)
        self.lazy_fallback = bool(lazy_fallback)
        #: Read-repair payloads piggybacked so far (anti-entropy accounting).
        self.repairs_piggybacked = 0
        self.tracer = tracer
        self.client_id = client_id
        self.shard = shard

    # -- piggybacked read-repair --------------------------------------------------

    def piggyback_repairs(
        self,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
        servers: Sequence[ServerId],
        trace: Optional[QuorumTrace] = None,
    ) -> int:
        """Queue read-repair at up to :attr:`repair_budget` lagging servers.

        Fire-and-forget anti-entropy: the settled ``(value, timestamp)`` of
        a completed read is attached to the dispatcher's next coalesced
        delivery toward each listed server, so freshness propagates without
        a new RPC round.  Returns how many repairs were queued (0 without a
        budget, or when the dispatcher has no piggyback path).  The replica
        side adopts through its merge rule — crashed and Byzantine servers
        refuse — so a repair can never make a copy *worse*, only newer.
        """
        enqueue = getattr(self.dispatcher, "enqueue_repair", None)
        if enqueue is None or self.repair_budget <= 0 or not servers:
            return 0
        targets = list(servers)[: self.repair_budget]
        for server in targets:
            enqueue(server, variable, value, timestamp, signature)
        self.repairs_piggybacked += len(targets)
        if trace is not None:
            now = asyncio.get_running_loop().time()
            for server in targets:
                # Zero-length spans: the payload rides a delivery that is
                # not awaited, so "queued" is all the client ever observes.
                trace.record(server, "repair", now, now, "repair")
        return len(targets)

    # -- quorum selection ---------------------------------------------------------

    def sample_quorum(self) -> Quorum:
        """Draw a quorum from the access strategy (public, pool-free)."""
        return self.system.sample_quorum(self.rng)

    def _next_quorum(self) -> Tuple[int, ...]:
        """The quorum the next operation fans out to, as a sorted id tuple,
        popped from the block-sampled pool (refilled through the vectorised
        ``sample_quorum_block``)."""
        pool = self._pool
        if not pool:
            if self._pool_generator is None:
                self._pool_generator = np.random.default_rng(self.rng.randrange(2**63))
            pool.extend(
                self.system.sample_quorum_block(
                    count=DEFAULT_QUORUM_POOL, generator=self._pool_generator
                )
            )
        return pool.pop()

    # -- protocol operations ------------------------------------------------------

    async def _run(
        self, method: str, variable: str, args: tuple, op: QuorumOp
    ) -> Optional[QuorumTrace]:
        """Have the dispatcher run ``op``, account for it."""
        trace = (
            self.tracer.begin(
                method, client_id=self.client_id, variable=variable, shard=self.shard
            )
            if self.tracer is not None
            else None
        )
        if trace is not None:
            trace.quorum = list(op.quorum)
        await self.dispatcher.run(op, method, args, self.deadline, trace)
        if op.fell_back:
            self.probe_fallbacks += 1
        if trace is not None:
            if op.fell_back:
                trace.quorum = sorted(op.replies)
            trace.retried = op.spares > 0
            trace.probes_used = op.spares
        return trace

    async def write(
        self,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes] = None,
    ) -> WriteRpcResult:
        """Fan a write out to a strategy-drawn quorum, topping up on failure.

        Raises :class:`~repro.exceptions.QuorumUnavailableError` only when no
        server at all acknowledged — short of that, missed servers are
        exactly the crash-misses the ε analysis accounts for, and
        ``acknowledged`` (always a subset of ``quorum``) says how many.
        """
        op = QuorumOp(self._next_quorum(), self.system, self.rng, repair=True)
        trace = await self._run(
            "write", variable, (variable, value, timestamp, signature), op
        )
        if trace is not None:
            self.tracer.finish(trace, status="ok" if op.replies else "unavailable")
        if not op.replies:
            # A write nobody stored must not be reported as complete.
            raise QuorumUnavailableError(
                f"write of {variable!r}: none of the {len(op.quorum) + op.spares} "
                f"servers contacted acknowledged"
            )
        return WriteRpcResult(
            quorum=op.final_quorum,
            acknowledged=frozenset(op.replies),
            retried=op.spares > 0,
            probes_used=op.spares,
            trace=trace,
        )

    async def read(self, variable: str, threshold: int = 1) -> ReadRpcResult:
        """Fan a read out to a strategy-drawn quorum, topping up on failure.

        ``threshold`` is the reader's vote threshold: with
        :attr:`lazy_fallback` on, a degraded first round holding that many
        value-bearing replies settles without a top-up.  Never raises: with
        every reply missing the register layer returns ⊥, which is the
        protocol's own account of an unreachable quorum.
        """
        lazy = threshold if self.lazy_fallback else None
        op = QuorumOp(self._next_quorum(), self.system, self.rng, repair=True, lazy=lazy)
        trace = await self._run("read", variable, (variable,), op)
        if trace is not None:
            self.tracer.finish(trace)
        return ReadRpcResult(
            quorum=op.final_quorum,
            replies={
                server: stored
                for server, stored in op.replies.items()
                if stored is not None
            },
            responders=len(op.replies),
            retried=op.spares > 0,
            probes_used=op.spares,
            trace=trace,
        )

    async def lock(self, op: QuorumOp, message: tuple) -> Optional[QuorumTrace]:
        """Run ``op`` with one lock-arbiter ``message`` (see
        :mod:`repro.protocol.arbiter`); return its trace."""
        trace = await self._run("lock", message[1], message, op)
        if trace is not None:
            self.tracer.finish(trace)
        return trace
