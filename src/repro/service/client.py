"""The asynchronous quorum client: concurrent fan-out plus quorum repair.

A client performs one protocol operation (read or write) by sampling a
quorum through the system's access strategy — the paper stresses the
strategy must be followed for the ε guarantee to hold — and issuing every
per-server RPC *concurrently* with a per-RPC deadline.

Under partial failure (some members stay silent past the deadline) **the
operation is the probe**: the members that answered are known alive and are
kept, the silent ones are known dead-or-lost, and only the deficit
``q − |answered|`` is re-drawn — uniformly, without replacement, from the
servers this operation has not contacted yet — and sent the operation
itself (one more fan-out; over TCP one more ``mreq`` carrying only the spare
ids).  Each server is asked at most once per operation and answers in hand
are never discarded.

For the uniform constructions ``R(n, q)`` this is the random-order probe of
:class:`~repro.quorum.probe.UniformProbeStrategy` with the operation as the
probe.  The sampled quorum followed by the spare batches is a prefix of a
uniformly random permutation of the universe, and a batch is never larger
than the current deficit, so the reply set never overshoots ``q``: when the
deficit closes, the final quorum is the first ``q`` answering servers of
that permutation — a uniform ``q``-subset of the answering servers, which
is what ε and Lemma 5.7's ``|Q ∩ B|`` accounting are stated for.  A merged
*super*-quorum, which would inflate ``|Q ∩ B|``, cannot arise.  Systems
without a fixed ``quorum_size`` (explicit strategies, grids) use the general
form of the same rule: ``find_live_quorum(universe − silent)`` names a
replacement quorum, only its members not yet asked are contacted, and the
final reply set is restricted to it.

At most :data:`MAX_TOP_UP_ROUNDS` top-up rounds run per operation; after the
last one the operation returns what it has — ``acknowledged`` /
``responders`` tell the caller how thin it is, and a write raises only when
*nobody* acknowledged.

Two orthogonal fast-path knobs:

* **batched dispatch** (default-off: no dispatcher) — pass a shared
  :class:`~repro.service.dispatch.BatchedDispatcher` and every fan-out is
  coalesced per destination node instead of spawning one coroutine + timer
  per RPC;
* **quorum pooling** (default-on: blocks of
  :data:`DEFAULT_QUORUM_POOL`; pass ``quorum_pool=0`` for per-operation
  draws) — quorums are pre-sampled in blocks through
  :meth:`~repro.core.probabilistic.ProbabilisticQuorumSystem.sample_quorum_block`
  (vectorised NumPy draw).  Every pooled quorum is an independent strategy
  draw, so pooling changes *when* the sampling cost is paid, never the
  distribution.

``selection="latency-aware"`` additionally biases quorum choice toward fast
replicas via an EWMA tracker (:mod:`repro.service.stats`).  That mode
**deviates from the access strategy** — the ε guarantee and Lemma 5.7's
``|Q ∩ B|`` accounting hold only for strategy-drawn quorums — so it warns on
construction and the service harness refuses it for Byzantine scenarios;
``selection="strategy"`` remains the default.
"""

from __future__ import annotations

import asyncio
import random
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import (
    ConfigurationError,
    QuorumUnavailableError,
    RpcTimeoutError,
)
from repro.obs.trace import QuorumTrace, Tracer
from repro.rngs import fresh_rng
from repro.service.dispatch import BatchedDispatcher
from repro.service.node import ServiceNode
from repro.service.stats import EwmaLatencyTracker
from repro.service.transport import AsyncTransport
from repro.simulation.server import StoredValue
from repro.types import Quorum, ServerId

#: The two quorum-selection modes; only ``strategy`` preserves ε.
SELECTION_MODES = ("strategy", "latency-aware")

#: Quorums pre-sampled per pool refill (one vectorised block draw).
DEFAULT_QUORUM_POOL = 32

#: At most two top-up rounds per op: worst-case latency stays ≤ 3 deadlines
#: (what a liveness sweep plus a full retry would cost) while the typical
#: degraded op is 1 deadline + 1 RTT.
MAX_TOP_UP_ROUNDS = 2

EPSILON_CAVEAT = (
    "latency-aware quorum selection deviates from the access strategy: the "
    "ε guarantee (and the masking protocol's |Q ∩ B| accounting) holds only "
    "for strategy-drawn quorums"
)


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
        Per-RPC deadline in event-loop seconds (``None`` disables it).
    rng:
        Random source for quorum sampling and spare draws.
    repair:
        Whether partial failures trigger the top-up rounds (on by default;
        :attr:`probe_fallbacks` counts the operations that needed one).
    dispatcher:
        Optional shared :class:`~repro.service.dispatch.BatchedDispatcher`;
        when given, fan-outs coalesce per destination node instead of
        spawning one coroutine per RPC.
    selection:
        ``"strategy"`` (default, ε-faithful) or ``"latency-aware"`` (biased
        toward fast replicas; warns, see the module docstring).
    tracker:
        Latency tracker backing latency-aware selection.  Share one instance
        across clients of a deployment so estimates aggregate; created on
        demand when latency-aware selection is requested without one.
    quorum_pool:
        Strategy-drawn quorums pre-sampled per block refill (``0`` disables
        pooling and draws per operation).
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
        path (``0``, the default, disables piggybacked read-repair).  Only
        effective with a dispatcher installed — the per-RPC path has no
        delivery events for a repair to ride.
    lazy_fallback:
        Skip the read path's top-up round when the partial reply set can
        already settle a value (at least ``read_threshold`` value-bearing
        replies).  The top-up exists to chase freshness into a full
        quorum; with anti-entropy running that freshness is maintained in
        the background, so deployments arm this together with
        gossip/read-repair and the extra round becomes pure overhead.
        Off by default — without anti-entropy the top-up is what keeps
        reads fresh under churn.  Writes always top up: a write that lands
        on too few servers is a durability loss no later read can repair.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        nodes: Sequence[ServiceNode],
        transport: AsyncTransport,
        deadline: Optional[float] = 0.05,
        rng: Optional[random.Random] = None,
        repair: bool = True,
        dispatcher: Optional[BatchedDispatcher] = None,
        selection: str = "strategy",
        tracker: Optional[EwmaLatencyTracker] = None,
        quorum_pool: int = DEFAULT_QUORUM_POOL,
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
        if selection not in SELECTION_MODES:
            raise ConfigurationError(
                f"unknown selection mode {selection!r}; choose from {SELECTION_MODES}"
            )
        if quorum_pool < 0:
            raise ConfigurationError(
                f"the quorum pool size must be non-negative, got {quorum_pool}"
            )
        if repair_budget < 0:
            raise ConfigurationError(
                f"the repair budget must be non-negative, got {repair_budget}"
            )
        self.system = system
        self.nodes = list(nodes)
        self.transport = transport
        self.deadline = deadline
        self.rng = rng or fresh_rng()
        self.repair = bool(repair)
        self.dispatcher = dispatcher
        self.selection = selection
        self.quorum_pool = int(quorum_pool)
        self._pool: list = []
        self._pool_generator = pool_generator
        self.probe_fallbacks = 0
        self.repair_budget = int(repair_budget)
        self.lazy_fallback = bool(lazy_fallback)
        #: Read-repair payloads piggybacked so far (anti-entropy accounting).
        self.repairs_piggybacked = 0
        self.tracker = tracker
        self.tracer = tracer
        self.client_id = client_id
        self.shard = shard
        self._generator: Optional[np.random.Generator] = None
        if selection == "latency-aware":
            if not hasattr(system, "quorum_size"):
                raise ConfigurationError(
                    "latency-aware selection needs a uniform construction with a "
                    f"fixed quorum_size; {system.describe()} has none"
                )
            if self.tracker is None and dispatcher is not None:
                # Join the deployment's existing tracker rather than
                # splitting observations across per-client instances.
                self.tracker = dispatcher.tracker
            if self.tracker is None:
                self.tracker = EwmaLatencyTracker(system.n)
            self._generator = np.random.default_rng(self.rng.randrange(2**63))
            warnings.warn(EPSILON_CAVEAT, UserWarning, stacklevel=2)
        if self.tracker is not None and self.dispatcher is not None:
            if self.dispatcher.tracker is None:
                # First tracked client wires the shared dispatcher up; later
                # clients must not silently swap the tracker the earlier
                # ones are drawing from.
                self.dispatcher.tracker = self.tracker
            elif self.dispatcher.tracker is not self.tracker:
                raise ConfigurationError(
                    "the shared dispatcher already feeds a different latency "
                    "tracker; pass that tracker to every client of the "
                    "deployment"
                )

    # -- raw RPC fan-out ----------------------------------------------------------

    async def _rpc(
        self,
        server: ServerId,
        method: str,
        *args: Any,
        trace: Optional[QuorumTrace] = None,
    ) -> Any:
        """One RPC; returns the reply envelope or ``None`` on timeout."""
        tracker = self.tracker
        if tracker is None and trace is None:
            try:
                return await self.transport.call(
                    self.nodes[server], method, *args, timeout=self.deadline
                )
            except RpcTimeoutError:
                return None
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            reply = await self.transport.call(
                self.nodes[server],
                method,
                *args,
                timeout=self.deadline,
                trace_id=trace.trace_id if trace is not None else None,
            )
        except RpcTimeoutError as error:
            ended = loop.time()
            if tracker is not None:
                tracker.penalize(server, ended - started)
            if trace is not None:
                trace.record(
                    server,
                    method,
                    started,
                    ended,
                    getattr(error, "disposition", "timeout"),
                )
            return None
        ended = loop.time()
        if tracker is not None:
            tracker.observe(server, ended - started)
        if trace is not None:
            trace.record(server, method, started, ended, "ok")
        return reply

    async def _fan_out(
        self,
        servers: Sequence[ServerId],
        method: str,
        *args: Any,
        trace: Optional[QuorumTrace] = None,
    ) -> Dict[ServerId, Any]:
        """Issue one RPC per server; map responders to payloads.

        With a dispatcher installed the whole operation is one coalesced
        fan-out (one pending-op future, per-node delivery events); without
        one it is the per-RPC path (one coroutine + deadline per RPC).
        """
        if self.dispatcher is not None:
            if trace is not None:
                return await self.dispatcher.fan_out(
                    servers, method, args, self.deadline, trace=trace
                )
            return await self.dispatcher.fan_out(servers, method, args, self.deadline)
        envelopes = await asyncio.gather(
            *(self._rpc(server, method, *args, trace=trace) for server in servers)
        )
        return {
            server: envelope[1]
            for server, envelope in zip(servers, envelopes)
            if envelope is not None
        }

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
        dispatcher, without a budget, or when the dispatcher has no
        piggyback path).  The replica side adopts through its merge rule —
        crashed and Byzantine servers refuse — so a repair can never make a
        copy *worse*, only newer.
        """
        dispatcher = self.dispatcher
        if dispatcher is None or self.repair_budget <= 0 or not servers:
            return 0
        enqueue = getattr(dispatcher, "enqueue_repair", None)
        if enqueue is None:
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

    # -- degraded-quorum top-up ---------------------------------------------------

    async def _top_up(
        self,
        ordered: Sequence[ServerId],
        answers: Dict[ServerId, Any],
        method: str,
        args: tuple,
        trace: Optional[QuorumTrace],
    ) -> Tuple[Dict[ServerId, Any], int]:
        """Send ``method`` itself to spare servers until the quorum is whole.

        ``answers`` holds the first round's replies from ``ordered``; its
        silent members are written off, its answering members are kept, and
        each round asks just enough not-yet-contacted servers to close the
        deficit (the module docstring argues why the result is still a
        strategy-faithful quorum).  Returns the reply map the operation
        finally rests on and how many spare servers were asked.
        """
        self.probe_fallbacks += 1
        system = self.system
        universe = range(system.n)
        uniform = hasattr(system, "quorum_size")
        asked = set(ordered)
        replacement: Optional[Quorum] = None
        for _ in range(MAX_TOP_UP_ROUNDS):
            if uniform:
                unasked = [server for server in universe if server not in asked]
                deficit = len(ordered) - len(answers)
                spares = self.rng.sample(unasked, min(deficit, len(unasked)))
            else:
                silent = asked.difference(answers)
                replacement = system.find_live_quorum(set(universe) - silent)
                spares = [server for server in replacement or () if server not in asked]
            if not spares:
                break
            spares.sort()
            asked.update(spares)
            answers.update(await self._fan_out(spares, method, *args, trace=trace))
        if replacement is not None and replacement <= answers.keys():
            # First-round answers from outside the replacement quorum would
            # make the reply set a super-quorum; the op rests on the quorum.
            answers = {server: answers[server] for server in replacement}
        return answers, len(asked) - len(ordered)

    # -- quorum selection ---------------------------------------------------------

    def sample_quorum(self) -> Quorum:
        """Draw a quorum from the access strategy (public, pool-free)."""
        return self.system.sample_quorum(self.rng)

    def _next_quorum(self) -> Tuple[int, ...]:
        """The quorum the next operation fans out to, as a sorted id tuple.

        Strategy mode pops from the block-sampled pool (refilled through the
        vectorised ``sample_quorum_block``); latency-aware mode draws a
        biased quorum from the tracker per operation, since the bias must
        reflect the latest estimates.
        """
        if self._generator is not None:
            return self.tracker.biased_quorum(
                int(self.system.quorum_size), generator=self._generator
            )
        if self.quorum_pool == 0:
            return tuple(sorted(self.system.sample_quorum(self.rng)))
        pool = self._pool
        if not pool:
            if self._pool_generator is None:
                self._pool_generator = np.random.default_rng(self.rng.randrange(2**63))
            pool.extend(
                self.system.sample_quorum_block(
                    count=self.quorum_pool, generator=self._pool_generator
                )
            )
        return pool.pop()

    # -- protocol operations ------------------------------------------------------

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
        trace = (
            self.tracer.begin(
                "write", client_id=self.client_id, variable=variable, shard=self.shard
            )
            if self.tracer is not None
            else None
        )
        ordered = self._next_quorum()
        quorum: Quorum = frozenset(ordered)
        if trace is not None:
            trace.quorum = list(ordered)
            trace.selection = {"mode": self.selection}
        args = (variable, value, timestamp, signature)
        acks = await self._fan_out(ordered, "write", *args, trace=trace)
        spares = 0
        if len(acks) < len(ordered) and self.repair:
            acks, spares = await self._top_up(ordered, acks, "write", args, trace)
            quorum = frozenset(acks)
            if trace is not None:
                trace.quorum = sorted(acks)
        if trace is not None:
            trace.retried = spares > 0
            trace.probes_used = spares
            self.tracer.finish(trace, status="ok" if acks else "unavailable")
        if not acks:
            # A write nobody stored must not be reported as complete.
            raise QuorumUnavailableError(
                f"write of {variable!r}: none of the {len(ordered) + spares} "
                f"servers contacted acknowledged"
            )
        return WriteRpcResult(
            quorum=quorum,
            acknowledged=frozenset(acks),
            retried=spares > 0,
            probes_used=spares,
            trace=trace,
        )

    def _settleable(self, responses: Dict[ServerId, Any]) -> bool:
        """Whether a partial reply set can already settle a read.

        At least ``read_threshold`` value-bearing replies (one for the
        benign and dissemination protocols, ``⌈k⌉`` for masking) means the
        selection rule has enough votes to pick a winner; chasing the
        missing servers into a top-up round buys nothing anti-entropy is
        not already providing in the background.
        """
        threshold = int(getattr(self.system, "read_threshold", 1))
        value_bearing = sum(
            1 for stored in responses.values() if stored is not None
        )
        return value_bearing >= threshold

    async def read(self, variable: str) -> ReadRpcResult:
        """Fan a read out to a strategy-drawn quorum, topping up on failure.

        Never raises: with every reply missing the register layer returns ⊥,
        which is the protocol's own account of an unreachable quorum.
        """
        trace = (
            self.tracer.begin(
                "read", client_id=self.client_id, variable=variable, shard=self.shard
            )
            if self.tracer is not None
            else None
        )
        ordered = self._next_quorum()
        quorum: Quorum = frozenset(ordered)
        if trace is not None:
            trace.quorum = list(ordered)
            trace.selection = {"mode": self.selection}
        responses = await self._fan_out(ordered, "read", variable, trace=trace)
        spares = 0
        if (
            len(responses) < len(ordered)
            and self.repair
            and not (self.lazy_fallback and self._settleable(responses))
        ):
            responses, spares = await self._top_up(
                ordered, responses, "read", (variable,), trace
            )
            quorum = frozenset(responses)
            if trace is not None:
                trace.quorum = sorted(responses)
        replies = {
            server: stored for server, stored in responses.items() if stored is not None
        }
        if trace is not None:
            trace.retried = spares > 0
            trace.probes_used = spares
            self.tracer.finish(trace)
        return ReadRpcResult(
            quorum=quorum,
            replies=replies,
            responders=len(responses),
            retried=spares > 0,
            probes_used=spares,
            trace=trace,
        )
