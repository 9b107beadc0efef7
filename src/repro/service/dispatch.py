"""Quorum-operation drivers and the in-process one, the batched dispatcher.

A :class:`~repro.protocol.quorum_op.QuorumOp` decides who is asked and
which answers count; a *driver* moves its messages and owns its deadline.
:class:`QuorumDriver` is the loop every driver shares — run a round, let
the op close it, run the spares it names — and ``fan_out`` is its
one-round case.  There are two drivers: :class:`BatchedDispatcher` here,
and the wire-level :class:`~repro.service.net.TcpDispatcher`.

Calling :meth:`~repro.service.transport.AsyncTransport.call` once per RPC
costs one coroutine, one ``asyncio.sleep`` timer and one deadline per RPC.
At quorum size ``q`` with a thousand concurrent clients that is thousands
of timer handles per scheduling tick — per-*operation* bookkeeping, where
the paper's whole point is that only per-*server* load should grow with
traffic.  :class:`BatchedDispatcher` replaces that bookkeeping with
per-server batching:

* every RPC is appended to its destination node's pending bucket; the
  **first** RPC to reach a node in a scheduling window arms one delivery
  event (``call_later`` at the drawn transport delay, or ``call_soon``
  when it is zero) and every later RPC to the same node rides along — one
  timer per *(node, tick)*, not per RPC;
* a round of an operation is a single future the caller awaits, resolved
  when every constituent RPC's fate is known.  A round with missed RPCs
  (drops, crashes, silent servers) resolves at its deadline — at most one
  ``call_later`` per round, armed lazily and only when a miss actually
  happened — so the loss-free fast path runs with **zero** deadline timers.

The transport still decides each message's fate: drops are sampled per
message from the transport's RNG and all failure counters
(``calls``/``dropped``/``timed_out``) live on the transport.  The delivery
delay is drawn once per (node, tick), and RPCs joining an already-armed
window are delivered with it.  A missing reply still costs the caller its
deadline, and with no deadline the caller learns of the loss after the
transport delay.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from repro.protocol.quorum_op import QuorumOp
from repro.service.node import ServiceNode
from repro.service.transport import AsyncTransport
from repro.simulation.server import NO_REPLY
from repro.types import ServerId


class QuorumDriver:
    """The round loop shared by every driver; subclasses supply ``_round``.

    ``_round(op, servers, method, args, timeout, trace)`` sends ``method``
    to ``servers``, feeds each fate to ``op.on_reply`` / ``op.on_miss`` and
    returns when the round is over (every fate known, or its deadline hit).
    """

    async def run(
        self,
        op: QuorumOp,
        method: str,
        args: tuple,
        timeout: Optional[float],
        trace: Optional[Any] = None,
    ) -> QuorumOp:
        """Drive ``op`` to completion: its first round, then its top-ups."""
        servers = op.start()
        while servers:
            await self._round(op, servers, method, args, timeout, trace)
            servers = op.round_end()
        return op

    async def fan_out(
        self,
        servers: Sequence[ServerId],
        method: str,
        args: tuple,
        timeout: Optional[float],
        trace: Optional[Any] = None,
    ) -> Dict[ServerId, Any]:
        """One round: ``method`` to every listed server; map responders to
        the payloads that arrived within ``timeout``.  A ``trace`` collects
        one span per constituent RPC."""
        op = await self.run(QuorumOp(servers), method, args, timeout, trace)
        return op.replies


def _resolve(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


class BatchedDispatcher(QuorumDriver):
    """Coalescing RPC dispatch shared by every client of one deployment.

    Parameters
    ----------
    nodes:
        The replica nodes, indexed by server id.
    transport:
        The shared transport: source of delays, drop sampling and the
        ``calls``/``dropped``/``timed_out`` counters.  A node's bucket is
        flushed at the drawn transport delay; at zero latency that is the
        next loop iteration, which already coalesces everything enqueued by
        the currently runnable tasks.
    """

    def __init__(self, nodes: Sequence[ServiceNode], transport: AsyncTransport) -> None:
        self.nodes = list(nodes)
        self.transport = transport
        #: Per node: ``(op, future, start, timeout, trace, method, args)``
        #: of every RPC awaiting the node's next flush.
        self._pending: List[List[tuple]] = [[] for _ in self.nodes]
        self._armed: List[bool] = [False] * len(self.nodes)
        #: Delivery events fired so far (tests assert coalescing through it:
        #: with batching this is far below the RPC count).
        self.flushes = 0
        #: Fire-and-forget repair payloads awaiting each node's next flush.
        self._repairs: List[List[tuple]] = [[] for _ in self.nodes]
        #: Repair payloads delivered so far (piggybacked, never counted as
        #: transport calls: they ride delivery events that already happened).
        self.repairs_piggybacked = 0

    async def _round(self, op, servers, method, args, timeout, trace) -> None:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        start = loop.time()
        entry = (op, future, start, timeout, trace, method, args)
        transport = self.transport
        transport.calls += len(servers)
        pending = self._pending
        armed = self._armed
        for server in servers:
            pending[server].append(entry)
            if not armed[server]:
                armed[server] = True
                delay = transport.draw_delay()
                if delay > 0.0:
                    loop.call_later(delay, self._flush, server, loop.time() + delay)
                else:
                    loop.call_soon(self._flush, server, start)
        await future

    def enqueue_repair(
        self,
        server: ServerId,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
    ) -> None:
        """Attach one read-repair payload to ``server``'s next flush.

        The repair rides the next coalesced delivery event — piggybacked, so
        it costs no RPC round and no transport call.  If nothing is armed
        for the node yet, a delivery event is armed exactly as an RPC would
        arm one, so repairs cannot starve on an idle node.
        """
        self._repairs[server].append((variable, value, timestamp, signature))
        if not self._armed[server]:
            self._armed[server] = True
            loop = asyncio.get_running_loop()
            delay = self.transport.draw_delay()
            if delay > 0.0:
                loop.call_later(delay, self._flush, server, loop.time() + delay)
            else:
                loop.call_soon(self._flush, server, loop.time())

    def _flush(self, server: ServerId, flush_at: float) -> None:
        """Deliver a node's whole pending bucket: one event per (node, tick)."""
        self._armed[server] = False
        bucket = self._pending[server]
        repairs = self._repairs[server]
        if repairs:
            # Piggybacked read-repair: delivered with the tick (the delivery
            # event has already happened, so no extra drop sampling) and
            # absorbed by the replica's merge rule — crashed and Byzantine
            # nodes refuse, exactly as in the gossip engine.
            node_handle = self.nodes[server].handle
            for variable, value, timestamp, signature in repairs:
                node_handle("repair", variable, value, timestamp, signature)
            self.repairs_piggybacked += len(repairs)
            repairs.clear()
        if not bucket:
            return
        self.flushes += 1
        transport = self.transport
        rng_draw = transport.rng.random
        drop_p = transport.drop_probability
        handle = self.nodes[server].handle
        for op, future, start, timeout, trace, method, args in bucket:
            if drop_p and rng_draw() < drop_p:
                transport.dropped += 1
                disposition = "dropped"
            elif timeout is not None and flush_at - start > timeout:
                # Deadlines are judged per *round* in simulated time: an
                # RPC that rode an already-armed window was enqueued after
                # the round that armed it, so its own delivery delay
                # (scheduled flush time minus its start) can be inside its
                # deadline even when the window's drawn delay is not.  Using
                # the *scheduled* flush time (not the wall clock at which
                # this callback actually ran) keeps event-loop lag from
                # counting against the transport's deadline.
                transport.timed_out += 1
                disposition = "timeout"
            else:
                reply = handle(method, *args)
                if reply is not NO_REPLY:
                    if trace is not None:
                        trace.record(server, method, start, flush_at, "ok")
                    if op.on_reply(server, reply[1]) and not op.pending:
                        self._settle(op, future, start, timeout)
                    continue
                transport.timed_out += 1
                disposition = "silent"
            if trace is not None:
                trace.record(server, method, start, flush_at, disposition)
            if op.on_miss(server) and not op.pending:
                self._settle(op, future, start, timeout)
        # Reuse the bucket list across ticks instead of reallocating it.
        bucket.clear()

    @staticmethod
    def _settle(
        op: QuorumOp, future: asyncio.Future, start: float, timeout: Optional[float]
    ) -> None:
        """Every fate of the round is known: resolve now, or at the deadline
        when something missed (a missing reply costs the caller its whole
        deadline)."""
        if op.misses == 0 or timeout is None:
            _resolve(future)
            return
        loop = future.get_loop()
        remaining = start + timeout - loop.time()
        if remaining <= 0.0:
            _resolve(future)
        else:
            loop.call_later(remaining, _resolve, future)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"BatchedDispatcher(nodes={len(self.nodes)}, flushes={self.flushes})"
        )
