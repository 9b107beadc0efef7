"""The per-RPC reference driver: one ``transport.call`` per server per round.

Every RPC is its own coroutine with its own deadline, exactly what the
batched and wire drivers exist to avoid.  It is kept only as the oracle the
driver tests compare against: same :class:`~repro.protocol.quorum_op.QuorumOp`,
same transport counters, the simplest possible delivery.
"""

from __future__ import annotations

import asyncio

from repro.exceptions import RpcTimeoutError
from repro.service.dispatch import QuorumDriver


class PerRpcDriver(QuorumDriver):
    def __init__(self, nodes, transport):
        self.nodes = list(nodes)
        self.transport = transport

    async def _call(self, server, method, args, timeout, trace):
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            envelope = await self.transport.call(
                self.nodes[server], method, *args, timeout=timeout
            )
        except RpcTimeoutError as error:
            if trace is not None:
                trace.record(server, method, started, loop.time(), error.disposition)
            return None
        if trace is not None:
            trace.record(server, method, started, loop.time(), "ok")
        return envelope

    async def _round(self, op, servers, method, args, timeout, trace):
        envelopes = await asyncio.gather(
            *(self._call(server, method, args, timeout, trace) for server in servers)
        )
        for server, envelope in zip(servers, envelopes):
            if envelope is None:
                op.on_miss(server)
            else:
                op.on_reply(server, envelope[1])
