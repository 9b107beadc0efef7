"""Asyncio-facing replica nodes wrapping the simulation server behaviours.

A :class:`ServiceNode` owns one
:class:`~repro.simulation.server.ReplicaServer` and serves the RPCs the
service protocol needs — ``read``, ``ping``, ``write``, ``repair`` and the
lock arbiter's ``lock`` — through the server's one entry point,
:meth:`~repro.simulation.server.ReplicaServer.handle`, which also owns every
silence rule; all asynchrony (latency, drops, deadlines) lives in the
transport.  The node reuses the exact behaviour classes of the Monte-Carlo
stack (correct / crashed / silent / replay / forge), so a scenario's
:class:`~repro.simulation.failures.FailurePlan` applies to a service
deployment unchanged, and *live* fault injection is just swapping a node's
behaviour while requests are in flight.

Silence is the :data:`~repro.simulation.server.NO_REPLY` sentinel, which
the transport turns into the caller's timeout.  Every answer travels as
``("ok", payload)``; a correct node that simply stores nothing yet answers
``("ok", None)`` — an explicit "I have no value" — which is what lets the
quorum client distinguish an empty register from a dead server when it
decides whether to re-probe.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.simulation.server import NO_REPLY, ReplicaServer, ServerBehavior, StoredValue
from repro.types import ServerId


class ServiceNode:
    """One replica node of the asyncio service."""

    def __init__(
        self, server_id: ServerId, behavior: Optional[ServerBehavior] = None
    ) -> None:
        self.server = ReplicaServer(server_id, behavior)
        #: RPCs dispatched to this node (metrics; includes silent outcomes).
        self.requests = 0

    @property
    def server_id(self) -> ServerId:
        """The node's server id."""
        return self.server.server_id

    # -- live fault injection -----------------------------------------------------

    def crash(self) -> None:
        """Crash the node (storage survives; in-flight callers time out)."""
        self.server.crash()

    def recover(self) -> None:
        """Recover a crashed node with its pre-crash behaviour and storage."""
        self.server.recover()

    def set_behavior(self, behavior: ServerBehavior) -> None:
        """Swap the node's behaviour live (e.g. turn it Byzantine mid-run)."""
        self.server.behavior = behavior

    # -- RPC dispatch -------------------------------------------------------------

    def handle(self, method: str, *args: Any) -> Any:
        """Dispatch one RPC; return :data:`NO_REPLY` for silence.

        Replies are ``("ok", payload)`` tuples: an explicit envelope keeps
        "answered with nothing" distinct from "never answered".
        """
        self.requests += 1
        reply = self.server.handle(method, args)
        return NO_REPLY if reply is NO_REPLY else ("ok", reply)

    def stored(self, variable: str) -> Optional[StoredValue]:
        """Inspect the node's stored copy (tests and demos)."""
        return self.server.storage.get(variable)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ServiceNode({self.server!r})"
