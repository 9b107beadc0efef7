"""Asyncio-facing replica nodes wrapping the simulation server behaviours.

A :class:`ServiceNode` owns one
:class:`~repro.simulation.server.ReplicaServer` and exposes the RPCs the
service protocol needs — ``read``, ``ping``, ``write``, ``repair`` and the
lock arbiter's ``lock`` — as plain method dispatch; all asynchrony
(latency, drops, deadlines) lives in the transport.  The node reuses the exact behaviour classes of the Monte-Carlo
stack (correct / crashed / silent / replay / forge), so a scenario's
:class:`~repro.simulation.failures.FailurePlan` applies to a service
deployment unchanged, and *live* fault injection is just swapping a node's
behaviour while requests are in flight.

Silence is modelled with the :data:`NO_REPLY` sentinel: a crashed or
silent-Byzantine node returns it and the transport turns it into the
caller's timeout.  A correct node that simply stores nothing yet answers
``("ok", None)`` — an explicit "I have no value" — which is what lets the
quorum client distinguish an empty register from a dead server when it
decides whether to re-probe.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.exceptions import ServiceError
from repro.simulation.server import (
    ByzantineSilentBehavior,
    ReplicaServer,
    ServerBehavior,
    StoredValue,
)
from repro.types import ServerId

#: Sentinel for "this node never answers": the transport converts it into
#: the caller's RPC timeout.
NO_REPLY = object()


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

    @property
    def answers_pings(self) -> bool:
        """Whether a liveness probe gets an answer.

        Crashed nodes cannot answer; a silent-Byzantine node *chooses* not
        to (total suppression is its defining attack), which conveniently
        routes probing clients around it.
        """
        return not (
            self.server.is_crashed
            or isinstance(self.server.behavior, ByzantineSilentBehavior)
        )

    # -- RPC dispatch -------------------------------------------------------------

    def handle(self, method: str, *args: Any) -> Any:
        """Dispatch one RPC; return :data:`NO_REPLY` for silence.

        Replies are ``("ok", payload)`` tuples: an explicit envelope keeps
        "answered with nothing" distinct from "never answered".
        """
        self.requests += 1
        if method == "read":
            # First: reads dominate every workload the harness drives.
            (variable,) = args
            stored = self.server.handle_read(variable)
            if stored is None and not self.answers_pings:
                return NO_REPLY
            return ("ok", stored)
        if method == "ping":
            return ("ok", True) if self.answers_pings else NO_REPLY
        if method == "write":
            variable, value, timestamp, signature = args
            ack = self.server.handle_write(variable, value, timestamp, signature)
            if not ack:
                # Only silence withholds an ack (crashed or silent-Byzantine):
                # the writer observes a missing ack, exactly as in the
                # synchronous cluster facade.
                return NO_REPLY
            return ("ok", True)
        if method == "repair":
            # Anti-entropy delivery (piggybacked read-repair or a gossip
            # push): adopt-if-newer through the replica's merge rule, which
            # already refuses on crashed and Byzantine servers.  Senders are
            # fire-and-forget, so the ack is advisory.
            variable, value, timestamp, signature = args
            adopted = self.server.merge(variable, StoredValue(value, timestamp, signature))
            if not self.answers_pings:
                return NO_REPLY
            return ("ok", adopted)
        if method == "lock":
            # Every lock-arbiter reply is a tuple, so None is silence.
            reply = self.server.handle_lock(args)
            return NO_REPLY if reply is None else ("ok", reply)
        raise ServiceError(f"unknown rpc method {method!r}")

    def stored(self, variable: str) -> Optional[StoredValue]:
        """Inspect the node's stored copy (tests and demos)."""
        return self.server.storage.get(variable)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ServiceNode({self.server!r})"
