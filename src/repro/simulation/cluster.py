"""Cluster orchestration: the synchronous driver of one quorum operation.

A :class:`Cluster` owns the ``n`` replica servers and the failure plan, and
runs a :class:`~repro.protocol.quorum_op.QuorumOp` — the same pure
operation the asyncio service's drivers run — with :meth:`Cluster.run`:
each round's servers are asked through
:meth:`~repro.simulation.server.ReplicaServer.handle` (``"write"``,
``"read"`` or ``"lock"``), every answer is fed to the op as a reply and
every silence as a miss, until the op names no further round.  The
register, the write-back register, the voting service, the quorum lock and
the exhaustive explorer all ask the replicas this way, so the RPC
vocabulary and what counts as silence live in one place, the server.

Delivery is synchronous and direct.  Faults live in the servers, not in a
message layer: a crashed server never answers, a gray server
(:class:`~repro.simulation.server.GrayBehavior`) drops messages at its own
seeded rate, a partition away from the clients is a crash set (the
``targeted_partition`` failure model), and reordering is the plan's
``shuffle_delivery`` flag — the only use of the cluster's random source.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set

from repro.exceptions import ConfigurationError
from repro.protocol.quorum_op import QuorumOp
from repro.simulation.failures import FailurePlan
from repro.simulation.server import NO_REPLY, ReplicaServer
from repro.types import ServerId


class Cluster:
    """``n`` replica servers that clients contact in quorums.

    Parameters
    ----------
    n:
        Number of servers.
    failure_plan:
        Which servers are crashed or Byzantine (default: none).
    seed:
        Seed for the cluster's private random source, which only the
        plan's ``shuffle_delivery`` draws from.
    """

    def __init__(
        self,
        n: int,
        failure_plan: Optional[FailurePlan] = None,
        seed: int = 0,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"a cluster needs at least one server, got n={n}")
        self._n = int(n)
        self.rng = random.Random(seed)
        self.servers: List[ReplicaServer] = [ReplicaServer(i) for i in range(n)]
        self._plan = failure_plan or FailurePlan()
        self._apply_failure_plan(self._plan)

    # -- failure plan -----------------------------------------------------------

    def _apply_failure_plan(self, plan: FailurePlan) -> None:
        for server_id in plan.crashed:
            self._check_server(server_id)
            self.servers[server_id].crash()
        for server_id, behavior in plan.byzantine.items():
            self._check_server(server_id)
            # Stateful behaviours (replay, gray) hand out a fresh instance so
            # trials sharing one frozen plan stay independent.
            self.servers[server_id].behavior = behavior.for_trial()

    def _check_server(self, server_id: ServerId) -> ServerId:
        if not 0 <= server_id < self._n:
            raise ConfigurationError(
                f"server id {server_id} outside the universe of size {self._n}"
            )
        return server_id

    @property
    def n(self) -> int:
        """Number of servers."""
        return self._n

    @property
    def failure_plan(self) -> FailurePlan:
        """The failure plan the cluster was built with."""
        return self._plan

    @property
    def byzantine_servers(self) -> frozenset:
        """Ids of servers currently running a Byzantine behaviour."""
        return frozenset(s.server_id for s in self.servers if s.is_byzantine)

    @property
    def crashed_servers(self) -> frozenset:
        """Ids of servers currently crashed."""
        return frozenset(s.server_id for s in self.servers if s.is_crashed)

    def alive_servers(self) -> Set[ServerId]:
        """Servers that are not crashed (Byzantine servers *are* 'alive')."""
        return {s.server_id for s in self.servers if not s.is_crashed}

    def correct_servers(self) -> Set[ServerId]:
        """Servers that are neither crashed nor Byzantine."""
        return {
            s.server_id for s in self.servers if not s.is_crashed and not s.is_byzantine
        }

    def server(self, server_id: ServerId) -> ReplicaServer:
        """Access one server (tests and applications use this for inspection)."""
        return self.servers[self._check_server(server_id)]

    def crash(self, server_id: ServerId) -> None:
        """Crash a server immediately."""
        self.servers[self._check_server(server_id)].crash()

    def recover(self, server_id: ServerId) -> None:
        """Recover a crashed server immediately."""
        self.servers[self._check_server(server_id)].recover()

    # -- quorum RPCs --------------------------------------------------------------

    def _delivery_order(self, quorum: Iterable[ServerId]) -> List[ServerId]:
        """The order a quorum RPC contacts servers in.

        The message-reordering adversary (``shuffle_delivery``) permutes the
        contact order with the cluster's seeded rng; protocol outcomes must
        not depend on it, which the equivalence tests assert by comparing
        shuffled runs against the batch engine's order-free kernels.
        """
        order = list(quorum)
        if self._plan.shuffle_delivery:
            self.rng.shuffle(order)
        return order

    def run(self, op: QuorumOp, method: str, args: tuple) -> QuorumOp:
        """Run ``op`` to completion, asking each round's servers ``method(*args)``.

        Each round is delivered in :meth:`_delivery_order`; an answer is
        the op's reply and :data:`~repro.simulation.server.NO_REPLY` its
        miss.  Returns ``op``, whose ``replies`` hold every counted answer
        in arrival order.
        """
        replicas, on_reply, on_miss = self.servers, op.on_reply, op.on_miss
        servers = op.start()
        while servers:
            if min(servers) < 0 or max(servers) >= self._n:
                raise ConfigurationError(
                    f"servers {sorted(servers)} reach outside the universe of size {self._n}"
                )
            for server_id in self._delivery_order(servers):
                reply = replicas[server_id].handle(method, args)
                if reply is NO_REPLY:
                    on_miss(server_id)
                else:
                    on_reply(server_id, reply)
            servers = op.round_end()
        return op

    # -- inspection helpers ---------------------------------------------------------

    def servers_holding(self, variable: str, value) -> Set[ServerId]:
        """Which servers currently store ``value`` for ``variable`` (test helper)."""
        holders: Set[ServerId] = set()
        for server in self.servers:
            stored = server.storage.get(variable)
            if stored is not None and stored.value == value:
                holders.add(server.server_id)
        return holders

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Cluster(n={self._n}, crashed={len(self.crashed_servers)}, "
            f"byzantine={len(self.byzantine_servers)})"
        )
