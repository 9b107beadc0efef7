"""Cluster orchestration: the quorum-RPC facade the protocol layer uses.

A :class:`Cluster` owns the ``n`` replica servers, the network, the event
scheduler and the failure plan, and exposes the two operations the paper's
access protocols need, plus the lock protocol's one:

* :meth:`Cluster.write_quorum` — send a timestamped (optionally signed)
  value to every server of a quorum and collect acknowledgements;
* :meth:`Cluster.read_quorum` — query every server of a quorum and collect
  value/timestamp replies;
* :meth:`Cluster.lock_quorum` — send a lock-arbiter message to every server
  of a quorum and collect the replies.

The facade is synchronous (a quorum RPC returns the full reply map), which
keeps the protocol implementations readable while the network model still
accounts for message drops and partitions; latency-sensitive behaviour
(gossip rounds, crash schedules) runs through the event scheduler.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set

from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.events import EventScheduler
from repro.simulation.failures import FailurePlan
from repro.simulation.network import Message, Network
from repro.simulation.server import CorrectBehavior, ReplicaServer, StoredValue
from repro.types import Quorum, ServerId

#: Client node ids are negative so they never collide with server ids.
CLIENT_NODE_ID = -1


class Cluster:
    """``n`` replica servers plus the network connecting clients to them.

    Parameters
    ----------
    n:
        Number of servers.
    failure_plan:
        Which servers are crashed or Byzantine (default: none).
    network:
        The network model; defaults to a reliable, constant-latency network.
    seed:
        Seed for the cluster's private random source (used when a failure
        schedule or the network needs randomness but none was supplied).
    """

    def __init__(
        self,
        n: int,
        failure_plan: Optional[FailurePlan] = None,
        network: Optional[Network] = None,
        seed: int = 0,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"a cluster needs at least one server, got n={n}")
        self._n = int(n)
        self.rng = random.Random(seed)
        self.scheduler = EventScheduler()
        self.network = network or Network(scheduler=self.scheduler, rng=self.rng)
        if network is not None and network.scheduler is not self.scheduler:
            # Keep a single notion of simulated time.
            self.scheduler = network.scheduler
        self.servers: List[ReplicaServer] = [ReplicaServer(i) for i in range(n)]
        self._plan = failure_plan or FailurePlan.none()
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
        for event in plan.schedule:
            server = self.servers[self._check_server(event.server)]
            if event.recover:
                self.scheduler.schedule_at(event.time, server.recover)
            else:
                self.scheduler.schedule_at(event.time, server.crash)

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

    def advance_time(self, duration: float) -> None:
        """Run the event scheduler forward (crash schedules, gossip rounds...)."""
        self.scheduler.run_until(self.scheduler.now + duration)

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

    def write_quorum(
        self,
        quorum: Iterable[ServerId],
        variable: str,
        value,
        timestamp,
        signature: Optional[bytes] = None,
        client_id: int = CLIENT_NODE_ID,
    ) -> Dict[ServerId, bool]:
        """Send a write to every server of ``quorum``; return per-server acks.

        A missing key means the request or its acknowledgement was lost
        (dropped message or crashed server); ``False`` means the server
        explicitly refused (only Byzantine behaviours do that).
        """
        acks: Dict[ServerId, bool] = {}
        for server_id in self._delivery_order(quorum):
            self._check_server(server_id)
            request = Message(client_id, server_id, "write", (variable, timestamp))
            if not self.network.send_sync(request):
                continue
            ack = self.servers[server_id].handle_write(variable, value, timestamp, signature)
            reply = Message(server_id, client_id, "write-ack", ack)
            if not self.network.send_sync(reply):
                continue
            if ack:
                acks[server_id] = ack
        return acks

    def read_quorum(
        self,
        quorum: Iterable[ServerId],
        variable: str,
        client_id: int = CLIENT_NODE_ID,
    ) -> Dict[ServerId, StoredValue]:
        """Query every server of ``quorum``; return the replies that arrive."""
        replies: Dict[ServerId, StoredValue] = {}
        for server_id in self._delivery_order(quorum):
            self._check_server(server_id)
            request = Message(client_id, server_id, "read", variable)
            if not self.network.send_sync(request):
                continue
            stored = self.servers[server_id].handle_read(variable)
            if stored is None:
                continue
            reply = Message(server_id, client_id, "read-reply", (variable, stored.timestamp))
            if not self.network.send_sync(reply):
                continue
            replies[server_id] = stored
        return replies

    def lock_quorum(self, quorum: Iterable[ServerId], message: tuple) -> Dict[ServerId, tuple]:
        """Send a lock message to every server of ``quorum``; return the
        replies that arrive (see :mod:`repro.protocol.arbiter`)."""
        replies: Dict[ServerId, tuple] = {}
        client = CLIENT_NODE_ID
        for server_id in self._delivery_order(quorum):
            self._check_server(server_id)
            if not self.network.send_sync(Message(client, server_id, "lock", message[:2])):
                continue
            reply = self.servers[server_id].handle_lock(message)
            if reply is not None and self.network.send_sync(
                Message(server_id, client, "lock-reply", reply[0])
            ):
                replies[server_id] = reply
        return replies

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
