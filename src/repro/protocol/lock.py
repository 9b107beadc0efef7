"""Quorum locks on the simulated cluster (the Phalanx-style building block of §1.1).

The paper builds locks directly on probabilistic quorums ("e.g., locks
[MR98b]").  :class:`QuorumLock` is that lock on a synchronous
:class:`~repro.simulation.cluster.Cluster`, a thin driver over the pure
protocol of :mod:`repro.protocol.arbiter`.  :meth:`QuorumLock.acquire` is
one try: a request to a strategy-drawn quorum, topped up past silent
members and confirmed over each repaired quorum, granted when every member
grants; a refused try releases what it was granted.  A release is re-sent
to every arbiter that has not acknowledged it.
:meth:`QuorumLock.holder` reads the arbiters' grants through the read
rule.  Two clients both win only when their quorums share no correct
arbiter: the ε of :class:`~repro.protocol.arbiter.LockArbiter`.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.protocol.arbiter import HOLDER, LockAttempt, LockClient, LockOp
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.rngs import fresh_rng
from repro.simulation.cluster import Cluster
from repro.types import ServerId


class QuorumLock(LockClient):
    """A lock replicated over a probabilistic quorum system.

    Parameters
    ----------
    system:
        Any probabilistic quorum system.  A ``read_threshold`` attribute
        (masking systems) is honoured by :meth:`holder`; otherwise a single
        vouching server suffices to believe a grant.
    cluster:
        The replica cluster whose servers arbitrate the lock.
    name:
        Lock name; one cluster can host many locks.
    signatures:
        Optional signature scheme making grant records self-verifying
        (Byzantine servers can then suppress but not fabricate holders).
    rng:
        Random source of the quorums and top-up spares.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        cluster: Cluster,
        name: str = "lock",
        signatures: Optional[SignatureScheme] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if system.n != cluster.n:
            raise ConfigurationError(
                f"quorum system is over {system.n} servers but the cluster has {cluster.n}"
            )
        super().__init__(
            name,
            ReadRule(threshold=int(getattr(system, "read_threshold", 1)), signatures=signatures),
        )
        self.system = system
        self.cluster = cluster
        self.rng = rng or fresh_rng()
        self._held: Dict[int, LockOp] = {}
        self.acquisitions = 0

    def holder(self) -> Optional[int]:
        """The client a fresh quorum of arbiters reports as holding the lock."""
        quorum = QuorumOp(self.system.sample_quorum(self.rng), self.system, self.rng, repair=True)
        return self.holder_of(self.cluster.run(quorum, "lock", (HOLDER, self.variable)).replies)

    def acquire(self, client_id: int) -> LockAttempt:
        """Try once to acquire the lock for ``client_id``.

        Granted when every member of the (topped-up) quorum grants; with
        probability at most ε a concurrent holder's quorum shares no
        correct arbiter with this one and two clients hold at once.
        """
        if client_id < 0:
            raise ProtocolError("client ids must be non-negative")
        if client_id in self._held:
            raise ProtocolError(f"client {client_id} already holds lock {self.name!r}")
        lock = self.begin(client_id, self.system.sample_quorum(self.rng))
        for op, message in self.try_rounds(lock, self.system, self.rng):
            self.cluster.run(op, "lock", message)
        if lock.held:
            self._held[client_id] = lock
            self.acquisitions += 1
        else:
            self._release(lock)
        return lock.attempt(self.name)

    def _release(self, lock: LockOp) -> FrozenSet[ServerId]:
        for op, message in self.release_rounds(lock):
            self.cluster.run(op, "lock", message)
        return frozenset(lock.unreleased)

    def release(self, client_id: int) -> FrozenSet[ServerId]:
        """Release the lock held by ``client_id``; return the arbiters that
        never acknowledged.  :class:`ProtocolError` if it does not hold it."""
        lock = self._held.pop(client_id, None)
        if lock is None:
            raise ProtocolError(f"client {client_id} does not hold lock {self.name!r}")
        return self._release(lock)
