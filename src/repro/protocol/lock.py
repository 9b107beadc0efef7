"""Quorum-based advisory locks (the Phalanx-style building block of §1.1).

The paper's first application — voter-ID locking — is really a *lock service*
built directly on probabilistic quorums ("other replicated data objects can
be constructed either using probabilistic quorum systems directly (e.g.,
locks [MR98b]) ...").  This module provides that building block as a
reusable object:

* :meth:`QuorumLock.acquire` reads the lock variable at a strategy-drawn
  quorum; if no (sufficiently vouched-for) holder is visible it writes an
  acquisition record to another strategy-drawn quorum and reports success;
* :meth:`QuorumLock.release` writes a release record with a newer timestamp;
* with probability at most ε two concurrent acquirers can both think they won
  (their quorums failed to intersect) — the lock is therefore *advisory*
  with a quantified violation probability, exactly the semantics the voting
  application needs ("it suffices for each repeated use ... to be detected
  with high probability").

The reader-side rule adapts to the quorum system: a masking system's
``read_threshold`` is honoured, and if a signature scheme is supplied the
acquisition records are self-verifying (dissemination setting).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.protocol.selection import ReadRule, selection_order
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.rngs import fresh_rng
from repro.simulation.cluster import Cluster
from repro.types import Quorum


@dataclass(frozen=True)
class LockAttempt:
    """Result of an acquire or release attempt."""

    lock_name: str
    client_id: int
    acquired: bool
    holder_seen: Optional[int]
    read_quorum: Quorum
    write_quorum: Optional[Quorum]


class QuorumLock:
    """An advisory lock replicated over a probabilistic quorum system.

    Parameters
    ----------
    system:
        Any probabilistic quorum system.  A ``read_threshold`` attribute
        (masking systems) is honoured; otherwise a single vouching server
        suffices to believe a lock record.
    cluster:
        The replica cluster storing the lock state.
    name:
        Lock name; one cluster can host many locks.
    signatures:
        Optional signature scheme making lock records self-verifying
        (Byzantine servers can then suppress but not fabricate holders).
    rng:
        Random source for quorum sampling.
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
        if not name:
            raise ConfigurationError("lock names must be non-empty")
        self.system = system
        self.cluster = cluster
        self.name = str(name)
        self.signatures = signatures
        self.rule = ReadRule(
            threshold=int(getattr(system, "read_threshold", 1)), signatures=signatures
        )
        self.rng = rng or fresh_rng()
        self._client_counters: Dict[int, int] = {}
        self._highest_seen_counter = 0
        # Per-holder release fence: the newest release timestamp this lock
        # object *knows* about for each client — from its own release writes
        # and from released records seen at read quorums.  A held record
        # older than the same holder's known release is provably superseded,
        # so a read quorum made entirely of lagging replicas must not
        # resurrect it as a phantom holder.  The fence is per holder (a
        # release says nothing about *another* client's grant), and held
        # records are never cached: a newer holder must still be discovered
        # (or missed, with probability ε) through the quorum read itself.
        self._release_fence: Dict[int, Timestamp] = {}
        self.acquire_attempts = 0
        self.acquisitions = 0
        self.releases = 0

    # -- internals ---------------------------------------------------------------

    @property
    def _variable(self) -> str:
        return f"quorum-lock:{self.name}"

    @property
    def read_threshold(self) -> int:
        """Vouching servers required to believe a lock record (1 unless masking)."""
        return self.rule.threshold

    def _next_timestamp(self, client_id: int) -> Timestamp:
        # Lock records from different clients must stay totally ordered, so a
        # new record outranks both this client's own history and the highest
        # timestamp observed at any read quorum (Lamport-clock style).
        counter = max(self._client_counters.get(client_id, 0), self._highest_seen_counter) + 1
        self._client_counters[client_id] = counter
        return Timestamp(counter, writer_id=client_id)

    def _observe(self) -> Tuple[Optional[Dict[str, Any]], Quorum]:
        """Read the lock variable; return the winning record (or None) and the quorum.

        The winner is the rule's choice among the credible lock records the
        release fence leaves — timestamp, then votes, then the value's
        tie-break key — so two records tied at one timestamp resolve the
        same way whatever order their replies arrive in.
        """
        quorum = self.system.sample_quorum(self.rng)
        replies = self.cluster.read_quorum(quorum, self._variable)
        records = {
            server: stored
            for server, stored in self.rule.credible(self._variable, replies).items()
            if isinstance(stored.timestamp, Timestamp)
            and isinstance(stored.value, dict)
            and "state" in stored.value
        }
        for stored in records.values():
            if stored.timestamp.counter > self._highest_seen_counter:
                self._highest_seen_counter = stored.timestamp.counter
        eligible = self.rule.enumerate(records)
        for record in eligible:
            if record.value.get("state") == "released" and "holder" in record.value:
                self._observe_release(int(record.value["holder"]), record.timestamp)
        # Drop held records that the same holder's known release outranks —
        # stale replies from lagging replicas, not live acquisitions.
        eligible = [
            record
            for record in eligible
            if not self._is_fenced(record.value, record.timestamp)
        ]
        if not eligible:
            return None, quorum
        return max(eligible, key=selection_order).value, quorum

    def _observe_release(self, holder: int, timestamp: Timestamp) -> None:
        current = self._release_fence.get(holder)
        if current is None or current < timestamp:
            self._release_fence[holder] = timestamp

    def _is_fenced(self, record: Dict[str, Any], timestamp: Timestamp) -> bool:
        if record.get("state") != "held" or "holder" not in record:
            return False
        fence = self._release_fence.get(int(record["holder"]))
        return fence is not None and timestamp < fence

    def _record(self, client_id: int, state: str) -> Quorum:
        quorum = self.system.sample_quorum(self.rng)
        timestamp = self._next_timestamp(client_id)
        value = {"state": state, "holder": client_id}
        signature = self.rule.sign(self._variable, value, timestamp)
        self.cluster.write_quorum(quorum, self._variable, value, timestamp, signature=signature)
        if state == "released":
            self._observe_release(client_id, timestamp)
        return quorum

    # -- public operations --------------------------------------------------------

    def holder(self) -> Optional[int]:
        """The client currently believed (by a fresh quorum read) to hold the lock."""
        record, _ = self._observe()
        if record is None or record.get("state") != "held":
            return None
        return int(record["holder"])

    def acquire(self, client_id: int) -> LockAttempt:
        """Try to acquire the lock for ``client_id``.

        Succeeds when no held record is visible at the read quorum; with
        probability at most ε a concurrent holder's write quorum is missed
        and two clients acquire simultaneously.
        """
        if client_id < 0:
            raise ProtocolError("client ids must be non-negative")
        self.acquire_attempts += 1
        record, read_quorum = self._observe()
        if record is not None and record.get("state") == "held":
            return LockAttempt(
                lock_name=self.name,
                client_id=client_id,
                acquired=False,
                holder_seen=int(record["holder"]),
                read_quorum=read_quorum,
                write_quorum=None,
            )
        write_quorum = self._record(client_id, "held")
        self.acquisitions += 1
        return LockAttempt(
            lock_name=self.name,
            client_id=client_id,
            acquired=True,
            holder_seen=None,
            read_quorum=read_quorum,
            write_quorum=write_quorum,
        )

    def release(self, client_id: int) -> LockAttempt:
        """Release the lock held by ``client_id``.

        Releasing a lock the client does not (appear to) hold raises
        :class:`ProtocolError`; the check is itself a quorum read and thus
        also subject to ε.
        """
        record, read_quorum = self._observe()
        if record is None or record.get("state") != "held" or int(record["holder"]) != client_id:
            raise ProtocolError(
                f"client {client_id} does not appear to hold lock {self.name!r}"
            )
        write_quorum = self._record(client_id, "released")
        self.releases += 1
        return LockAttempt(
            lock_name=self.name,
            client_id=client_id,
            acquired=False,
            holder_seen=client_id,
            read_quorum=read_quorum,
            write_quorum=write_quorum,
        )
