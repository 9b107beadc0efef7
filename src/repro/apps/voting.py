"""Voter-ID locking, modelled on the Costa Rica electronic voting system.

Section 1.1 of the paper: each voter holds a unique voter ID and may present
it at any of over a thousand voting stations; to preserve election integrity
it suffices that *repeat* use of an ID is detected with high probability, so
a probabilistic quorum protocol locks IDs country-wide.  Using dissemination
or masking constructions keeps the lock meaningful even when some stations
(replica servers here) have been tampered with, while the probabilistic
relaxation keeps the election going despite benign failures of many
stations.

The service exposes one operation, :meth:`VotingService.cast_vote`:

1. draw a quorum from the system's strategy and read the voter's lock
   variable;
2. if a lock is visible (and, in masking mode, vouched for by at least ``k``
   servers), reject the ballot as a duplicate;
3. otherwise write a lock record (signed, in dissemination mode) to a
   strategy-drawn quorum and accept the ballot.

A duplicate is *admitted* only when the second attempt's read quorum misses
every server of the first attempt's write quorum — exactly the ε event of
the underlying system — so over ``r`` repeat attempts the probability that
all are admitted decays like ``ε^r`` ("numerous repeat attempts will be
detected with virtual certainty").
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError, ProtocolError
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.types import Quorum


@dataclass(frozen=True)
class VoteOutcome:
    """Result of presenting a voter ID at a station."""

    voter_id: str
    station_id: int
    accepted: bool
    duplicate_detected: bool
    read_quorum: Quorum
    write_quorum: Optional[Quorum]

    @property
    def rejected(self) -> bool:
        """Whether the ballot was refused (duplicate detected)."""
        return not self.accepted


@dataclass
class ElectionAudit:
    """Post-election audit statistics."""

    ballots_presented: int
    ballots_accepted: int
    duplicates_rejected: int
    duplicates_admitted: int
    distinct_voters_accepted: int

    @property
    def repeat_admission_rate(self) -> float:
        """Fraction of *repeat* attempts that slipped through undetected."""
        repeats = self.duplicates_rejected + self.duplicates_admitted
        return self.duplicates_admitted / repeats if repeats else 0.0


class VotingService:
    """Country-wide voter-ID locking over a probabilistic quorum system.

    Parameters
    ----------
    system:
        Any probabilistic quorum system.  If it exposes a ``read_threshold``
        (a masking system), lock reads require that many matching votes; if
        ``signatures`` is supplied, lock records are signed and unverifiable
        replies are ignored (dissemination mode); otherwise plain
        ε-intersecting reads are used.
    cluster:
        The replica cluster holding the lock state (the "voting stations").
    signatures:
        Election-authority signature scheme for self-verifying lock records.
    rng:
        Random source for quorum sampling.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        cluster: Cluster,
        signatures: Optional[SignatureScheme] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if system.n != cluster.n:
            raise ConfigurationError(
                f"quorum system is over {system.n} servers but the cluster has {cluster.n}"
            )
        self.system = system
        self.cluster = cluster
        self.signatures = signatures
        self.rule = ReadRule(
            threshold=int(getattr(system, "read_threshold", 1)), signatures=signatures
        )
        self.rng = rng or random.Random()
        self._accepted_by_voter: Counter = Counter()
        self._ballots_presented = 0
        self._duplicates_rejected = 0
        self._station_counters: Dict[int, int] = {}

    # -- lock variable helpers ----------------------------------------------------

    @staticmethod
    def _lock_variable(voter_id: str) -> str:
        return f"voter-lock:{voter_id}"

    @property
    def read_threshold(self) -> int:
        """Votes a lock record needs to count as 'seen' (1 unless masking)."""
        return self.rule.threshold

    def _next_timestamp(self, station_id: int) -> Timestamp:
        counter = self._station_counters.get(station_id, 0) + 1
        self._station_counters[station_id] = counter
        return Timestamp(counter, writer_id=station_id)

    def _read_lock(self, voter_id: str) -> tuple:
        """Return ``(locked, quorum)``: locked when some credible record clears the threshold."""
        variable = self._lock_variable(voter_id)
        quorum = self.system.sample_quorum(self.rng)
        replies = self.cluster.run(QuorumOp(quorum), "read", (variable,)).replies
        records = {server: stored for server, stored in replies.items() if stored is not None}
        locked = bool(self.rule.enumerate(self.rule.credible(variable, records)))
        return locked, quorum

    def _write_lock(self, voter_id: str, station_id: int) -> Quorum:
        variable = self._lock_variable(voter_id)
        quorum = self.system.sample_quorum(self.rng)
        timestamp = self._next_timestamp(station_id)
        value = {"station": station_id, "voter": voter_id}
        signature = self.rule.sign(variable, value, timestamp)
        self.cluster.run(QuorumOp(quorum), "write", (variable, value, timestamp, signature))
        return quorum

    # -- public operations ----------------------------------------------------------

    def has_voted(self, voter_id: str) -> bool:
        """Read-only check of the voter's lock (subject to the same ε guarantee)."""
        locked, _ = self._read_lock(voter_id)
        return locked

    def cast_vote(self, voter_id: str, station_id: int) -> VoteOutcome:
        """Present ``voter_id`` at ``station_id``; lock it if it is not locked yet."""
        if not voter_id:
            raise ProtocolError("voter ids must be non-empty strings")
        self._ballots_presented += 1
        locked, read_quorum = self._read_lock(voter_id)
        if locked:
            self._duplicates_rejected += 1
            return VoteOutcome(
                voter_id=voter_id,
                station_id=station_id,
                accepted=False,
                duplicate_detected=True,
                read_quorum=read_quorum,
                write_quorum=None,
            )
        write_quorum = self._write_lock(voter_id, station_id)
        self._accepted_by_voter[voter_id] += 1
        return VoteOutcome(
            voter_id=voter_id,
            station_id=station_id,
            accepted=True,
            duplicate_detected=False,
            read_quorum=read_quorum,
            write_quorum=write_quorum,
        )

    # -- auditing ---------------------------------------------------------------------

    def audit(self) -> ElectionAudit:
        """Summarise the election: how many duplicates were caught vs. admitted."""
        accepted = sum(self._accepted_by_voter.values())
        duplicates_admitted = sum(
            count - 1 for count in self._accepted_by_voter.values() if count > 1
        )
        return ElectionAudit(
            ballots_presented=self._ballots_presented,
            ballots_accepted=accepted,
            duplicates_rejected=self._duplicates_rejected,
            duplicates_admitted=duplicates_admitted,
            distinct_voters_accepted=len(self._accepted_by_voter),
        )

    def double_voters(self) -> Set[str]:
        """Voter IDs that managed to cast more than one accepted ballot."""
        return {voter for voter, count in self._accepted_by_voter.items() if count > 1}
