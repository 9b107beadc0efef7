"""The ε-intersecting access protocol of Section 3.1.

A single writer and multiple readers share a replicated variable ``x``.  To
write, the client draws a quorum from the access strategy, picks a timestamp
larger than any it used before, and updates every server of the quorum.  To
read, the client draws a quorum, queries it, and returns the value carrying
the highest timestamp.  Theorem 3.2: if a read is not concurrent with any
write and only crash failures occur, the read returns the last written value
with probability at least ``1 - ε``.

The register purposely does *not* hide the probabilistic nature of the
guarantee: :class:`ReadOutcome` reports which servers contributed the chosen
value so that applications (and the Monte-Carlo harness) can distinguish a
fresh read from a stale one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ProtocolError, QuorumUnavailableError
from repro.protocol.selection import ReadRule, SelectedValue
from repro.protocol.timestamps import Timestamp, TimestampGenerator
from repro.rngs import fresh_rng
from repro.simulation.cluster import Cluster
from repro.simulation.server import StoredValue
from repro.types import Quorum, ServerId


@dataclass(frozen=True)
class WriteOutcome:
    """Result of a write: the quorum used and the servers that acknowledged."""

    quorum: Quorum
    timestamp: Timestamp
    acknowledged: frozenset

    @property
    def ack_count(self) -> int:
        """How many servers acknowledged the write."""
        return len(self.acknowledged)


@dataclass(frozen=True)
class ReadOutcome:
    """Result of a read: the chosen value and where it came from.

    ``value is None`` together with ``is_empty`` means the read returned ⊥
    (no server replied with any value) — the "safe variable" analogue of an
    uninitialised register.
    """

    value: Any
    timestamp: Optional[Timestamp]
    quorum: Quorum
    reporting_servers: frozenset
    replies: int

    @property
    def is_empty(self) -> bool:
        """Whether the read obtained no value at all."""
        return self.timestamp is None

    @classmethod
    def from_selection(
        cls, selected: Optional[SelectedValue], quorum: Quorum, replies: int, threshold: int
    ) -> "ReadOutcome":
        """The outcome of a read whose rule chose ``selected`` (``None`` is ⊥).

        ``threshold`` is the rule's; outcome types that report it record it.
        """
        if selected is None:
            return cls(None, None, quorum, frozenset(), replies)
        return cls(selected.value, selected.timestamp, quorum, selected.servers, replies)


class ProbabilisticRegister:
    """Single-writer multi-reader register over an ε-intersecting system.

    Every variant reads through its :class:`~repro.protocol.selection.ReadRule`
    (the class attribute :attr:`rule`, the benign Section 3.1 rule here) and
    reports an :attr:`outcome_type`; the Section 4 and 5 registers only set
    those two.

    Parameters
    ----------
    system:
        The probabilistic quorum system; quorums are drawn from its access
        strategy (the paper stresses the strategy must be followed for the ε
        guarantee to hold).
    cluster:
        The server cluster the register is replicated on.
    name:
        The variable name (one cluster can host many registers).
    writer_id:
        Identifier baked into timestamps; a single register must only ever
        be written through one generator (the single-writer assumption of
        Theorem 3.2), which this class enforces.
    rng:
        Random source for quorum sampling; seed it for reproducible runs.
    """

    rule: ReadRule = ReadRule()
    outcome_type = ReadOutcome

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        cluster: Cluster,
        name: str = "x",
        writer_id: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if system.n != cluster.n:
            raise ProtocolError(
                f"quorum system is over {system.n} servers but the cluster has {cluster.n}"
            )
        self.system = system
        self.cluster = cluster
        self.name = str(name)
        self.rng = rng or fresh_rng()
        self._timestamps = TimestampGenerator(writer_id)
        self._last_written: Optional[WriteOutcome] = None
        self.writes_performed = 0
        self.reads_performed = 0
        #: Replies the rule's filter discarded (always 0 for unsigned rules).
        self.forged_replies_rejected = 0

    # -- write ------------------------------------------------------------------

    @property
    def last_write(self) -> Optional[WriteOutcome]:
        """The most recent write outcome (``None`` before the first write)."""
        return self._last_written

    def _choose_quorum(self) -> Quorum:
        return self.system.sample_quorum(self.rng)

    def write(self, value: Any) -> WriteOutcome:
        """Write ``value`` to a strategy-drawn quorum (Sections 3.1 and 4, Write).

        The write is considered complete once the chosen quorum has been
        contacted; crashed servers simply miss the update, which is exactly
        the behaviour the ε analysis accounts for.  A signed rule signs the
        pair first (Section 4).
        """
        quorum = self._choose_quorum()
        timestamp = self._timestamps.next()
        signature = self.rule.sign(self.name, value, timestamp)
        acks = self.cluster.write_quorum(quorum, self.name, value, timestamp, signature=signature)
        outcome = WriteOutcome(
            quorum=quorum, timestamp=timestamp, acknowledged=frozenset(acks)
        )
        self._last_written = outcome
        self.writes_performed += 1
        return outcome

    # -- read -------------------------------------------------------------------

    def _collect(self, quorum: Quorum) -> Dict[ServerId, StoredValue]:
        return self.cluster.read_quorum(quorum, self.name)

    def read(self) -> ReadOutcome:
        """Read the register: filter the replies, then highest timestamp wins.

        The register's :attr:`rule` decides which replies are credible
        (Section 4 discards unverifiable ones) and how many votes a pair
        needs (Section 5).  Ties between distinct values at the winning
        timestamp — possible only under Byzantine failures — resolve by the
        rule's deterministic order, so the outcome never depends on reply
        iteration order.
        """
        quorum = self._choose_quorum()
        replies = self._collect(quorum)
        self.reads_performed += 1
        credible = self.rule.credible(self.name, replies)
        self.forged_replies_rejected += len(replies) - len(credible)
        return self.outcome_type.from_selection(
            self.rule.select(credible), quorum, len(replies), self.rule.threshold
        )

    def read_is_fresh(self, outcome: ReadOutcome) -> bool:
        """Whether a read outcome returned the most recently written value.

        Only meaningful on the writer's side (it compares against the last
        locally performed write); the Monte-Carlo consistency harness uses it
        to measure the empirical ``1 - ε``.
        """
        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return (
            outcome.timestamp == self._last_written.timestamp
            and not outcome.is_empty
        )

    def classify_read(self, outcome: ReadOutcome) -> str:
        """Label a read against the last local write (Monte-Carlo helper).

        Returns one of :data:`repro.protocol.classification.OUTCOME_LABELS`
        (``"fresh"``, ``"stale"``, ``"empty"`` or ``"fabricated"``) via the
        shared classifier, so every register variant — and the batched
        engine — labels outcomes identically.
        """
        from repro.protocol.classification import classify_read_outcome

        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return classify_read_outcome(outcome, self._last_written)
