"""The register of Sections 3.1, 4 and 5: one access protocol, three read rules.

A single writer and multiple readers share a replicated variable ``x``.  To
write, the client draws a quorum from the access strategy, picks a timestamp
larger than any it used before, and updates every server of the quorum.  To
read, the client draws a quorum, queries it, keeps the replies its
:class:`~repro.protocol.selection.ReadRule` believes, and returns the value
carrying the highest timestamp.  The paper's three protocols differ only in
that rule (a scenario's is
:meth:`~repro.simulation.scenario.ScenarioSpec.read_rule`):

* **Section 3.1** (``ReadRule()``): every reply competes.  Theorem 3.2: if
  a read is not concurrent with any write and only crash failures occur,
  the read returns the last written value with probability at least
  ``1 - ε``.
* **Section 4, self-verifying data** (``ReadRule(signatures=s)``): the
  writer signs each value/timestamp pair and readers discard replies whose
  signature does not verify (counted in ``forged_replies_rejected``).
  Theorem 4.2: with at most ``b`` Byzantine servers, a read not concurrent
  with any write returns the last written value with probability at least
  ``1 - ε``, the ε of the (b,ε)-dissemination system.  A Byzantine server
  can *suppress* its reply or *replay* an old, correctly signed value, but
  verification filters out any fabricated one, so only staleness — not
  corruption — is possible.  Readers hold the writer's scheme (in a real
  deployment, its public key); servers never see it.
* **Section 5, arbitrary data** (``ReadRule(threshold=k)``): a reader
  cannot tell a fabricated reply from a genuine one, so each candidate pair
  needs at least ``k`` vouching votes from the read quorum (step 3 of the
  Section 5 Read; ``k = ⌈q²/2n⌉`` for the paper's ``Rk(n, q)``), and the
  read returns ⊥ when no pair clears it.  Theorem 5.2: with at most ``b``
  Byzantine servers, a read not concurrent with any write returns the last
  written value with probability at least ``1 - ε``.  When it does not, the
  result is either stale/⊥ (too few up-to-date correct servers were hit)
  or — only if at least ``k`` faulty servers were hit — a fabricated value.
  These are the two terms of Lemma 5.7/5.9, and :class:`ReadOutcome`
  records the winner's ``votes`` and the rule's ``threshold`` so the
  Monte-Carlo harness can track them separately.

:class:`RegisterClient` is that protocol with no IO: it issues and signs
the write's arguments, and turns a finished
:class:`~repro.protocol.quorum_op.QuorumOp` into a :class:`WriteOutcome` or
a :class:`ReadOutcome`.  The drivers draw the quorum, build the op and move
its messages:

* :class:`~repro.protocol.variable.ProbabilisticRegister` (and its
  write-back subclass) on the sequential oracle's
  :meth:`~repro.simulation.cluster.Cluster.run`;
* :class:`~repro.service.register.AsyncRegister` on the service's
  :meth:`~repro.service.client.AsyncQuorumClient.run`;
* the interleaving explorer (:mod:`repro.simulation.explore`), one
  adversary-chosen delivery at a time.

The register purposely does *not* hide the probabilistic nature of the
guarantee: :class:`ReadOutcome` reports which servers contributed the chosen
value so that applications (and the Monte-Carlo harness) can distinguish a
fresh read from a stale one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.exceptions import ProtocolError
from repro.protocol.classification import classify_read_outcome
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.selection import ReadRule, SelectedValue
from repro.protocol.timestamps import Timestamp, TimestampGenerator
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
    """Result of a read: the chosen value, where it came from, and its votes.

    ``value is None`` together with ``is_empty`` means the read returned ⊥
    (no pair cleared the rule) — the "safe variable" analogue of an
    uninitialised register.  ``votes`` is how many servers vouched for the
    chosen pair (0 for ⊥) and ``threshold`` the rule's vote threshold.
    """

    value: Any
    timestamp: Optional[Timestamp]
    quorum: Quorum
    reporting_servers: frozenset
    replies: int
    votes: int = 0
    threshold: int = 1

    @property
    def is_empty(self) -> bool:
        """Whether the read obtained no value at all."""
        return self.timestamp is None

    @property
    def passed_threshold(self) -> bool:
        """Whether some value collected at least ``threshold`` matching votes."""
        return not self.is_empty and self.votes >= self.threshold

    @classmethod
    def from_selection(
        cls, selected: Optional[SelectedValue], quorum: Quorum, replies: int, threshold: int
    ) -> "ReadOutcome":
        """The outcome of a read whose rule chose ``selected`` (``None`` is ⊥)."""
        if selected is None:
            return cls(None, None, quorum, frozenset(), replies, 0, threshold)
        return cls(
            selected.value, selected.timestamp, quorum, selected.servers, replies,
            selected.votes, threshold,
        )


class RegisterClient:
    """The register protocol of the module docstring, without IO.

    ``name`` is the variable, ``writer_id`` is baked into this client's
    timestamps (a register is written through one generator: the
    single-writer assumption of Theorem 3.2) and ``rule`` is the read rule
    that signs writes and filters and selects replies.  A driver asks
    :meth:`write_args` for a write's arguments, runs ``"write"`` with them
    on an op and hands the finished op to :meth:`write_outcome`; a read
    runs ``"read"`` with ``(name,)`` and hands the op to
    :meth:`read_outcome`.
    """

    def __init__(self, name: str = "x", writer_id: int = 0, rule: ReadRule = ReadRule()) -> None:
        self.name = str(name)
        self.rule = rule
        self._timestamps = TimestampGenerator(writer_id)
        self._last_written: Optional[WriteOutcome] = None
        self.writes_performed = 0
        self.reads_performed = 0
        #: Replies the rule's filter discarded (always 0 for unsigned rules).
        self.forged_replies_rejected = 0

    @property
    def last_write(self) -> Optional[WriteOutcome]:
        """The most recent write outcome (``None`` before the first write)."""
        return self._last_written

    # -- write ------------------------------------------------------------------

    def write_args(self, value: Any, timestamp: Optional[Timestamp] = None) -> tuple:
        """The ``write`` arguments ``(name, value, timestamp, signature)``.

        ``timestamp`` defaults to a fresh one from this writer; a write-back
        passes the timestamp it read.  A signed rule signs the pair
        (Section 4).
        """
        if timestamp is None:
            timestamp = self._timestamps.next()
        return (self.name, value, timestamp, self.rule.sign(self.name, value, timestamp))

    def write_outcome(self, op: QuorumOp, args: tuple) -> WriteOutcome:
        """Record the write that ran ``args`` on the finished ``op``."""
        outcome = WriteOutcome(
            quorum=op.final_quorum, timestamp=args[2], acknowledged=frozenset(op.replies)
        )
        self._last_written = outcome
        self.writes_performed += 1
        return outcome

    # -- read -------------------------------------------------------------------

    @staticmethod
    def stored_replies(op: QuorumOp) -> Dict[ServerId, StoredValue]:
        """The op's value-bearing replies, in arrival order."""
        return {server: stored for server, stored in op.replies.items() if stored is not None}

    def credible(self, replies: Mapping[ServerId, StoredValue]) -> Mapping[ServerId, StoredValue]:
        """The replies the rule lets compete; the discarded ones are counted
        in :attr:`forged_replies_rejected`."""
        credible = self.rule.credible(self.name, replies)
        self.forged_replies_rejected += len(replies) - len(credible)
        return credible

    def read_outcome(self, op: QuorumOp, trace: Any = None) -> ReadOutcome:
        """Filter the finished read ``op``'s replies, then highest timestamp wins.

        Ties between distinct values at the winning timestamp — possible
        only under Byzantine failures — resolve by the rule's deterministic
        order, so the outcome never depends on reply order.  A sampled
        :class:`~repro.obs.trace.QuorumTrace` records the rule's inputs and
        verdict in its ``selection``.
        """
        rule = self.rule
        replies = self.stored_replies(op)
        credible = self.credible(replies)
        selected = rule.select(credible)
        self.reads_performed += 1
        if trace is not None:
            selection = trace.selection or {}
            selection.update(
                signed=rule.signatures is not None,
                threshold=rule.threshold,
                replies=len(replies),
                competing=len(credible),
                verdict="empty" if selected is None else "selected",
            )
            if selected is not None:
                selection["votes"] = selected.votes
            trace.selection = selection
        return ReadOutcome.from_selection(selected, op.final_quorum, len(replies), rule.threshold)

    def laggards(self, op: QuorumOp, outcome: ReadOutcome) -> List[ServerId]:
        """Servers of the read ``op``'s quorum that (demonstrably or plausibly)
        lack ``outcome``'s value: the read-repair targets.

        Definite laggards — members whose reply carried an *older*
        timestamp — come first so a small repair budget is spent where the
        lag is proven; members with no value-bearing reply (empty copy,
        crashed, or silent) follow.  A reply whose timestamp does not
        compare against the settled one (a forgery the filter discarded) is
        never a target: anti-entropy propagates the settled value, it does
        not argue with Byzantine servers.  ⊥ has no laggards.
        """
        winning = outcome.reporting_servers
        if outcome.is_empty or not winning:
            return []
        stale: List[ServerId] = []
        unknown: List[ServerId] = []
        for server in sorted(op.final_quorum):
            if server in winning:
                continue
            stored = op.replies.get(server)
            if stored is None:
                unknown.append(server)
                continue
            try:
                behind = stored.timestamp is None or stored.timestamp < outcome.timestamp
            except TypeError:
                continue
            if behind:
                stale.append(server)
        return stale + unknown

    # -- judging reads against the last write -------------------------------------

    def read_is_fresh(self, outcome: ReadOutcome) -> bool:
        """Whether a read outcome returned the most recently written value.

        Only meaningful on the writer's side (it compares against the last
        locally performed write); the Monte-Carlo consistency harness uses it
        to measure the empirical ``1 - ε``.
        """
        return outcome.timestamp == self._written().timestamp and not outcome.is_empty

    def classify_read(self, outcome: ReadOutcome) -> str:
        """Label a read against the last local write (Monte-Carlo helper).

        Returns one of :data:`repro.protocol.classification.OUTCOME_LABELS`
        (``"fresh"``, ``"stale"``, ``"empty"`` or ``"fabricated"``) via the
        shared classifier, so every read rule, every driver and the batched
        engine label outcomes identically.
        """
        return classify_read_outcome(outcome, self._written())

    def _written(self) -> WriteOutcome:
        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return self._last_written
