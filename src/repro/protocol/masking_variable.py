"""The masking access protocol for arbitrary data (Section 5).

Without self-verifying data a reader cannot tell a fabricated reply from a
genuine one, so the read protocol requires each candidate value/timestamp
pair to be vouched for by at least ``k`` servers of the read quorum (step 3
of the Section 5 Read protocol), where ``k`` is the system's threshold
(``⌈q²/2n⌉`` for the paper's ``Rk(n, q)`` construction).  Among the pairs
that clear the threshold, the highest timestamp wins; if none does, the read
returns ⊥.

Theorem 5.2: for a read not concurrent with any write and at most ``b``
Byzantine failures, the read returns the last written value with probability
at least ``1 - ε``.  When it does not, the result is either stale/⊥ (too few
up-to-date correct servers were hit) or — only if at least ``k`` faulty
servers were hit — a fabricated value; :class:`MaskingReadOutcome` exposes
which of these happened so the Monte-Carlo harness can track both error
modes separately (they correspond to the two terms of Lemma 5.7/5.9).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ProtocolError
from repro.protocol.selection import ReadRule, SelectedValue
from repro.protocol.variable import ProbabilisticRegister, ReadOutcome
from repro.simulation.cluster import Cluster
from repro.types import Quorum


@dataclass(frozen=True)
class MaskingReadOutcome(ReadOutcome):
    """A read outcome annotated with the vote count that selected the value."""

    votes: int = 0
    threshold: int = 0

    @property
    def passed_threshold(self) -> bool:
        """Whether some value collected at least ``threshold`` matching votes."""
        return not self.is_empty and self.votes >= self.threshold

    @classmethod
    def from_selection(
        cls, selected: Optional[SelectedValue], quorum: Quorum, replies: int, threshold: int
    ) -> "MaskingReadOutcome":
        """The outcome of a threshold read, with the winner's votes (0 for ⊥)."""
        if selected is None:
            return cls(None, None, quorum, frozenset(), replies, 0, threshold)
        return cls(
            selected.value, selected.timestamp, quorum, selected.servers, replies,
            selected.votes, threshold,
        )


class MaskingRegister(ProbabilisticRegister):
    """Single-writer register for arbitrary data over a (b,ε)-masking system.

    The system must be a :class:`~repro.core.masking.ProbabilisticMaskingSystem`
    (or expose a compatible integer ``read_threshold``), because the read
    protocol is parameterised by the threshold ``k``: the register's rule
    needs ``>= k`` matching votes per pair, and among the pairs that clear
    it the highest timestamp wins.
    """

    outcome_type = MaskingReadOutcome

    def __init__(
        self,
        system: ProbabilisticMaskingSystem,
        cluster: Cluster,
        name: str = "x",
        writer_id: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not hasattr(system, "read_threshold"):
            raise ProtocolError(
                "MaskingRegister requires a masking quorum system with a read_threshold"
            )
        super().__init__(system, cluster, name=name, writer_id=writer_id, rng=rng)
        self.rule = ReadRule(threshold=int(system.read_threshold))

    @property
    def read_threshold(self) -> int:
        """The vote count ``⌈k⌉`` a value needs to be accepted."""
        return self.rule.threshold

    # read and classify_read are inherited from ProbabilisticRegister: all
    # register variants label outcomes through the shared classifier in
    # repro.protocol.classification ("fabricated" here is only possible when
    # at least k Byzantine servers were hit — the Lemma 5.7 event).
