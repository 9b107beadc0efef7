"""The register on the sequential oracle: :class:`ProbabilisticRegister`.

The protocol itself — timestamps, signing, the read rules of Sections 3.1,
4 and 5 and the outcomes — lives in :mod:`repro.protocol.register`; this
module is its synchronous driver.  Each write and read draws a quorum from
the access strategy and runs one round of a
:class:`~repro.protocol.quorum_op.QuorumOp` on
:meth:`~repro.simulation.cluster.Cluster.run`, with no top-up: crashed
members simply miss the update.  So the oracle runs the closed form of the
*drawn* quorum, which under crashes is not the ε the analysis states for a
write that reaches a whole quorum.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ProtocolError
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.register import ReadOutcome, RegisterClient, WriteOutcome
from repro.protocol.selection import ReadRule
from repro.rngs import fresh_rng
from repro.simulation.cluster import Cluster

__all__ = ["ProbabilisticRegister", "ReadOutcome", "WriteOutcome"]


class ProbabilisticRegister(RegisterClient):
    """Single-writer multi-reader register over a probabilistic quorum system.

    One class serves the three protocols of :mod:`repro.protocol.register`:
    the :class:`~repro.protocol.selection.ReadRule` passed as ``rule`` is
    the only difference between them.

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
    rule:
        The read rule: ``ReadRule()`` (Section 3.1, the default),
        ``ReadRule(signatures=s)`` (Section 4) or ``ReadRule(threshold=k)``
        (Section 5).
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        cluster: Cluster,
        name: str = "x",
        writer_id: int = 0,
        rng: Optional[random.Random] = None,
        rule: ReadRule = ReadRule(),
    ) -> None:
        if system.n != cluster.n:
            raise ProtocolError(
                f"quorum system is over {system.n} servers but the cluster has {cluster.n}"
            )
        super().__init__(name, writer_id, rule)
        self.system = system
        self.cluster = cluster
        self.rng = rng or fresh_rng()

    def _op(self) -> QuorumOp:
        """One round over a strategy-drawn quorum."""
        return QuorumOp(self.system.sample_quorum(self.rng))

    def write(self, value: Any) -> WriteOutcome:
        """Write ``value`` to a strategy-drawn quorum (Sections 3.1 and 4, Write)."""
        op = self._op()
        args = self.write_args(value)
        return self.write_outcome(self.cluster.run(op, "write", args), args)

    def read(self) -> ReadOutcome:
        """Read the register: the rule's filter, then highest timestamp wins."""
        return self.read_outcome(self.cluster.run(self._op(), "read", (self.name,)))
