"""The dissemination access protocol for self-verifying data (Section 4).

With up to ``b`` Byzantine servers but *self-verifying* data, the write
protocol of Section 3.1 is unchanged except that the writer signs each
value/timestamp pair; the read protocol additionally discards replies whose
signature does not verify before picking the highest timestamp.
Theorem 4.2: for a read not concurrent with any write and at most ``b``
Byzantine failures, the read returns the last written value with probability
at least ``1 - ε`` (the ε of the (b,ε)-dissemination system).

The key point the implementation makes explicit: a Byzantine server can
*suppress* its reply or *replay* an old (correctly signed) value, but any
fabricated value is filtered out by verification, so only staleness — not
corruption — is possible.  Both halves live in the register's signed
:class:`~repro.protocol.selection.ReadRule`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.cluster import Cluster


class DisseminationRegister(ProbabilisticRegister):
    """Single-writer register for self-verifying data over a (b,ε)-dissemination system.

    Writes are signed and unverifiable replies are discarded before
    selection (counted in ``forged_replies_rejected``).  Verification leaves
    only honestly signed pairs, which cannot disagree at a given timestamp
    (the writer signs one value per timestamp).

    Parameters
    ----------
    system, cluster, name, writer_id, rng:
        As for :class:`~repro.protocol.variable.ProbabilisticRegister`.
    signatures:
        The writer's signature scheme.  Readers use the same instance (in a
        real deployment they would hold the writer's *public* key); servers
        never see it.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        cluster: Cluster,
        signatures: Optional[SignatureScheme] = None,
        name: str = "x",
        writer_id: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(system, cluster, name=name, writer_id=writer_id, rng=rng)
        self.signatures = signatures or SignatureScheme()
        self.rule = ReadRule(signatures=self.signatures)
