"""A read-repair ("write-back") register built from the safe-variable protocol.

The paper notes that richer replicated objects — atomic variables in the
style of Lamport and Israeli-Shaham — can be built from the basic
probabilistic variable.  The classical ingredient is the *write-back*: after
a read determines the freshest value, the reader writes that value (with its
original timestamp) back to a quorum before returning it.  Two benefits:

* the freshest value ends up replicated on the union of the original write
  quorum and every subsequent read quorum, so the probability that a later
  read misses it decays with every access (a protocol-level analogue of the
  gossip diffusion of §1.1);
* in the single-writer setting it approximates the "reads never appear to go
  backwards" property of an atomic register: once a read has returned
  version ``t``, a subsequent non-concurrent read misses version ``t`` only
  if its quorum misses the (now much larger) replica set.

The cost is the obvious one: every read also pays a write-quorum access, so
the load doubles.  :class:`WriteBackRegister` keeps the trade-off explicit
with a per-register counter of back-written values.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.protocol.selection import ReadRule
from repro.protocol.variable import ProbabilisticRegister, ReadOutcome
from repro.simulation.cluster import Cluster


class WriteBackRegister(ProbabilisticRegister):
    """Single-writer register whose readers repair the replicas they read from.

    The write protocol is unchanged from
    :class:`~repro.protocol.variable.ProbabilisticRegister`; the read
    protocol adds step 5: write the chosen value/timestamp back to a freshly
    drawn quorum (keeping the *writer's* timestamp, so the single-writer
    ordering is preserved).  ``rule`` is the read rule, as for
    :class:`~repro.protocol.variable.ProbabilisticRegister`; a signed rule
    signs the written-back pair as the writer did.
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
        super().__init__(system, cluster, name=name, writer_id=writer_id, rng=rng, rule=rule)
        self.write_backs_performed = 0

    def read(self) -> ReadOutcome:
        """Read, then propagate the chosen value to another quorum (read repair)."""
        outcome = super().read()
        if not outcome.is_empty:
            self._send(
                self._choose_quorum(), outcome.value, outcome.timestamp,
                self.rule.sign(self.name, outcome.value, outcome.timestamp),
            )
            self.write_backs_performed += 1
        return outcome

    def replicas_holding_latest(self) -> int:
        """How many servers currently store the last written value (test/metric helper).

        Useful for demonstrating the point of the write-back: the count grows
        with every read instead of staying frozen at the original write
        quorum.
        """
        if self.last_write is None:
            return 0
        count = 0
        for server in self.cluster.servers:
            stored = server.storage.get(self.name)
            if stored is not None and stored.timestamp == self.last_write.timestamp:
                count += 1
        return count
