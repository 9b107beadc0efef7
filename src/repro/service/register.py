"""The register on the service: :class:`AsyncRegister`.

The protocol — timestamps, signing, the read rules of Sections 3.1, 4 and 5
and the outcomes — lives in :class:`~repro.protocol.register.RegisterClient`;
this module is its asyncio driver over one
:class:`~repro.service.client.AsyncQuorumClient`.  Each write and read
takes a quorum from the client's pool and runs a topping-up
:class:`~repro.protocol.quorum_op.QuorumOp` on
:meth:`~repro.service.client.AsyncQuorumClient.run` (a read with
``lazy_fallback`` settles a degraded first round holding the rule's
threshold of value-bearing replies), so an outcome observed by the live
service means exactly what it means to both Monte-Carlo engines.  With a
repair budget a settled read piggybacks read-repair to its quorum's
:meth:`~repro.protocol.register.RegisterClient.laggards`.
:func:`async_register_for` builds the frontend of a declarative
:class:`~repro.simulation.scenario.ScenarioSpec` with the spec's
:meth:`~repro.simulation.scenario.ScenarioSpec.read_rule`, as the spec's
sequential ``register_factory`` does.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exceptions import QuorumUnavailableError
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.register import ReadOutcome, RegisterClient, WriteOutcome
from repro.protocol.selection import ReadRule
from repro.protocol.timestamps import Timestamp
from repro.service.client import AsyncQuorumClient
from repro.simulation.scenario import ScenarioSpec


class AsyncRegister(RegisterClient):
    """Single-writer multi-reader register frontend reading through ``rule``."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
        rule: ReadRule = ReadRule(),
    ) -> None:
        super().__init__(name, writer_id, rule)
        self.client = client
        #: The :class:`~repro.obs.trace.QuorumTrace` of the most recent
        #: operation, when the client samples traces (``None`` otherwise).
        #: Callers annotate it in place: the load harness stamps the read's
        #: classification.
        self.last_trace: Optional[Any] = None
        #: Optional ``(timestamp, value)`` callback fired when a write is
        #: *issued*, before its RPCs fan out.  Concurrent observers (the load
        #: harness's safety accounting, a write-ahead log) need the pair the
        #: moment it can first reach a server, not when the write completes.
        self.on_issued: Optional[Callable[[Timestamp, Any], None]] = None

    async def write(self, value: Any) -> WriteOutcome:
        """Write ``value`` to a strategy-drawn quorum (repairing on failure).

        Raises :class:`~repro.exceptions.QuorumUnavailableError` only when no
        server at all acknowledged — short of that, missed servers are
        exactly the crash-misses the ε analysis accounts for, and the
        outcome's ``acknowledged`` (always a subset of its ``quorum``) says
        how many.  :attr:`last_trace` is the write's either way.
        """
        args = self.write_args(value)
        if self.on_issued is not None:
            self.on_issued(args[2], value)
        client = self.client
        op = QuorumOp(client.next_quorum(), client.system, client.rng, repair=True)
        self.last_trace = await client.run(op, "write", self.name, args)
        if not op.replies:
            # A write nobody stored must not be reported as complete.
            raise QuorumUnavailableError(
                f"write of {self.name!r}: none of the {len(op.quorum) + op.spares} "
                f"servers contacted acknowledged"
            )
        return self.write_outcome(op, args)

    async def read(self) -> ReadOutcome:
        """Read the register: the rule's filter, then highest timestamp wins.

        Never raises: with every reply missing the read returns ⊥, which is
        the protocol's own account of an unreachable quorum.
        """
        client = self.client
        lazy = self.rule.threshold if client.lazy_fallback else None
        op = QuorumOp(client.next_quorum(), client.system, client.rng, repair=True, lazy=lazy)
        self.last_trace = trace = await client.run(op, "read", self.name, (self.name,))
        outcome = self.read_outcome(op, trace)
        if client.repair_budget > 0:
            self._piggyback_repair(op, outcome, trace)
        return outcome

    def _piggyback_repair(self, op: QuorumOp, outcome: ReadOutcome, trace: Any = None) -> None:
        """Attach read-repair for the read ``op``'s laggards to the next delivery."""
        lagging = self.laggards(op, outcome)
        if not lagging:
            return
        # The payload is the winning record as a reporting server vouched for
        # it — signature included, so a dissemination replica re-verifies the
        # repair exactly as it would a write.
        donor = op.replies[next(iter(outcome.reporting_servers))]
        self.client.piggyback_repairs(
            self.name, outcome.value, outcome.timestamp, donor.signature, lagging, trace=trace
        )


def async_register_for(
    spec: ScenarioSpec,
    client: AsyncQuorumClient,
    name: str = "x",
    writer_id: Optional[int] = None,
) -> AsyncRegister:
    """Build the frontend of a scenario: its read rule, its writer identity.

    The async half of
    :meth:`repro.simulation.scenario.ScenarioSpec.register_factory`, so one
    declarative spec describes a Monte-Carlo experiment *and* a live
    service deployment with identical read semantics.  ``writer_id``
    overrides the spec's writer identity (contending writers of one
    scenario each bind their own); all writers share the spec's rule, so
    every writer's records verify under one dissemination scheme.
    """
    resolved_writer = spec.writer_id if writer_id is None else int(writer_id)
    return AsyncRegister(client, name=name, writer_id=resolved_writer, rule=spec.read_rule())
