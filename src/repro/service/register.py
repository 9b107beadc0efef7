"""The async register frontend: the three read protocols over the RPC client.

:class:`AsyncRegister` pairs an
:class:`~repro.service.client.AsyncQuorumClient` with one
:class:`~repro.protocol.selection.ReadRule` — the rule the synchronous
:class:`~repro.protocol.variable.ProbabilisticRegister` reads through — and
produces the *same* :class:`~repro.protocol.variable.ReadOutcome` /
:class:`~repro.protocol.variable.WriteOutcome` objects, labelled through
:mod:`repro.protocol.classification`, so an outcome observed by the live
service means exactly what it means to both Monte-Carlo engines.  The rule
is the protocol: ``ReadRule()`` is the benign Section 3.1 read,
``ReadRule(signatures=s)`` the Section 4 read (writes are signed and
unverifiable replies are discarded before selection) and
``ReadRule(threshold=k)`` the Section 5 read (a value/timestamp pair needs
at least ``k`` vouching votes from the read quorum).
:func:`async_register_for` builds the frontend of a declarative
:class:`~repro.simulation.scenario.ScenarioSpec` with the spec's
:meth:`~repro.simulation.scenario.ScenarioSpec.read_rule`, as the spec's
sequential ``register_factory`` does.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exceptions import ProtocolError
from repro.protocol.classification import classify_read_outcome
from repro.protocol.selection import ReadRule
from repro.protocol.timestamps import Timestamp, TimestampGenerator
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.client import AsyncQuorumClient, ReadRpcResult
from repro.simulation.scenario import ScenarioSpec


class AsyncRegister:
    """Single-writer multi-reader register frontend reading through ``rule``."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
        rule: ReadRule = ReadRule(),
    ) -> None:
        self.client = client
        self.name = str(name)
        self.rule = rule
        self._timestamps = TimestampGenerator(writer_id)
        self._last_written: Optional[WriteOutcome] = None
        self.writes_performed = 0
        self.reads_performed = 0
        #: Replies the rule's filter discarded (always 0 for unsigned rules).
        self.forged_replies_rejected = 0
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

    @property
    def last_write(self) -> Optional[WriteOutcome]:
        """The most recent write outcome (``None`` before the first write)."""
        return self._last_written

    async def write(self, value: Any) -> WriteOutcome:
        """Write ``value`` to a strategy-drawn quorum (repairing on failure)."""
        timestamp = self._timestamps.next()
        if self.on_issued is not None:
            self.on_issued(timestamp, value)
        result = await self.client.write(
            self.name, value, timestamp, self.rule.sign(self.name, value, timestamp)
        )
        self.last_trace = result.trace
        outcome = WriteOutcome(
            quorum=result.quorum,
            timestamp=timestamp,
            acknowledged=result.acknowledged,
        )
        self._last_written = outcome
        self.writes_performed += 1
        return outcome

    def _lagging_servers(self, result: ReadRpcResult, outcome: ReadOutcome) -> list:
        """Contacted servers that demonstrably (or plausibly) lack the value.

        Definite laggards — quorum members whose reply carried an *older*
        timestamp — come first so a small repair budget is spent where the
        lag is proven; quorum members with no value-bearing reply (empty
        copy, crashed, or silent) follow.  A reply whose timestamp does not
        compare against the settled one (a forgery the filter discarded) is
        never a repair target: anti-entropy propagates the settled value,
        it does not argue with Byzantine servers.
        """
        winning = outcome.reporting_servers
        stale: list = []
        unknown: list = []
        for server in sorted(result.quorum):
            if server in winning:
                continue
            stored = result.replies.get(server)
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

    def _piggyback_repair(self, result: ReadRpcResult, outcome: ReadOutcome) -> None:
        """Attach read-repair for this read's laggards to the next delivery."""
        if outcome.value is None or not outcome.reporting_servers:
            return
        lagging = self._lagging_servers(result, outcome)
        if not lagging:
            return
        # The payload is the winning record as a reporting server vouched for
        # it — signature included, so a dissemination replica re-verifies the
        # repair exactly as it would a write.
        donor = result.replies[next(iter(outcome.reporting_servers))]
        self.client.piggyback_repairs(
            self.name,
            outcome.value,
            outcome.timestamp,
            donor.signature,
            lagging,
            trace=result.trace,
        )

    async def read(self) -> ReadOutcome:
        """Read the register: the rule's filter, then highest timestamp wins."""
        result = await self.client.read(self.name, self.rule.threshold)
        self.reads_performed += 1
        self.last_trace = result.trace
        credible = self.rule.credible(self.name, result.replies)
        self.forged_replies_rejected += len(result.replies) - len(credible)
        selected = self.rule.select(credible)
        trace = result.trace
        if trace is not None:  # the read rule's inputs and verdict
            selection = trace.selection or {}
            selection.update(
                signed=self.rule.signatures is not None,
                threshold=self.rule.threshold,
                replies=len(result.replies),
                competing=len(credible),
                verdict="empty" if selected is None else "selected",
            )
            if selected is not None:
                selection["votes"] = selected.votes
            trace.selection = selection
        outcome = ReadOutcome.from_selection(
            selected, result.quorum, len(result.replies), self.rule.threshold
        )
        if self.client.repair_budget > 0:
            self._piggyback_repair(result, outcome)
        return outcome

    def classify_read(self, outcome: ReadOutcome) -> str:
        """Label a read against the last local write (shared classifier)."""
        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return classify_read_outcome(outcome, self._last_written)


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
