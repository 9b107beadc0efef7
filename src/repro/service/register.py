"""Async register frontends: the three read protocols over the RPC client.

Each frontend pairs an :class:`~repro.service.client.AsyncQuorumClient`
with one :class:`~repro.protocol.selection.ReadRule` — the rule the
synchronous registers read through — and produces the *same*
:class:`~repro.protocol.variable.ReadOutcome` /
:class:`~repro.protocol.variable.WriteOutcome` objects, labelled through
:mod:`repro.protocol.classification` — so an outcome observed by the live
service means exactly what it means to both Monte-Carlo engines.

* :class:`AsyncRegister` — the benign Section 3.1 read (any reply competes);
* :class:`AsyncDisseminationRegister` — Section 4: writes are signed and
  unverifiable replies are discarded before selection;
* :class:`AsyncMaskingRegister` — Section 5: a value/timestamp pair needs at
  least ``k`` vouching votes from the read quorum.

The three classes differ only in the rule (and outcome type) they set;
writing, reading, enumerating and tracing are :class:`AsyncRegister`'s.
:func:`async_register_for` resolves the frontend from a declarative
:class:`~repro.simulation.scenario.ScenarioSpec`, mirroring the spec's
sequential ``register_factory`` lowering.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exceptions import ProtocolError
from repro.protocol.classification import classify_read_outcome
from repro.protocol.masking_variable import MaskingReadOutcome
from repro.protocol.selection import ReadRule, SelectedValue
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp, TimestampGenerator
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.client import AsyncQuorumClient, ReadRpcResult
from repro.simulation.scenario import ScenarioSpec


class AsyncRegister:
    """Single-writer multi-reader register frontend (Section 3.1, async)."""

    rule: ReadRule = ReadRule()
    outcome_type = ReadOutcome

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        self.client = client
        self.name = str(name)
        self._timestamps = TimestampGenerator(writer_id)
        self._last_written: Optional[WriteOutcome] = None
        self.writes_performed = 0
        self.reads_performed = 0
        #: Replies the rule's filter discarded (always 0 for unsigned rules).
        self.forged_replies_rejected = 0
        #: The :class:`~repro.obs.trace.QuorumTrace` of the most recent
        #: operation, when the client samples traces (``None`` otherwise).
        #: Callers annotate it in place — the load harness stamps the read's
        #: classification, the lock service its protocol step.
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

    async def _read_credible_replies(self) -> tuple:
        """One quorum read: the RPC result and the replies the rule believes."""
        result = await self.client.read(self.name)
        self.reads_performed += 1
        self.last_trace = result.trace
        credible = self.rule.credible(self.name, result.replies)
        self.forged_replies_rejected += len(result.replies) - len(credible)
        return result, credible

    def _annotate_selection(
        self,
        result: ReadRpcResult,
        competing: int,
        verdict: str,
        selected: Optional[SelectedValue] = None,
    ) -> None:
        """Record the read rule's inputs and verdict on the sampled trace."""
        trace = result.trace
        if trace is None:
            return
        selection = trace.selection or {}
        selection.update(
            rule=type(self).__name__,
            threshold=self.rule.threshold,
            replies=len(result.replies),
            competing=competing,
            verdict=verdict,
        )
        if selected is not None:
            selection["votes"] = selected.votes
        trace.selection = selection

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
        result, credible = await self._read_credible_replies()
        selected = self.rule.select(credible)
        verdict = "empty" if selected is None else "selected"
        self._annotate_selection(result, len(credible), verdict, selected)
        outcome = self.outcome_type.from_selection(
            selected, result.quorum, len(result.replies), self.rule.threshold
        )
        if self.client.repair_budget > 0:
            self._piggyback_repair(result, outcome)
        return outcome

    async def read_credible(self) -> list:
        """Read the register but return *every* credible record, winner included.

        Applies the rule's reply filter and vote threshold exactly as
        :meth:`read`, without collapsing to the highest timestamp.  The lock
        service needs the losing records: a competing holder's older record
        never wins selection against the reader's own newer write, yet it
        still means the lock is contested.
        """
        result, credible = await self._read_credible_replies()
        records = self.rule.enumerate(credible)
        self._annotate_selection(result, len(records), "enumerated")
        return records

    def observe_timestamp(self, timestamp: Timestamp) -> None:
        """Fast-forward this writer's clock past an observed timestamp.

        Multi-writer coordination protocols (the lock service) must write
        records that outrank whatever they just read, Lamport-style; the
        single-writer register protocol itself never needs this.
        """
        if isinstance(timestamp, Timestamp):
            self._timestamps.observe(timestamp)

    def classify_read(self, outcome: ReadOutcome) -> str:
        """Label a read against the last local write (shared classifier)."""
        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return classify_read_outcome(outcome, self._last_written)


class AsyncDisseminationRegister(AsyncRegister):
    """Self-verifying data (Section 4): sign writes, discard forgeries."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        signatures: Optional[SignatureScheme] = None,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        super().__init__(client, name=name, writer_id=writer_id)
        self.signatures = signatures or SignatureScheme()
        self.rule = ReadRule(signatures=self.signatures)


class AsyncMaskingRegister(AsyncRegister):
    """Arbitrary data (Section 5): ``>= k`` vouching votes per pair."""

    outcome_type = MaskingReadOutcome

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        if not hasattr(client.system, "read_threshold"):
            raise ProtocolError(
                "AsyncMaskingRegister requires a masking quorum system "
                "with a read_threshold"
            )
        super().__init__(client, name=name, writer_id=writer_id)
        self.rule = ReadRule(threshold=int(client.system.read_threshold))

    @property
    def read_threshold(self) -> int:
        """The vote count ``⌈k⌉`` a value needs to be accepted."""
        return self.rule.threshold


def async_register_for(
    spec: ScenarioSpec,
    client: AsyncQuorumClient,
    name: str = "x",
    writer_id: Optional[int] = None,
) -> AsyncRegister:
    """Build the frontend a scenario's resolved register kind calls for.

    Mirrors :meth:`repro.simulation.scenario.ScenarioSpec.register_factory`,
    so one declarative spec describes a Monte-Carlo experiment *and* a live
    service deployment with identical read semantics.  ``writer_id``
    overrides the spec's writer identity (contending writers of one
    scenario each bind their own); all writers share the spec's signing
    key, so every writer's records verify under one dissemination scheme.
    """
    resolved_writer = spec.writer_id if writer_id is None else int(writer_id)
    kind = spec.resolved_register_kind()
    if kind == "masking":
        return AsyncMaskingRegister(client, name=name, writer_id=resolved_writer)
    if kind == "dissemination":
        return AsyncDisseminationRegister(
            client,
            signatures=spec.read_rule().signatures,
            name=name,
            writer_id=resolved_writer,
        )
    return AsyncRegister(client, name=name, writer_id=resolved_writer)
