"""Exhaustive small-config interleaving explorer (stateless model checking).

Monte-Carlo trials sample failure draws i.i.d., so an adversarial
*schedule* — a particular quorum choice, delivery order, drop pattern and
crash point — is exercised only with its sampling probability, which for
the schedules that matter is essentially zero.  This module is the
complement the roadmap calls for: at tiny configurations (3–5 servers, 2–3
operations, ≤2 faults) it enumerates **every** schedule and asserts the
safety properties the selection rule must provide *deterministically*, on
all of them:

* **no fabrication** — a read never returns a value/timestamp pair no
  honest client wrote (forgers may try; thresholds and signatures must
  stop them);
* **no unforced staleness / emptiness** — whenever the replies a read
  actually collected contain at least ``threshold`` votes for some written
  version, the read returns a version at least that fresh (this is the
  register's regularity obligation *given its evidence*; missing the
  evidence entirely is the ε-probability event the paper prices, not a
  rule bug);
* **threshold discipline** — an accepted value always carries at least
  ``threshold`` vouching votes.

The explorer is *stateless* model checking: it re-executes the scenario
from scratch along every decision prefix (cheap at this scale) instead of
checkpointing object graphs.  A DFS over the decision tree is driven by a
choice script; states reached at fresh choice points are canonically
hashed — optionally quotienting by server permutations, which is sound
because every size-``q`` quorum is enumerated, so the config is symmetric
under relabelling — and revisited states prune the subtree.  On a
violation the offending script is greedily minimised (every surviving
non-default decision is necessary) and reported as a readable trace.

Execution reuses the *real* protocol substrate: :class:`ReplicaServer`
with the production behaviours, and the register's
:class:`~repro.protocol.register.RegisterClient` over the production
:class:`~repro.protocol.selection.ReadRule` — writes are signed through its
:meth:`~repro.protocol.register.RegisterClient.write_args` (under the
explorer's own timestamps: operation ``i`` of writer ``w`` writes at
``Timestamp(i + 1, w)``), replies filtered through its
:meth:`~repro.protocol.register.RegisterClient.credible` and (by default)
the winner picked by the rule.  Every operation is a
:class:`~repro.protocol.quorum_op.QuorumOp` of one round, as on the
sequential oracle: a delivered message is the op's
:meth:`~repro.protocol.quorum_op.QuorumOp.on_reply` (or its
:meth:`~repro.protocol.quorum_op.QuorumOp.on_miss` when the server stays
silent) and a dropped one its ``on_miss``, and a read judges the op's
counted replies.  The ``selection_rule`` hook, called as
``selection_rule(replies, threshold)`` in place of the rule's ``select``,
exists so the test suite can inject a seeded mutant and prove the explorer
catches it.  Message delivery runs through :class:`ControlledScheduler`, a
pending-event store that exposes every enabled message as a branching
choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, SimulationError
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.register import RegisterClient
from repro.protocol.selection import ReadRule, SelectedValue, tiebreak_key
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    NO_REPLY,
    ReplicaServer,
    StoredValue,
)

SelectionRule = Callable[..., Optional[SelectedValue]]


@dataclass(eq=False)
class _ScheduledEvent:
    """One pending callback; compared by identity, ordered by ``(time, sequence)``."""

    time: float
    sequence: int
    callback: Callable[[], None]
    cancelled: bool = False


class EventHandle:
    """Handle returned by :meth:`ControlledScheduler.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._event.cancelled = True


class ControlledScheduler:
    """A discrete-event scheduler that exposes *every* enabled event as a choice.

    Its caller may fire any enabled (non-cancelled) event via
    :meth:`step_event` — the primitive the explorer's schedule enumeration
    is built on.  With no explicit choice, :meth:`step` fires the
    ``(time, sequence)``-minimal event: earliest first, insertion order on
    ties, so a seedless schedule replays identically.  Non-finite delays
    are rejected up front: NaN compares false against everything, so a
    poisoned entry would silently corrupt that order.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._now = 0.0
        self._pending: List[_ScheduledEvent] = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return sum(1 for event in self._pending if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if not math.isfinite(delay):
            raise SimulationError(
                f"event delay must be finite, got {delay} (NaN/inf would corrupt "
                f"the event ordering)"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        event = _ScheduledEvent(self._now + delay, next(self._counter), callback)
        self._pending.append(event)
        return EventHandle(event)

    def enabled(self) -> List[_ScheduledEvent]:
        """The non-cancelled pending events in ``(time, sequence)`` order."""
        self._pending = [event for event in self._pending if not event.cancelled]
        return sorted(self._pending, key=lambda event: (event.time, event.sequence))

    def step_event(self, event: _ScheduledEvent) -> None:
        """Fire one specific enabled event (time never runs backwards)."""
        if event.cancelled or event not in self._pending:
            raise SimulationError("cannot fire a cancelled or unknown event")
        self._pending.remove(event)
        self._now = max(self._now, event.time)
        event.callback()

    def step(self) -> bool:
        """Fire the ``(time, sequence)``-minimal enabled event; ``False`` if none."""
        enabled = self.enabled()
        if not enabled:
            return False
        self.step_event(enabled[0])
        return True


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WriteOp:
    """One client write of ``value`` by logical writer ``writer``."""

    writer: int
    value: Any


@dataclass(frozen=True)
class ReadOp:
    """One client read of the variable."""


Op = Union[WriteOp, ReadOp]

#: register kinds the explorer models (mirrors ScenarioSpec's vocabulary).
EXPLORE_REGISTER_KINDS = ("plain", "dissemination", "masking")


@dataclass(frozen=True)
class ExploreSpec:
    """A tiny, exhaustively checkable configuration.

    Faulty servers occupy the lowest ids (forgers, then silent, then
    replay) — with ``symmetry`` on and every quorum enumerated this loses
    no generality.  ``max_crashes`` / ``max_drops`` budget the *additional*
    adversarial moves the explorer may inject at any point of any schedule.
    """

    n: int = 4
    quorum_size: int = 3
    register_kind: str = "masking"
    threshold: int = 2
    ops: Tuple[Op, ...] = (WriteOp(0, "a"), ReadOp())
    forgers: int = 0
    silent: int = 0
    replay: int = 0
    fabricated_value: Any = "FORGED"
    fabricated_timestamp: Any = None
    max_crashes: int = 0
    max_drops: int = 0
    symmetry: bool = True
    variable: str = "x"

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 6:
            raise ConfigurationError(
                f"the explorer is for tiny configs (2 <= n <= 6), got n={self.n}"
            )
        if not 1 <= self.quorum_size <= self.n:
            raise ConfigurationError(
                f"quorum size must lie in [1, {self.n}], got {self.quorum_size}"
            )
        if self.register_kind not in EXPLORE_REGISTER_KINDS:
            raise ConfigurationError(
                f"unknown register kind {self.register_kind!r}; "
                f"expected one of {EXPLORE_REGISTER_KINDS}"
            )
        if self.threshold < 1:
            raise ConfigurationError(f"vote threshold must be positive, got {self.threshold}")
        if self.register_kind in ("plain", "dissemination") and self.threshold != 1:
            raise ConfigurationError(
                f"{self.register_kind} reads believe any (verified) reply; threshold "
                f"must be 1, got {self.threshold}"
            )
        if not 1 <= len(self.ops) <= 4:
            raise ConfigurationError(
                f"the explorer handles 1-4 operations, got {len(self.ops)}"
            )
        if min(self.forgers, self.silent, self.replay) < 0:
            raise ConfigurationError("fault counts must be non-negative")
        if self.forgers + self.silent + self.replay > self.n:
            raise ConfigurationError("more faulty servers than servers")
        if self.max_crashes < 0 or self.max_drops < 0:
            raise ConfigurationError("adversary budgets must be non-negative")

    def forged_timestamp(self) -> Any:
        """The timestamp forgers attach (default: the maximal forgery)."""
        if self.fabricated_timestamp is not None:
            return self.fabricated_timestamp
        return Timestamp.forged_maximum()

    def describe(self) -> str:
        """One-line summary used by the runner's report."""
        faults = []
        if self.forgers:
            faults.append(f"forgers={self.forgers}")
        if self.silent:
            faults.append(f"silent={self.silent}")
        if self.replay:
            faults.append(f"replay={self.replay}")
        if self.max_crashes:
            faults.append(f"crashes<={self.max_crashes}")
        if self.max_drops:
            faults.append(f"drops<={self.max_drops}")
        return (
            f"ExploreSpec({self.register_kind}, n={self.n}, q={self.quorum_size}, "
            f"k={self.threshold}, ops={len(self.ops)}"
            + (", " + ", ".join(faults) if faults else "")
            + ")"
        )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A safety violation with its (minimised) witness schedule."""

    property: str
    message: str
    script: Tuple[int, ...]
    trace: Tuple[str, ...]

    def render(self) -> str:
        """The human-readable counterexample report."""
        lines = [f"VIOLATION [{self.property}]: {self.message}", "schedule:"]
        lines.extend(f"  {index:2d}. {step}" for index, step in enumerate(self.trace))
        return "\n".join(lines)


@dataclass(frozen=True)
class ExploreResult:
    """Outcome of one exhaustive exploration."""

    spec: ExploreSpec
    states_explored: int
    schedules: int
    violation: Optional[Violation] = None

    @property
    def safe(self) -> bool:
        """Whether every enumerated schedule satisfied the safety checks."""
        return self.violation is None


class _Pruned(Exception):
    """Internal: the current run re-entered a visited state."""


class _InvalidScript(Exception):
    """Internal: a minimisation candidate picked an out-of-range option."""


@dataclass(frozen=True)
class _Option:
    label: str
    kind: str
    payload: Any = None


class _RunViolation(Exception):
    """Internal: carries a violation out of a run's read check."""

    def __init__(self, property_name: str, message: str) -> None:
        super().__init__(message)
        self.property_name = property_name
        self.message = message


# ---------------------------------------------------------------------------
# One schedule execution
# ---------------------------------------------------------------------------


class _Run:
    """Execute the spec once, asking ``choose`` at every branching point."""

    def __init__(
        self,
        spec: ExploreSpec,
        selection_rule: Optional[SelectionRule],
        choose: Callable[[List[_Option], Optional[tuple]], _Option],
    ) -> None:
        self.spec = spec
        self.client = RegisterClient(
            spec.variable,
            rule=ReadRule(
                threshold=spec.threshold,
                signatures=SignatureScheme() if spec.register_kind == "dissemination" else None,
            ),
        )
        if selection_rule is None:
            self.select = self.client.rule.select
        else:
            self.select = lambda replies: selection_rule(replies, spec.threshold)
        self.choose = choose
        self.scheduler = ControlledScheduler()
        self.trace: List[str] = []
        self.drops_left = spec.max_drops
        self.crashes_left = spec.max_crashes
        #: (tiebreak_key(value), timestamp) of every honest write so far.
        self.written: List[Tuple[str, Any]] = []
        self.roles: List[str] = []
        self.servers: List[ReplicaServer] = []
        self._event_targets: Dict[int, int] = {}
        forged_ts = spec.forged_timestamp()
        for server_id in range(spec.n):
            if server_id < spec.forgers:
                behavior, role = (
                    ByzantineForgeBehavior(spec.fabricated_value, forged_ts),
                    "forger",
                )
            elif server_id < spec.forgers + spec.silent:
                behavior, role = ByzantineSilentBehavior(), "silent"
            elif server_id < spec.forgers + spec.silent + spec.replay:
                behavior, role = ByzantineReplayBehavior(), "replay"
            else:
                behavior, role = None, "correct"
            self.servers.append(ReplicaServer(server_id, behavior))
            self.roles.append(role)

    # -- execution ---------------------------------------------------------------

    def execute(self) -> None:
        """Run every operation; raises :class:`_RunViolation` on a violation."""
        for op_index, op in enumerate(self.spec.ops):
            if isinstance(op, WriteOp):
                self._execute_write(op_index, op)
            else:
                self._execute_read(op_index)

    def _execute_write(self, op_index: int, op: WriteOp) -> None:
        timestamp = Timestamp(op_index + 1, op.writer)
        self._run_op(op_index, "write", self.client.write_args(op.value, timestamp))
        self.written.append((tiebreak_key(op.value), timestamp))

    def _execute_read(self, op_index: int) -> None:
        op = self._run_op(op_index, "read", (self.spec.variable,))
        credible = self.client.credible(RegisterClient.stored_replies(op))
        self._check_read(self.select(credible), credible)

    def _run_op(self, op_index: int, kind: str, args: tuple) -> QuorumOp:
        """One round of ``kind`` over an adversary-chosen quorum."""
        op = QuorumOp(self._choose_quorum(op_index, kind))
        self._scatter(op, kind, args)
        self._drain(op_index, kind, op)
        op.round_end()
        return op

    # -- decision points ---------------------------------------------------------

    def _choose_quorum(self, op_index: int, kind: str) -> Tuple[int, ...]:
        options = [
            _Option(f"op{op_index}:{kind} quorum={combo}", "quorum", combo)
            for combo in itertools.combinations(range(self.spec.n), self.spec.quorum_size)
        ]
        picked = self.choose(options, self._state_key(("quorum", op_index, kind)))
        self.trace.append(picked.label)
        return picked.payload

    def _scatter(self, op: QuorumOp, kind: str, args: tuple) -> None:
        """Schedule one message per member of ``op``'s round; its delivery
        is the server's answer to the op (``NO_REPLY`` its miss)."""

        def deliver(server_id: int) -> None:
            reply = self.servers[server_id].handle(kind, args)
            if reply is NO_REPLY:
                op.on_miss(server_id)
            else:
                op.on_reply(server_id, reply)

        for server_id in op.start():
            handle = self.scheduler.schedule(
                0.0, lambda server_id=server_id: deliver(server_id)
            )
            self._event_targets[handle._event.sequence] = server_id

    def _drain(self, op_index: int, kind: str, op: QuorumOp) -> None:
        """Resolve every pending message, one adversary-chosen move at a time."""
        replies = op.replies if kind == "read" else None
        while True:
            enabled = self.scheduler.enabled()
            if not enabled:
                return
            options: List[_Option] = []
            for event in enabled:
                target = self._event_targets[event.sequence]
                options.append(
                    _Option(f"op{op_index}: deliver {kind}->s{target}", "deliver", event)
                )
            if self.drops_left > 0:
                for event in enabled:
                    target = self._event_targets[event.sequence]
                    options.append(
                        _Option(f"op{op_index}: drop {kind}->s{target}", "drop", event)
                    )
            if self.crashes_left > 0:
                # Crashing only servers with a message in flight loses no
                # outcomes: an earlier crash of an untouched server commutes
                # with every move until its next message, and a crash after
                # a server's last delivery is unobservable.
                for server_id in sorted(
                    {self._event_targets[event.sequence] for event in enabled}
                ):
                    if not self.servers[server_id].is_crashed:
                        options.append(
                            _Option(f"op{op_index}: crash s{server_id}", "crash", server_id)
                        )
            picked = self.choose(
                options, self._state_key(("drain", op_index, kind), replies)
            )
            self.trace.append(picked.label)
            if picked.kind == "deliver":
                self.scheduler.step_event(picked.payload)
            elif picked.kind == "drop":
                picked.payload.cancelled = True
                op.on_miss(self._event_targets[picked.payload.sequence])
                self.drops_left -= 1
            else:
                self.servers[picked.payload].crash()
                self.crashes_left -= 1

    # -- safety checks -----------------------------------------------------------

    def _check_read(
        self, selected: Optional[SelectedValue], replies: Mapping[int, StoredValue]
    ) -> None:
        threshold = self.spec.threshold
        written = set(self.written)
        if selected is not None:
            selected_key = (tiebreak_key(selected.value), selected.timestamp)
            if selected_key not in written:
                raise _RunViolation(
                    "fabrication",
                    f"read accepted {selected.value!r}@{selected.timestamp!r}, which "
                    f"no honest client ever wrote (votes={selected.votes})",
                )
            if selected.votes < threshold:
                raise _RunViolation(
                    "threshold",
                    f"read accepted {selected.value!r} with {selected.votes} votes, "
                    f"below the threshold {threshold}",
                )
        # Evidence regularity: among the *collected* replies, find the
        # freshest written version with >= threshold votes; the read must
        # return something at least that fresh.  (A read whose replies
        # simply lack such evidence is the ε event, not a rule violation.)
        votes: Dict[Tuple[str, Any], int] = {}
        for stored in replies.values():
            key = (tiebreak_key(stored.value), stored.timestamp)
            if key in written:
                votes[key] = votes.get(key, 0) + 1
        evidenced = [key for key, count in votes.items() if count >= threshold]
        if not evidenced:
            return
        best = max(evidenced, key=lambda key: key[1])
        if selected is None:
            raise _RunViolation(
                "regularity",
                f"read returned nothing despite {votes[best]} replies vouching "
                f"for written version @{best[1]!r}",
            )
        if selected.timestamp < best[1]:
            raise _RunViolation(
                "regularity",
                f"read returned stale @{selected.timestamp!r} despite {votes[best]} "
                f"replies vouching for written version @{best[1]!r}",
            )

    # -- state hashing -----------------------------------------------------------

    def _state_key(
        self, phase: tuple, replies: Optional[Mapping[int, StoredValue]] = None
    ) -> tuple:
        """A canonical, hashable encoding of everything that shapes the future."""
        spec = self.spec
        descriptors = []
        for server in self.servers:
            server_id = server.server_id
            stored = server.storage.get(spec.variable)
            stored_key = (
                None if stored is None else (tiebreak_key(stored.value), stored.timestamp)
            )
            behavior = server.behavior
            first_key = None
            if isinstance(behavior, ByzantineReplayBehavior):
                first = behavior._first_seen.get(spec.variable)
                if first is not None:
                    first_key = (tiebreak_key(first.value), first.timestamp)
            pending = tuple(
                sorted(
                    "msg"
                    for event in self.scheduler.enabled()
                    if self._event_targets[event.sequence] == server_id
                )
            )
            reply_key = None
            stored_reply = None if replies is None else replies.get(server_id)
            if stored_reply is not None:
                reply_key = (tiebreak_key(stored_reply.value), stored_reply.timestamp)
            descriptors.append(
                (
                    self.roles[server_id],
                    server.is_crashed,
                    stored_key,
                    first_key,
                    pending,
                    reply_key,
                )
            )
        if spec.symmetry:
            descriptors = sorted(descriptors, key=repr)
        return (phase, tuple(descriptors), self.drops_left, self.crashes_left)


# ---------------------------------------------------------------------------
# The exploration driver
# ---------------------------------------------------------------------------


def run_schedule(
    spec: ExploreSpec,
    script: Sequence[int],
    selection_rule: Optional[SelectionRule] = None,
) -> Tuple[Optional[Violation], Tuple[str, ...]]:
    """Execute one schedule (decisions beyond ``script`` default to 0).

    Returns the violation (if the schedule triggers one) and the readable
    trace.  Used by the minimiser and by tests replaying counterexamples.
    """
    cursor = 0

    def choose(options: List[_Option], _state_key: Optional[tuple]) -> _Option:
        nonlocal cursor
        index = script[cursor] if cursor < len(script) else 0
        cursor += 1
        if not 0 <= index < len(options):
            raise _InvalidScript(f"decision {cursor - 1} out of range")
        return options[index]

    run = _Run(spec, selection_rule, choose)
    try:
        run.execute()
    except _RunViolation as caught:
        violation = Violation(
            property=caught.property_name,
            message=caught.message,
            script=tuple(script),
            trace=tuple(run.trace),
        )
        return violation, tuple(run.trace)
    return None, tuple(run.trace)


def _minimize(
    spec: ExploreSpec, script: Sequence[int], selection_rule: Optional[SelectionRule]
) -> Violation:
    """Greedily shrink a violating script: flip every droppable decision to 0.

    The result is locally minimal — resetting any remaining non-default
    decision to the benign default makes the violation disappear.
    """
    current = list(script)
    original, _ = run_schedule(spec, current, selection_rule)
    assert original is not None, "minimisation needs a violating script"
    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            if current[index] == 0:
                continue
            candidate = list(current)
            candidate[index] = 0
            try:
                violation, _ = run_schedule(spec, candidate, selection_rule)
            except _InvalidScript:
                continue
            if violation is not None and violation.property == original.property:
                current = candidate
                changed = True
    while current and current[-1] == 0:
        current.pop()
    final, _ = run_schedule(spec, current, selection_rule)
    assert final is not None
    return final


def explore(
    spec: ExploreSpec,
    selection_rule: Optional[SelectionRule] = None,
    max_schedules: int = 1_000_000,
) -> ExploreResult:
    """Exhaustively enumerate every schedule of ``spec``; stop at a violation.

    The returned result carries the number of distinct canonical states and
    complete schedules; on a violation, a minimised counterexample.
    """
    visited: set = set()
    stack: List[List[int]] = []
    schedules = 0
    violation: Optional[Violation] = None
    while True:
        depth = 0

        def choose(options: List[_Option], state_key: Optional[tuple]) -> _Option:
            nonlocal depth
            index = depth
            depth += 1
            if index < len(stack):
                return options[stack[index][0]]
            if state_key is not None:
                if state_key in visited:
                    raise _Pruned()
                visited.add(state_key)
            stack.append([0, len(options)])
            return options[0]

        run = _Run(spec, selection_rule, choose)
        try:
            run.execute()
            schedules += 1
        except _Pruned:
            pass
        except _RunViolation:
            schedules += 1
            script = [entry[0] for entry in stack]
            violation = _minimize(spec, script, selection_rule)
            break
        if schedules > max_schedules:
            raise SimulationError(
                f"exploration exceeded {max_schedules} schedules; shrink the spec "
                f"({spec.describe()})"
            )
        while stack and stack[-1][0] + 1 >= stack[-1][1]:
            stack.pop()
        if not stack:
            break
        stack[-1][0] += 1
    return ExploreResult(
        spec=spec,
        states_explored=len(visited),
        schedules=schedules,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# The pinned small-config grid (CI's explore-smoke job)
# ---------------------------------------------------------------------------


def small_config_grid() -> Dict[str, ExploreSpec]:
    """The pinned benign/crash/forger × masking/dissemination grid.

    Every cell must explore with zero violations: these are exactly the
    adversaries the shipped selection rule claims to defeat
    *deterministically* (fabrication never; staleness only when the
    evidence itself is missing).
    """
    ops = (WriteOp(0, "a"), ReadOp())
    masking = dict(n=4, quorum_size=3, register_kind="masking", threshold=2, ops=ops)
    dissemination = dict(
        n=4, quorum_size=3, register_kind="dissemination", threshold=1, ops=ops
    )
    grid = {}
    for name, base in (("masking", masking), ("dissemination", dissemination)):
        grid[f"{name}-benign"] = ExploreSpec(max_drops=1, **base)
        grid[f"{name}-crash"] = ExploreSpec(max_crashes=1, **base)
        grid[f"{name}-forger"] = ExploreSpec(forgers=1, **base)
    return grid


def explore_grid(
    grid: Optional[Mapping[str, ExploreSpec]] = None,
    selection_rule: Optional[SelectionRule] = None,
) -> Dict[str, ExploreResult]:
    """Explore every cell of a grid (default: :func:`small_config_grid`)."""
    cells = grid if grid is not None else small_config_grid()
    return {name: explore(spec, selection_rule) for name, spec in cells.items()}
