"""The quorum lock's pure halves: the replica's arbiter and the client's op.

Each replica arbitrates, as in Maekawa's algorithm, so exclusion is a
quorum-intersection property; nothing here has an event loop, a clock or
IO (the drivers, :class:`~repro.protocol.lock.QuorumLock` and
:class:`~repro.apps.mutex.AsyncQuorumMutex`, move the messages).  A message
is ``(kind, variable, client, timestamp, seq, signature)``: the request's
Lamport timestamp, kept across re-sends, and a ``seq`` that ticks with every
message a client sends; a holder query is ``(HOLDER, variable)``.  Every
reply is ``(standing, record, clock)``: the sender's standing, the current
grant's record (``None`` when nobody holds) and the arbiter's clock.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.protocol.quorum_op import MAX_TOP_UP_ROUNDS, QuorumOp
from repro.protocol.selection import ReadRule
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue
from repro.types import Quorum, ServerId

REQUEST, YIELD, RELEASE, HOLDER = "request", "yield", "release", "holder"
#: A sender's standing: holds the grant; holds it while a request that
#: outranks it waits (Maekawa's INQUIRE); waits in the queue; has no entry.
GRANTED, INQUIRED, QUEUED, FREE = "granted", "inquired", "queued", "free"
GRANTS = (GRANTED, INQUIRED)


def lock_variable(name: str) -> str:
    """The key a lock's grants live under (and its shard is chosen by)."""
    return f"quorum-lock:{name}"


def _rank(entry: StoredValue) -> tuple:
    return (entry.timestamp, entry.value)


@dataclass
class _Lock:
    """One lock at one replica: the grant ``StoredValue(client, timestamp,
    signature)``, the queue in rank order, the newest ``seq`` per client."""

    grant: Optional[StoredValue] = None
    queue: List[StoredValue] = field(default_factory=list)
    seen: Dict[int, int] = field(default_factory=dict)
    clock: int = 0


class LockArbiter:
    """A replica's grant table: one outstanding grant per lock name.

    Requests wait in ``(timestamp, client)`` order and a freed grant goes to
    the head of the queue.  A re-sent request changes nothing; its reply
    flags the grantee :data:`INQUIRED` while a request that outranks it
    waits.  A client that does not yet hold the lock answers the flag with
    ``yield``, which requeues it and grants the head, so the best-ranked
    waiter always progresses and contenders cannot deadlock.  A client's
    newer request replaces its older entry, ``release`` drops an entry
    granted or queued, and a message whose ``seq`` is not newer than its
    client's last (a late delivery) changes nothing.

    **The lock's ε.**  A correct arbiter grants one client at a time, so two
    clients hold one lock at once only when every server their grant
    quorums share is Byzantine (Byzantine replicas grant every request) or
    lost its grant table to a crash during the hold: the table is volatile
    and there is no lease, so a crash is also what frees a dead client's
    grants.  Without such crashes the probability is exactly
    :func:`~repro.analysis.intersection.dissemination_epsilon_exact`\\
    ``(n, q, b)`` = P(Q ∩ Q' ⊆ B), 0 whenever ``2q − n > b`` — as on the
    example shape ``ProbabilisticMaskingSystem(36, 24, 3)``: 12 > 3.
    """

    def __init__(self) -> None:
        self.locks: Dict[str, _Lock] = {}

    def handle(
        self,
        kind: str,
        variable: str,
        client: Optional[int] = None,
        timestamp: Optional[Timestamp] = None,
        seq: int = 0,
        signature: Optional[bytes] = None,
    ) -> Tuple[Optional[str], Optional[StoredValue], int]:
        """Apply one message; return ``(standing, record, clock)``."""
        lock = self.locks.get(variable)
        if kind == HOLDER:
            return (None, None, 0) if lock is None else (None, lock.grant, lock.clock)
        if kind not in (REQUEST, YIELD, RELEASE):
            raise ValueError(f"unknown lock message {kind!r}")
        lock = self.locks.setdefault(variable, lock or _Lock())
        lock.clock = max(lock.clock, seq)
        if seq > lock.seen.get(client, -1):
            lock.seen[client] = seq
            if kind == REQUEST:
                self._request(lock, StoredValue(client, timestamp, signature))
            elif kind == YIELD:
                self._yield(lock, client, timestamp)
            else:
                self._release(lock, client, timestamp)
        grant = lock.grant
        if grant is not None and grant.value == client:
            outranked = lock.queue and _rank(lock.queue[0]) < _rank(grant)
            standing = INQUIRED if outranked else GRANTED
        else:
            standing = QUEUED if self._entry(lock, client) else FREE
        return (standing, grant, lock.clock)

    @staticmethod
    def forged(record: Optional[StoredValue]) -> Tuple[str, Optional[StoredValue], int]:
        """A Byzantine replica's reply: granted, naming ``record`` as holder."""
        return (GRANTED, record, 0)

    def _request(self, lock: _Lock, entry: StoredValue) -> None:
        own = self._entry(lock, entry.value)
        if own is not None:
            if own.timestamp == entry.timestamp:
                return  # a re-send
            self._remove(lock, own)
        if lock.grant is None:
            lock.grant = entry
        else:
            insort(lock.queue, entry, key=_rank)

    def _yield(self, lock: _Lock, client: int, timestamp: Timestamp) -> None:
        grant = lock.grant
        if grant is not None and (grant.value, grant.timestamp) == (client, timestamp):
            insort(lock.queue, grant, key=_rank)
            lock.grant = lock.queue.pop(0)

    def _release(self, lock: _Lock, client: int, timestamp: Timestamp) -> None:
        own = self._entry(lock, client)
        if own is not None and own.timestamp <= timestamp:
            self._remove(lock, own)

    @staticmethod
    def _entry(lock: _Lock, client: int) -> Optional[StoredValue]:
        if lock.grant is not None and lock.grant.value == client:
            return lock.grant
        return next((entry for entry in lock.queue if entry.value == client), None)

    @staticmethod
    def _remove(lock: _Lock, entry: StoredValue) -> None:
        if lock.grant is entry:
            lock.grant = lock.queue.pop(0) if lock.queue else None
        else:
            lock.queue.remove(entry)


@dataclass(frozen=True)
class LockAttempt:
    """One try at a lock, or the grant that ended an acquire loop."""

    lock_name: str
    client_id: int
    granted: bool
    #: A client the refusing arbiters named as holder (``None`` if granted).
    holder_seen: Optional[int]
    #: The granted request's timestamp and grant quorum (``None`` if refused).
    timestamp: Optional[Timestamp]
    quorum: Optional[Quorum]

    @property
    def acquired(self) -> bool:
        """``granted``, as the synchronous lock spells it."""
        return self.granted


class LockRound(QuorumOp):
    """One request round: a :class:`QuorumOp` that ends once decided.

    It tops silent members up like any op, but a refused round cannot end
    in a grant, so it stops waiting as soon as its replies give the client
    something to do: a grant to yield, or only arbiters whose grantee it
    outranks (they will hand their grants over).  A request queued behind a
    better-ranked grantee waits the round out.
    """

    __slots__ = ("rank", "decided")

    def __init__(self, quorum: Quorum, system: Any, rng: Any, rank: tuple) -> None:
        super().__init__(quorum, system, rng, repair=True)
        self.rank = rank
        self.decided = False

    def on_reply(self, server: ServerId, payload: Any) -> bool:
        if not super().on_reply(server, payload):
            return False
        replies = self.replies.values()
        if not self.decided and any(reply[0] not in GRANTS for reply in replies):
            self.decided = any(reply[0] == INQUIRED for reply in replies) or not any(
                reply[0] == QUEUED and _rank(reply[1]) < self.rank for reply in replies
            )
        if self.decided:
            self.pending, self.misses = {}, 0  # nothing left to wait for
        return True

    def settleable(self) -> bool:  # a refused request gains nothing from spares
        return self.decided or any(reply[0] not in GRANTS for reply in self.replies.values())


class LockOp:
    """One client's acquisition of one lock: a quorum of grants.

    Each request round (:meth:`round`) goes to every member, and the client
    holds the lock once one round's first sending brings a whole quorum of
    grants.  A round that had to top up only repairs the quorum: its first
    grants are a deadline old, and a crash in between may have handed them
    to someone else.  A silent member the top-up replaced stays in
    :attr:`contacted` until a release reaches it: a crash wiped its entry,
    but a lost or late reply may have left one.
    """

    def __init__(
        self, client: int, timestamp: Timestamp, signature: Optional[bytes], quorum: Quorum
    ) -> None:
        self.client = client
        self.timestamp = timestamp
        self.signature = signature
        #: Where the next request round goes.
        self.members: Tuple[ServerId, ...] = tuple(sorted(quorum))
        #: Every server that may hold an entry for this request.
        self.contacted: Set[ServerId] = set(self.members)
        self.held = False
        #: Granting members a better-ranked waiter wants.
        self.inquired: Tuple[ServerId, ...] = ()
        self.holder_seen: Optional[int] = None
        #: The largest arbiter clock seen in a reply.
        self.clock = 0
        #: Contacted servers that have not acknowledged a release.
        self.unreleased: Set[ServerId] = set()

    def round(self, system: Any, rng: Any) -> LockRound:
        """The next request round, over the members."""
        return LockRound(self.members, system, rng, (self.timestamp, self.client))

    def on_requests(self, op: QuorumOp) -> None:
        """Take one finished request round."""
        replies = op.replies
        members = list(replies)
        if not op.complete:  # keep asking the silent members
            members += [server for server in op.quorum if server not in replies]
            members = members[: len(op.quorum)]
        self.members = tuple(sorted(members))
        self.contacted.update(op.asked or op.quorum)
        self.held = not op.fell_back and op.complete and all(
            reply[0] in GRANTS for reply in replies.values()
        )
        self.inquired = () if self.held else tuple(
            server for server, reply in replies.items() if reply[0] == INQUIRED
        )
        for standing, record, clock in replies.values():
            self.clock = max(self.clock, clock)
            if standing == QUEUED:
                self.holder_seen = record.value

    def attempt(self, lock_name: str) -> LockAttempt:
        """This op's outcome as a :class:`LockAttempt`."""
        held = self.held
        return LockAttempt(
            lock_name=lock_name,
            client_id=self.client,
            granted=held,
            holder_seen=None if held else self.holder_seen,
            timestamp=self.timestamp if held else None,
            quorum=frozenset(self.members) if held else None,
        )


class LockClient:
    """What both lock drivers share: the name, the read rule and the clock.

    The clock is Lamport's: it ticks with every message (the message's
    ``seq``) and jumps past every arbiter clock a reply reports, so a new
    request ranks behind every request its client has seen.
    """

    def __init__(self, name: str, rule: ReadRule) -> None:
        if not name:
            raise ConfigurationError("lock names must be non-empty")
        self.name = str(name)
        self.variable = lock_variable(self.name)
        self.rule = rule
        self._clock = 0

    def begin(self, client: int, quorum: Quorum) -> LockOp:
        """A new request by ``client`` over ``quorum``, signed under the rule."""
        self._clock += 1
        timestamp = Timestamp(self._clock, client)
        return LockOp(client, timestamp, self.rule.sign(self.variable, client, timestamp), quorum)

    def message(self, lock: LockOp, kind: str) -> tuple:
        """The next ``kind`` message of ``lock``."""
        self._clock = max(self._clock, lock.clock) + 1
        return (kind, self.variable, lock.client, lock.timestamp, self._clock, lock.signature)

    def try_rounds(self, lock: LockOp, system: Any, rng: Any) -> Iterator[Tuple[QuorumOp, tuple]]:
        """One try: the rounds to send, each ``(op, message)``.

        The driver runs each op before asking for the next.  A request round
        that had to top up is confirmed by another over the repaired quorum,
        up to ``1 + MAX_TOP_UP_ROUNDS`` rounds; afterwards ``lock.held``
        says whether the try ended in the lock.  A refused try releases the
        members a top-up replaced (and stops counting them as contacted): an
        earlier round may have left them an entry that no later request
        reaches, and a grant there that a better-ranked waiter wants would
        never be yielded.
        """
        for _ in range(1 + MAX_TOP_UP_ROUNDS):
            op = lock.round(system, rng)
            yield op, self.message(lock, REQUEST)
            lock.on_requests(op)
            if not op.fell_back:
                break
        replaced = lock.contacted.difference(lock.members)
        if replaced and not lock.held:
            yield from self.release_rounds(lock, replaced)
            lock.contacted -= replaced

    def release_rounds(
        self, lock: LockOp, servers: Optional[Set[ServerId]] = None
    ) -> Iterator[Tuple[QuorumOp, tuple]]:
        """A release: ``release`` to ``servers`` (every contacted server by
        default), re-sent to the ones that have not acknowledged, up to
        ``1 + MAX_TOP_UP_ROUNDS`` sends.  A lost release would leave an
        entry nobody releases, so the release waits for every
        acknowledgement; ``lock.unreleased`` names the servers that never
        answered."""
        lock.unreleased = set(lock.contacted if servers is None else servers)
        for _ in range(1 + MAX_TOP_UP_ROUNDS):
            if not lock.unreleased:
                return
            op = QuorumOp(sorted(lock.unreleased))
            yield op, self.message(lock, RELEASE)
            lock.unreleased.difference_update(op.replies)

    def holder_of(self, replies: Mapping[ServerId, tuple]) -> Any:
        """The holder the rule selects among holder-query replies.

        Arbiters echo the granted request's record, signed by its client
        under a signed rule.  ``None`` when no record passes the rule; a
        forgery that beats the rule comes back as it is.
        """
        records = {server: reply[1] for server, reply in replies.items() if reply[1] is not None}
        selected = self.rule.select(self.rule.credible(self.variable, records))
        return None if selected is None else selected.value
