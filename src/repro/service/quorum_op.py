"""One quorum operation as a pure state machine: no event loop, no clock, no IO.

An operation samples a quorum from the access strategy, collects the
replies and hands them to the selection rule; the paper states ε for
exactly that operation.  :class:`QuorumOp` is the operation between the
draw and the selection rule.  A driver (the in-process
:class:`~repro.service.dispatch.BatchedDispatcher` or the wire-level
:class:`~repro.service.net.TcpDispatcher`) moves its messages and owns
its deadline; the op decides who is asked and which answers count:

* :meth:`QuorumOp.start` names the first round's servers;
* :meth:`QuorumOp.on_reply` / :meth:`QuorumOp.on_miss` record each fate,
  ignoring servers never asked in the current round, servers that already
  answered, and answers that arrive after the round ended;
* :meth:`QuorumOp.round_end` writes off the round's silent members and
  names the next round's spares, or ``()`` when the op is done.

Under partial failure **the operation is the probe**: the members that
answered are kept, the silent ones are known dead-or-lost, and only the
deficit ``q − |answered|`` is re-drawn — uniformly, without replacement,
from the servers this operation has not contacted yet — and sent the
operation itself.  Each server is asked at most once per operation and
answers in hand are never discarded.

For the uniform constructions ``R(n, q)`` this is the random-order probe of
:class:`~repro.quorum.probe.UniformProbeStrategy` with the operation as the
probe.  The sampled quorum followed by the spare batches is a prefix of a
uniformly random permutation of the universe, and a batch is never larger
than the current deficit, so the reply set never overshoots ``q``: when the
deficit closes, the final quorum is the first ``q`` answering servers of
that permutation — a uniform ``q``-subset of the answering servers, which
is what ε and Lemma 5.7's ``|Q ∩ B|`` accounting are stated for.  A merged
*super*-quorum, which would inflate ``|Q ∩ B|``, cannot arise.  Systems
without a fixed ``quorum_size`` (explicit strategies, grids) use the general
form of the same rule: ``find_live_quorum(universe − silent)`` names a
replacement quorum, only its members not yet asked are contacted, and the
final reply set is restricted to it.

At most :data:`MAX_TOP_UP_ROUNDS` top-up rounds run per operation; after the
last one the operation returns what it has.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.types import Quorum, ServerId

#: At most two top-up rounds per op: worst-case latency stays ≤ 3 deadlines
#: (what a liveness sweep plus a full retry would cost) while the typical
#: degraded op is 1 deadline + 1 RTT.
MAX_TOP_UP_ROUNDS = 2


class QuorumOp:
    """The reply bookkeeping and top-up rule of one quorum operation.

    Parameters
    ----------
    quorum:
        The first round's servers: the strategy-drawn quorum, or any server
        list for a one-round fan-out.
    system:
        The quorum system the top-up rule consults (unused without
        ``repair``).
    rng:
        Random source of the spare draws (unused without ``repair``).
    repair:
        Whether a round that left silent members is followed by top-up
        rounds.  Without it the op is exactly one round.
    lazy:
        The vote count that settles a read: when the first round holds at
        least that many value-bearing replies the top-up is skipped (see
        :meth:`settleable`).  ``None`` (the default) always tops up.
    """

    __slots__ = (
        "quorum", "system", "rng", "repair", "lazy", "replies", "pending",
        "misses", "asked", "spares", "rounds", "fell_back", "replacement",
    )

    def __init__(
        self,
        quorum: Sequence[ServerId],
        system: Any = None,
        rng: Optional[random.Random] = None,
        repair: bool = False,
        lazy: Optional[int] = None,
    ) -> None:
        self.quorum = tuple(quorum)
        self.system = system
        self.rng = rng
        self.repair = repair
        self.lazy = lazy
        #: ``{server: payload}`` of every counted reply, in arrival order.
        self.replies: Dict[ServerId, Any] = {}
        #: The current round's servers whose fate is still unknown.
        self.pending: Dict[ServerId, None] = {}
        #: The current round's servers known lost (dropped, silent, unsent).
        self.misses = 0
        #: Every server asked so far, once a top-up needs to know.
        self.asked: Optional[set] = None
        #: Servers asked beyond the first round.
        self.spares = 0
        self.rounds = 0
        #: Whether the first round left a deficit the op set out to close.
        self.fell_back = False
        self.replacement: Optional[Quorum] = None

    # -- the driver's inputs ------------------------------------------------------

    def start(self) -> Tuple[ServerId, ...]:
        """Open the first round; return the servers it asks."""
        return self._open(self.quorum)

    def on_reply(self, server: ServerId, payload: Any) -> bool:
        """Count one reply; ``False`` when it is not awaited in this round."""
        if server not in self.pending:
            return False
        del self.pending[server]
        self.replies[server] = payload
        return True

    def on_miss(self, server: ServerId) -> bool:
        """Record that ``server`` will not answer this round."""
        if server not in self.pending:
            return False
        del self.pending[server]
        self.misses += 1
        return True

    def round_end(self) -> Tuple[ServerId, ...]:
        """Close the round; return the next round's spares, ``()`` when done.

        Members that have not answered are written off (a later answer is
        not counted).  The first round is topped up only when it came back
        short, ``repair`` is on and — for a lazy op — the replies in hand
        cannot already settle the read.
        """
        self.pending = {}
        if self.rounds == 1 and not (
            len(self.replies) < len(self.quorum)
            and self.repair
            and not self.settleable()
        ):
            return ()
        self.fell_back = True
        if self.rounds > MAX_TOP_UP_ROUNDS:
            return self._finish()
        system = self.system
        universe = range(system.n)
        if self.asked is None:
            self.asked = set(self.quorum)
        asked = self.asked
        if hasattr(system, "quorum_size"):
            unasked = [server for server in universe if server not in asked]
            deficit = len(self.quorum) - len(self.replies)
            spares = self.rng.sample(unasked, min(deficit, len(unasked)))
        else:
            silent = asked.difference(self.replies)
            self.replacement = system.find_live_quorum(set(universe) - silent)
            spares = [
                server for server in self.replacement or () if server not in asked
            ]
        if not spares:
            return self._finish()
        spares.sort()
        asked.update(spares)
        self.spares += len(spares)
        return self._open(tuple(spares))

    # -- the verdict --------------------------------------------------------------

    def settleable(self) -> bool:
        """Whether a lazy op's replies in hand can already settle its read.

        At least ``lazy`` value-bearing replies — the read rule's threshold:
        one for the benign and dissemination rules, ``k`` for masking —
        means the selection rule has enough votes to pick a winner; chasing
        the missing servers into a top-up round buys nothing anti-entropy
        is not already providing in the background.
        """
        if self.lazy is None:
            return False
        value_bearing = sum(1 for stored in self.replies.values() if stored is not None)
        return value_bearing >= self.lazy

    @property
    def final_quorum(self) -> Quorum:
        """The set the op rests on: the sampled quorum, or after a top-up
        the servers that answered (never more than ``q``)."""
        if self.fell_back:
            return frozenset(self.replies)
        return frozenset(self.quorum)

    # -- internals ----------------------------------------------------------------

    def _open(self, servers: Tuple[ServerId, ...]) -> Tuple[ServerId, ...]:
        self.rounds += 1
        self.pending = dict.fromkeys(servers)
        self.misses = 0
        return servers

    def _finish(self) -> Tuple[ServerId, ...]:
        replacement = self.replacement
        if replacement is not None and replacement <= self.replies.keys():
            # First-round answers from outside the replacement quorum would
            # make the reply set a super-quorum; the op rests on the quorum.
            self.replies = {server: self.replies[server] for server in replacement}
        return ()
