"""Contract tests for :class:`~repro.service.quorum_op.QuorumOp`, with no event loop.

The op is driven by hand: each round's servers either answer or miss, and
``round_end`` names the next round.  What a driver cannot break, the op
must guarantee on its own: never more than ``q`` replies, each server asked
at most once, spares only from servers not yet asked and never more than
the deficit, stray and late replies ignored, ``acknowledged ⊆ quorum``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.epsilon_intersecting import (
    EpsilonIntersectingSystem,
    UniformEpsilonIntersectingSystem,
)
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.timestamps import Timestamp
from repro.quorum.grid import GridQuorumSystem
from repro.service.quorum_op import MAX_TOP_UP_ROUNDS, QuorumOp
from repro.simulation.server import StoredValue

PLAIN = UniformEpsilonIntersectingSystem(25, 8)
MASKING = ProbabilisticMaskingSystem(25, 10, 3)
VALUE = StoredValue("v", Timestamp(1))


def drive(op, alive, payload=lambda server: VALUE):
    """Run ``op`` to completion; return the servers each round asked and
    the replies held when each round ended."""
    rounds = []
    servers = op.start()
    while servers:
        for server in servers:
            if server in alive:
                op.on_reply(server, payload(server))
            else:
                op.on_miss(server)
        rounds.append((servers, dict(op.replies)))
        servers = op.round_end()
    return rounds


def degraded_op(seed, system=PLAIN, dead=range(10), **kwargs):
    rng = random.Random(seed)
    quorum = sorted(rng.sample(range(system.n), system.quorum_size))
    alive = set(range(system.n)) - set(dead)
    kwargs.setdefault("repair", True)
    return QuorumOp(quorum, system, rng, **kwargs), alive


class TestTopUpContract:
    @pytest.mark.parametrize("seed", range(40))
    def test_at_most_q_replies_and_each_server_asked_once(self, seed):
        op, alive = degraded_op(seed)
        rounds = drive(op, alive)
        asked = [server for servers, _ in rounds for server in servers]
        assert len(asked) == len(set(asked)) == PLAIN.quorum_size + op.spares
        assert len(op.replies) <= PLAIN.quorum_size
        assert len(rounds) <= 1 + MAX_TOP_UP_ROUNDS

    @pytest.mark.parametrize("seed", range(40))
    def test_spares_are_fresh_and_never_exceed_the_deficit(self, seed):
        op, alive = degraded_op(seed)
        rounds = drive(op, alive)
        first = set(rounds[0][0])
        for (_, held), (spares, _) in zip(rounds, rounds[1:]):
            assert not set(spares) & first
            assert len(spares) == PLAIN.quorum_size - len(held)

    @pytest.mark.parametrize("seed", range(40))
    def test_acknowledged_is_a_subset_of_the_quorum(self, seed):
        op, alive = degraded_op(seed)
        drive(op, alive)
        assert frozenset(op.replies) <= op.final_quorum
        assert set(op.replies) <= alive
        if op.fell_back:
            assert op.final_quorum == frozenset(op.replies)
        else:
            assert op.final_quorum == frozenset(op.quorum)

    def test_every_server_dead_exhausts_the_rounds(self):
        op, _ = degraded_op(1)
        rounds = drive(op, alive=set())
        assert [len(servers) for servers, _ in rounds] == [8] * (1 + MAX_TOP_UP_ROUNDS)
        assert op.replies == {} and op.fell_back and op.spares == 16

    def test_without_repair_the_op_is_one_round(self):
        op, alive = degraded_op(3, dead=range(20), repair=False)
        rounds = drive(op, alive)
        assert len(rounds) == 1 and op.spares == 0
        assert not op.fell_back and op.final_quorum == frozenset(op.quorum)


class TestReplyBookkeeping:
    def test_stray_and_repeated_replies_are_ignored(self):
        op = QuorumOp((1, 2, 3))
        op.start()
        assert not op.on_reply(7, "stray")  # never asked
        assert op.on_reply(2, "first")
        assert not op.on_reply(2, "again")  # already answered
        assert not op.on_miss(2)
        assert op.replies == {2: "first"} and set(op.pending) == {1, 3}

    def test_a_reply_after_its_round_ended_is_not_counted(self):
        op = QuorumOp(tuple(range(8)), PLAIN, random.Random(4), repair=True)
        op.start()
        for server in range(6):
            op.on_reply(server, VALUE)
        spares = op.round_end()  # servers 6 and 7 are written off
        assert len(spares) == 2
        assert not op.on_reply(6, VALUE) and not op.on_reply(7, VALUE)
        assert 6 not in op.replies and 7 not in op.replies
        for server in spares:
            op.on_reply(server, VALUE)
        assert op.round_end() == ()
        assert not op.on_reply(7, VALUE)
        assert len(op.replies) == 8 and op.final_quorum == frozenset(range(6)) | set(spares)
        # The same holds for the last round of an op that is done.
        one_round = QuorumOp((1, 2, 3))
        one_round.start()
        one_round.on_reply(1, VALUE)
        assert one_round.round_end() == ()
        assert not one_round.on_reply(3, VALUE) and list(one_round.replies) == [1]

    def test_misses_count_the_current_round_only(self):
        op = QuorumOp(tuple(range(8)), PLAIN, random.Random(4), repair=True)
        op.start()
        op.on_miss(0)
        op.on_miss(1)
        assert op.misses == 2
        for server in range(2, 8):
            op.on_reply(server, VALUE)
        op.round_end()
        assert op.misses == 0 and len(op.pending) == 2


class TestLazyFallback:
    @staticmethod
    def first_round(value_bearing, nothing_stored=0, lazy=MASKING.read_threshold):
        op = QuorumOp(tuple(range(10)), MASKING, random.Random(2), repair=True, lazy=lazy)
        op.start()
        for server in range(value_bearing):
            op.on_reply(server, VALUE)
        for server in range(value_bearing, value_bearing + nothing_stored):
            op.on_reply(server, None)  # "I store nothing" is not a vote
        return op

    def test_the_top_up_is_skipped_exactly_at_the_read_threshold(self):
        threshold = int(MASKING.read_threshold)
        assert threshold > 1
        below = self.first_round(threshold - 1, nothing_stored=5)
        assert not below.settleable()
        assert below.round_end() != () and below.fell_back
        at = self.first_round(threshold)
        assert at.settleable()
        assert at.round_end() == () and not at.fell_back

    def test_without_lazy_a_settleable_round_still_tops_up(self):
        assert self.first_round(int(MASKING.read_threshold)).settleable()
        op = self.first_round(int(MASKING.read_threshold), lazy=None)
        assert op.round_end() != ()


class TestStructuredSystems:
    GRID = EpsilonIntersectingSystem(9, GridQuorumSystem(9).enumerate_quorums())

    def test_the_reply_set_is_restricted_to_the_replacement_quorum(self):
        first = min(quorum for quorum in self.GRID.quorums if 0 in quorum)
        op = QuorumOp(sorted(first), self.GRID, random.Random(0), repair=True)
        rounds = drive(op, alive=set(range(1, 9)))
        replacement = op.replacement
        assert replacement in self.GRID.quorums and 0 not in replacement
        (asked, _), (spares, _) = rounds
        assert set(spares) == replacement - set(asked)
        # First-round answers outside the replacement quorum are dropped:
        # the op rests on one quorum, never a super-quorum.
        assert set(asked) - {0} - replacement
        assert set(op.replies) == replacement == op.final_quorum

    def test_no_live_replacement_keeps_the_answers_in_hand(self):
        first = min(quorum for quorum in self.GRID.quorums if 0 in quorum)
        op = QuorumOp(sorted(first), self.GRID, random.Random(0), repair=True)
        # The diagonal is dead: no full row or column survives.  The op
        # learns of each crash only by asking, then keeps what it has.
        rounds = drive(op, alive=set(range(9)) - {0, 4, 8})
        asked = [server for servers, _ in rounds for server in servers]
        assert op.fell_back and len(asked) == len(set(asked))
        assert set(op.replies) == set(asked) - {0, 4, 8} == op.final_quorum
        assert not any(quorum <= op.final_quorum for quorum in self.GRID.quorums)
