"""Tests for the lock arbiter and the client op (``repro.protocol.arbiter``).

Four layers:

* every :class:`LockArbiter` transition, message by message;
* the replica behaviours that host it (crash, silence, Byzantine grants);
* the client's shared rounds: a try, and a release re-sent until every
  arbiter acknowledged it;
* the synchronous driver past crashed and gray servers;
* an exhaustive check: every delivery order of the in-flight messages of two
  contenders over three arbiters, each acquiring once, for every choice of
  their quorums.  No reachable state has two holders, every terminal state
  has both clients done, and from every reachable state both can still
  finish.  Two mutants ("grant twice", "ignore yield") show the check fails
  when the protocol is broken.
"""

from __future__ import annotations

import copy
import random
from collections import deque

import pytest

from repro.analysis.intersection import dissemination_epsilon_exact
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.arbiter import (
    FREE,
    GRANTED,
    HOLDER,
    INQUIRED,
    QUEUED,
    RELEASE,
    REQUEST,
    YIELD,
    LockArbiter,
    LockClient,
)
from repro.protocol.lock import QuorumLock
from repro.protocol.selection import ReadRule
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.timestamps import Timestamp
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel, FailurePlan
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineSilentBehavior,
    NO_REPLY,
    ReplicaServer,
    StoredValue,
)

VAR = "quorum-lock:L"


class Sender:
    """Hand-built messages with a fresh ``seq`` each."""

    def __init__(self) -> None:
        self.seq = 0

    def __call__(self, kind, client, counter, variable=VAR):
        self.seq += 1
        return (kind, variable, client, Timestamp(counter, client), self.seq, None)


def standing(reply):
    return reply[0]


def holder(reply):
    return None if reply[1] is None else reply[1].value


class TestTransitions:
    def test_a_free_lock_grants_the_first_request(self):
        arbiter, send = LockArbiter(), Sender()
        reply = arbiter.handle(*send(REQUEST, 1, 1))
        assert standing(reply) == GRANTED
        assert reply[1] == StoredValue(1, Timestamp(1, 1), None)
        assert reply[2] == send.seq

    def test_a_held_lock_queues_and_names_its_holder(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 5))
        reply = arbiter.handle(*send(REQUEST, 2, 7))
        assert (standing(reply), holder(reply)) == (QUEUED, 1)

    def test_a_re_send_is_idempotent_and_flags_the_outranked_grantee(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 2, 5))
        assert standing(arbiter.handle(*send(REQUEST, 2, 5))) == GRANTED
        arbiter.handle(*send(REQUEST, 1, 3))  # outranks the grant
        reply = arbiter.handle(*send(REQUEST, 2, 5))
        assert (standing(reply), holder(reply)) == (INQUIRED, 2)
        lock = arbiter.locks[VAR]
        assert [entry.value for entry in lock.queue] == [1]

    def test_the_queue_is_ordered_by_timestamp_then_client(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 9, 1))
        for client, counter in ((4, 6), (3, 2), (2, 6)):
            arbiter.handle(*send(REQUEST, client, counter))
        assert [entry.value for entry in arbiter.locks[VAR].queue] == [3, 2, 4]

    def test_a_newer_request_replaces_the_clients_older_entry(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 1))
        arbiter.handle(*send(REQUEST, 2, 2))
        assert standing(arbiter.handle(*send(REQUEST, 2, 9))) == QUEUED
        assert arbiter.locks[VAR].queue[0].timestamp == Timestamp(9, 2)
        assert len(arbiter.locks[VAR].queue) == 1
        # The grantee's newer request gives its old grant to the queue head.
        reply = arbiter.handle(*send(REQUEST, 1, 10))
        assert (standing(reply), holder(reply)) == (QUEUED, 2)

    def test_yield_requeues_the_grantee_and_grants_the_head(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 2, 5))
        arbiter.handle(*send(REQUEST, 1, 3))
        reply = arbiter.handle(*send(YIELD, 2, 5))
        assert (standing(reply), holder(reply)) == (QUEUED, 1)
        assert standing(arbiter.handle(*send(REQUEST, 1, 3))) == GRANTED

    def test_yield_of_a_grant_not_held_changes_nothing(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 3))
        arbiter.handle(*send(REQUEST, 2, 5))
        assert standing(arbiter.handle(*send(YIELD, 2, 5))) == QUEUED
        assert standing(arbiter.handle(*send(YIELD, 1, 2))) == GRANTED  # not its request

    def test_yield_with_nobody_better_waiting_keeps_the_grant(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 3))
        arbiter.handle(*send(REQUEST, 2, 5))
        assert standing(arbiter.handle(*send(YIELD, 1, 3))) == GRANTED

    def test_release_hands_the_grant_to_the_head(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 1))
        arbiter.handle(*send(REQUEST, 3, 4))
        arbiter.handle(*send(REQUEST, 2, 2))
        assert standing(arbiter.handle(*send(RELEASE, 1, 1))) == FREE
        assert holder(arbiter.handle(HOLDER, VAR)) == 2

    def test_release_of_a_queued_request_that_was_never_granted(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 1))
        arbiter.handle(*send(REQUEST, 2, 2))
        reply = arbiter.handle(*send(RELEASE, 2, 2))
        assert (standing(reply), holder(reply)) == (FREE, 1)
        assert arbiter.locks[VAR].queue == []

    def test_release_of_an_older_request_keeps_the_newer_one(self):
        arbiter, send = LockArbiter(), Sender()
        arbiter.handle(*send(REQUEST, 1, 5))
        assert standing(arbiter.handle(*send(RELEASE, 1, 4))) == GRANTED

    def test_a_stale_message_changes_nothing(self):
        arbiter, send = LockArbiter(), Sender()
        late = send(REQUEST, 1, 1)
        arbiter.handle(*send(REQUEST, 1, 1))
        arbiter.handle(*send(RELEASE, 1, 1))
        # The request delivered after its release must not grant again.
        assert standing(arbiter.handle(*late)) == FREE
        assert arbiter.handle(HOLDER, VAR)[1] is None

    def test_holder_queries_and_lock_names(self):
        arbiter, send = LockArbiter(), Sender()
        assert arbiter.handle(HOLDER, VAR) == (None, None, 0)
        arbiter.handle(*send(REQUEST, 1, 1))
        arbiter.handle(*send(REQUEST, 2, 2, variable="quorum-lock:other"))
        assert holder(arbiter.handle(HOLDER, VAR)) == 1
        assert holder(arbiter.handle(HOLDER, "quorum-lock:other")) == 2

    def test_unknown_messages_are_refused(self):
        with pytest.raises(ValueError):
            LockArbiter().handle("grab", VAR, 1, Timestamp(1, 1), 1, None)


class TestReplicaBehaviours:
    def test_a_crash_clears_the_grant_table_and_silences_the_server(self):
        server, send = ReplicaServer(0), Sender()
        assert standing(server.handle("lock", send(REQUEST, 1, 1))) == GRANTED
        server.crash()
        assert server.handle("lock", send(REQUEST, 2, 2)) is NO_REPLY
        server.recover()
        assert server.handle("lock", (HOLDER, VAR))[1] is None
        assert standing(server.handle("lock", send(REQUEST, 2, 3))) == GRANTED

    def test_silent_byzantine_servers_never_answer(self):
        server = ReplicaServer(0, ByzantineSilentBehavior())
        assert server.handle("lock", Sender()(REQUEST, 1, 1)) is NO_REPLY

    def test_forgers_grant_everyone_and_name_their_fabrication(self):
        forged = Timestamp.forged_maximum()
        server, send = ReplicaServer(0, ByzantineForgeBehavior("F", forged)), Sender()
        assert standing(server.handle("lock", send(REQUEST, 1, 1))) == GRANTED
        assert standing(server.handle("lock", send(REQUEST, 2, 2))) == GRANTED
        record = server.handle("lock", (HOLDER, VAR))[1]
        assert (record.value, record.timestamp) == ("F", forged)


class Lossy:
    """Runs a client's rounds on hand-held arbiters, losing the messages
    ``lose(server, kind)`` picks (lost before the arbiter sees them)."""

    def __init__(self, servers, lose):
        self.arbiters = [LockArbiter() for _ in range(servers)]
        self.lose = lose
        self.sent = []

    def run(self, rounds):
        for op, message in rounds:
            servers = op.start()
            while servers:
                self.sent.append((message[0], servers))
                for server in servers:
                    if self.lose(server, message[0]):
                        op.on_miss(server)
                    else:
                        op.on_reply(server, self.arbiters[server].handle(*message))
                servers = op.round_end()

    def entries(self, client):
        return {
            index
            for index, arbiter in enumerate(self.arbiters)
            if LockArbiter._entry(arbiter.locks[VAR], client) is not None
        }


class TestClientRounds:
    def test_a_release_is_re_sent_until_acknowledged_and_reports_who_never_did(self):
        losses = {(1, 0), (2, 0), (2, 1), (2, 2)}  # (server, send): 1 loses once, 2 always
        sends = {}

        def lose(server, kind):
            if kind != RELEASE:
                return False
            sends[server] = sends.get(server, -1) + 1
            return (server, sends[server]) in losses

        world, client = Lossy(3, lose), LockClient("L", ReadRule())
        lock = client.begin(1, (0, 1, 2))
        world.run(client.try_rounds(lock, None, None))
        assert lock.held
        world.run(client.release_rounds(lock))
        assert world.sent[1:] == [(RELEASE, (0, 1, 2)), (RELEASE, (1, 2)), (RELEASE, (2,))]
        assert lock.unreleased == {2}
        assert world.entries(1) == {2}  # left only where it was reported

    def test_a_refused_try_releases_the_members_a_top_up_replaced(self):
        system = UniformEpsilonIntersectingSystem(4, 3)
        rounds = []

        def lose(server, kind):  # server 1 drops the second request only
            rounds.append((server, kind))
            return server == 1 and kind == REQUEST and rounds.count((1, REQUEST)) == 2

        world, rival, client = Lossy(4, lose), LockClient("L", ReadRule()), LockClient("L", ReadRule())
        lock = client.begin(2, (0, 1, 2))
        world.run(client.try_rounds(lock, system, random.Random(0)))
        assert lock.held
        world.run(client.release_rounds(lock))
        # A better-ranked rival takes server 3 before the second request's
        # top-up reaches it; server 1 keeps an entry from the first round.
        world.arbiters[3].handle(REQUEST, VAR, 1, Timestamp(0, 1), 1, None)
        again = client.begin(2, (0, 1, 2))
        world.arbiters[1].handle(*client.message(again, REQUEST))
        world.run(client.try_rounds(again, system, random.Random(0)))
        assert not again.held and 1 not in again.members
        assert world.entries(2) == set(again.members)  # server 1's entry is released
        assert again.contacted == set(again.members)


class TestSyncDriver:
    def test_a_try_tops_up_past_crashed_servers_and_a_refused_try_leaves_nothing(self):
        system = UniformEpsilonIntersectingSystem.for_epsilon(64, 1e-3)
        for seed in range(10):
            plan = FailurePlan(crashed=frozenset(random.Random(seed).sample(range(64), 8)))
            cluster = Cluster(64, failure_plan=plan, seed=seed)
            lock = QuorumLock(system, cluster, rng=random.Random(seed))
            first = lock.acquire(1)
            assert first.acquired and not first.quorum & plan.crashed
            second = lock.acquire(2)
            if second.acquired:  # only when the two quorums miss each other
                assert not first.quorum & second.quorum
                continue
            for server in cluster.servers:
                table = server.arbiter.locks.get(lock.variable)
                assert table is None or all(entry.value != 2 for entry in table.queue)


    def test_releases_reach_gray_arbiters_so_every_client_is_granted_in_turn(self):
        # Quorums of 9 of 10 servers: one stranded grant refuses nearly
        # every later try, so a release lost at a gray server shows.
        system = UniformEpsilonIntersectingSystem(10, 9)
        for seed in range(10):
            plan = FailureModel.gray_nodes(3, 0.1).sample_plan_for(10, random.Random(seed))
            cluster = Cluster(10, failure_plan=plan, seed=seed)
            lock = QuorumLock(system, cluster, rng=random.Random(seed))
            for client in range(1, 9):
                assert any(lock.acquire(client).acquired for _ in range(20)), (seed, client)
                unreleased = lock.release(client)
                for server in cluster.servers:
                    table = server.arbiter.locks.get(lock.variable)
                    if table is not None and server.server_id not in unreleased:
                        assert LockArbiter._entry(table, client) is None


def test_the_example_shapes_lock_epsilon_is_zero():
    system = ProbabilisticMaskingSystem(36, 24, 3)
    n, q, b = system.n, system.quorum_size, system.byzantine_threshold
    assert 2 * q - n == 12 > b
    assert dissemination_epsilon_exact(n, q, b) == 0.0


# -- the exhaustive check ----------------------------------------------------------


class Contender:
    """One client acquiring once: its op, phase and the round in flight."""

    def __init__(self, client: int, quorum) -> None:
        self.driver = LockClient("L", ReadRule())
        self.lock = self.driver.begin(client, quorum)
        self.phase = "request"
        self.op = None
        self.message = None
        self.inflight: tuple = ()
        self._send(self.lock.round(None, None), REQUEST)

    def _send(self, op, kind) -> None:
        self.op = op
        self.message = self.driver.message(self.lock, kind)
        self.inflight = op.start()

    def round_over(self) -> None:
        """Every message of the round is delivered: take the next step."""
        self.op.round_end()
        if self.phase == "release":
            self.phase, self.inflight = "done", ()
        elif self.phase == "request":
            self.lock.on_requests(self.op)
            if self.lock.held:
                self.phase, self.inflight = "hold", ()
            elif self.lock.inquired:
                self.phase = "yield"
                self._send(QuorumOp(sorted(self.lock.inquired)), YIELD)
            else:
                self._send(self.lock.round(None, None), REQUEST)
        else:  # a yield round is over
            self.phase = "request"
            self._send(self.lock.round(None, None), REQUEST)

    def let_go(self) -> None:
        self.phase = "release"
        self._send(QuorumOp(sorted(self.lock.contacted)), RELEASE)

    def key(self) -> tuple:
        replies = tuple(sorted((s, r[0], holder(r)) for s, r in self.op.replies.items()))
        return (self.phase, self.message[0], self.inflight, replies, self.lock.members)


def world_key(arbiters, contenders) -> tuple:
    tables = []
    for arbiter in arbiters:
        lock = arbiter.locks.get("quorum-lock:L")
        if lock is None or (lock.grant is None and not lock.queue):
            tables.append(None)
        else:
            grant = None if lock.grant is None else lock.grant.value
            tables.append((grant, tuple(entry.value for entry in lock.queue)))
    return tuple(tables), tuple(contender.key() for contender in contenders)


def successors(world):
    arbiters, contenders = world
    for index, contender in enumerate(contenders):
        if contender.phase == "hold":
            arbiters2, contenders2 = copy.deepcopy(world)
            contenders2[index].let_go()
            yield arbiters2, contenders2
        for server in contender.inflight:
            arbiters2, contenders2 = copy.deepcopy(world)
            mover = contenders2[index]
            reply = arbiters2[server].handle(*mover.message)
            mover.op.on_reply(server, reply)
            mover.inflight = tuple(s for s in mover.inflight if s != server)
            if not mover.inflight:
                mover.round_over()
            yield arbiters2, contenders2


def explore(quorum_a, quorum_b, servers=3):
    """Breadth-first search over every delivery order; return the findings."""
    arbiters = [LockArbiter() for _ in range(servers)]
    start = (arbiters, [Contender(1, quorum_a), Contender(2, quorum_b)])
    keys = {world_key(*start): 0}
    edges = {0: set()}
    finished = set()
    two_holders = terminal_unfinished = 0
    frontier = deque([start])
    while frontier:
        world = frontier.popleft()
        key = keys[world_key(*world)]
        phases = [contender.phase for contender in world[1]]
        two_holders += phases.count("hold") > 1
        if all(phase == "done" for phase in phases):
            finished.add(key)
        moved = False
        for successor in successors(world):
            moved = True
            successor_key = world_key(*successor)
            if successor_key not in keys:
                keys[successor_key] = len(keys)
                edges[keys[successor_key]] = set()
                frontier.append(successor)
            edges[key].add(keys[successor_key])
        terminal_unfinished += not moved and key not in finished
    # Deadlock: a reachable state from which no finished state is reachable.
    reverse = {key: set() for key in edges}
    for key, targets in edges.items():
        for target in targets:
            reverse[target].add(key)
    can_finish, stack = set(finished), list(finished)
    while stack:
        for source in reverse[stack.pop()]:
            if source not in can_finish:
                can_finish.add(source)
                stack.append(source)
    return {
        "states": len(keys),
        "two_holders": two_holders,
        "terminal_unfinished": terminal_unfinished,
        "stuck": len(keys) - len(can_finish),
    }


#: Every pair of quorums over three servers, up to relabelling the servers:
#: two majorities sharing both or one server, a majority beside the whole
#: set (either client first in rank), and the whole set twice.
SHAPES = [
    ((0, 1), (0, 1)),
    ((0, 1), (1, 2)),
    ((0, 1), (0, 1, 2)),
    ((0, 1, 2), (0, 1)),
    ((0, 1, 2), (0, 1, 2)),
]


@pytest.mark.parametrize("quorum_a,quorum_b", SHAPES)
def test_every_delivery_order_is_exclusive_and_finishes(quorum_a, quorum_b):
    found = explore(quorum_a, quorum_b)
    assert found["states"] > 1
    assert found["two_holders"] == 0
    assert found["terminal_unfinished"] == 0
    assert found["stuck"] == 0


def test_the_grant_twice_mutant_is_caught_as_two_holders(monkeypatch):
    def grant_twice(self, lock, entry):
        lock.grant = entry  # whatever grant is outstanding

    monkeypatch.setattr(LockArbiter, "_request", grant_twice)
    assert explore((0, 1), (0, 1))["two_holders"] > 0


def test_the_ignore_yield_mutant_is_caught_as_a_deadlock(monkeypatch):
    monkeypatch.setattr(LockArbiter, "_yield", lambda self, lock, client, timestamp: None)
    found = explore((0, 1), (0, 1))
    assert found["two_holders"] == 0
    assert found["stuck"] > 0
