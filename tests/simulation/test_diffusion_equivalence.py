"""Differential test: the optimised gossip round against the plain loop.

:meth:`~repro.simulation.diffusion.DiffusionEngine.run_round` finds the
variables that can move once per round, counts an unverified sender's
pushes in bulk, delivers only what can move, and skips a peer already
holding the identical record.  :func:`reference_round` below is the plain
loop it replaced — every correct server draws its peers and calls
``ReplicaServer.merge`` once per (variable, peer) — kept here as the oracle.

Two identical worlds replay the same seeded history (writes, stale and
tied records, forged records a verifier rejects, crashes, recoveries,
Byzantine behaviours), one gossiping through the reference and one through
the engine.  After every round the adoption count, every replica's storage
(value and timestamp), ``messages_pushed``, ``rounds_run`` and the
sequence of ``verify`` calls must match, and afterwards so must the next
``rng.random()``.  Small worlds of 9 replicas and 5 keys run first; then
the two shapes gossip runs in (a service deployment and the benchmark's
layer row); last, counted cost guards.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.service.gossip import NodeClusterView
from repro.service.node import ServiceNode
from repro.simulation.cluster import Cluster
from repro.simulation.diffusion import DiffusionEngine
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    StoredValue,
)

SCHEME = SignatureScheme(b"gossip-oracle")
VARIABLES = [f"k{index}" for index in range(5)]


def reference_round(engine: DiffusionEngine, variables=None) -> int:
    """One gossip round as the plain loop runs it: merge every push."""
    adopted = 0
    if engine.fanout == 0:
        engine.rounds_run += 1
        return adopted
    server_ids = list(range(engine.cluster.n))
    for server in engine.cluster.servers:
        if server.is_crashed or server.is_byzantine:
            continue
        names = list(variables) if variables is not None else list(server.storage)
        if not names:
            continue
        peers = engine.rng.sample(
            [s for s in server_ids if s != server.server_id], engine.fanout
        )
        for variable in names:
            stored = server.storage.get(variable)
            if stored is None:
                continue
            if engine.verify is not None and not engine.verify(variable, stored):
                continue
            for peer_id in peers:
                engine.messages_pushed += 1
                peer = engine.cluster.server(peer_id)
                if peer.merge(variable, stored):
                    adopted += 1
    engine.rounds_run += 1
    return adopted


def make_world(kind: str, n: int, seed: int):
    """A cluster-shaped object of ``n`` correct replicas."""
    if kind == "cluster":
        return Cluster(n, seed=seed)
    return NodeClusterView([ServiceNode(server) for server in range(n)])


def make_verifier(log: List[Tuple[str, object]]) -> Callable[[str, StoredValue], bool]:
    """A signature verifier that records every call it receives."""

    def verify(variable: str, stored: StoredValue) -> bool:
        log.append((variable, stored.value))
        return SCHEME.verify(variable, stored.value, stored.timestamp, stored.signature)

    return verify


def signed(variable: str, value: str, timestamp: Timestamp) -> StoredValue:
    return StoredValue(value, timestamp, SCHEME.sign(variable, value, timestamp))


def make_history(seed: int, n: int, rounds: int) -> List[List[tuple]]:
    """Per round, the fault and write events applied before gossiping."""
    rng = random.Random(seed)
    counters = {variable: 0 for variable in VARIABLES}
    history = []
    for _ in range(rounds):
        events = []
        roll = rng.random()
        variable = rng.choice(VARIABLES)
        server = rng.randrange(n)
        if roll < 0.15:
            counters[variable] += 1
            timestamp = Timestamp(counters[variable], rng.randrange(3))
            for target in rng.sample(range(n), rng.randint(1, 3)):
                events.append(("write", target, variable, f"v{counters[variable]}", timestamp))
        elif roll < 0.20:
            # A tie: same timestamp, different value and object.
            timestamp = Timestamp(max(counters[variable], 1), 0)
            events.append(("plant", server, variable, "tie", timestamp))
        elif roll < 0.24:
            events.append(("forge", server, variable))
        elif roll < 0.32:
            events.append(("crash", server))
        elif roll < 0.40:
            events.append(("recover", server))
        history.append(events)
    return history


def apply(world, event: tuple) -> None:
    kind, server = event[0], world.servers[event[1]]
    if kind == "write":
        _, _, variable, value, timestamp = event
        record = signed(variable, value, timestamp)
        server.handle("write", (variable, record.value, record.timestamp, record.signature))
    elif kind == "plant":
        _, _, variable, value, timestamp = event
        server.storage[variable] = signed(variable, value, timestamp)
    elif kind == "forge":
        _, _, variable = event
        # Unsigned, maximal timestamp: only a verifier keeps it from spreading.
        server.storage[variable] = StoredValue("FORGED", Timestamp.forged_maximum())
    elif kind == "crash":
        server.crash()
    else:
        server.recover()


def storage_snapshot(world) -> List[dict]:
    return [
        {
            variable: (stored.value, stored.timestamp)
            for variable, stored in sorted(server.storage.items())
        }
        for server in world.servers
    ]


def replay_both(
    build: Callable[[], Tuple[object, Callable[[tuple], None]]],
    history: List[List[tuple]],
    *,
    seed: int,
    label: str,
    fanout: int = 2,
    verified: bool = False,
    variables: Optional[List[str]] = None,
) -> List[int]:
    """Replay ``history`` on two fresh worlds, one per gossip loop.

    ``build()`` returns a cluster-shaped world and a function applying one
    event to it.  Returns the adoption count of every round.
    """
    engines, appliers, logs = [], [], []
    for _ in range(2):
        world, apply_event = build()
        log: List[Tuple[str, object]] = []
        engines.append(
            DiffusionEngine(
                world,
                fanout=fanout,
                verify=make_verifier(log) if verified else None,
                rng=random.Random(seed),
            )
        )
        appliers.append(apply_event)
        logs.append(log)
    reference, optimised = engines
    adoptions = []
    for round_index, events in enumerate(history):
        for apply_event in appliers:
            for event in events:
                apply_event(event)
        expected = reference_round(reference, variables)
        actual = optimised.run_round(variables)
        context = f"{label} seed={seed} round={round_index}"
        assert actual == expected, context
        assert storage_snapshot(optimised.cluster) == storage_snapshot(
            reference.cluster
        ), context
        assert optimised.messages_pushed == reference.messages_pushed, context
        assert optimised.rounds_run == reference.rounds_run, context
        assert logs[1] == logs[0], context
        adoptions.append(expected)
    assert optimised.rng.random() == reference.rng.random()
    return adoptions


def run_both(
    kind: str,
    seed: int,
    *,
    n: int = 9,
    rounds: int = 150,
    fanout: int = 2,
    byzantine: Tuple[int, ...] = (),
    verified: bool = False,
    variables: Optional[List[str]] = None,
) -> None:
    def build():
        world = make_world(kind, n, seed)
        for index, server in enumerate(byzantine):
            behaviors = [
                ByzantineReplayBehavior(),
                ByzantineSilentBehavior(),
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()),
            ]
            world.servers[server].behavior = behaviors[index % len(behaviors)]
        return world, lambda event: apply(world, event)

    replay_both(
        build,
        make_history(seed, n, rounds),
        seed=seed,
        label=kind,
        fanout=fanout,
        verified=verified,
        variables=variables,
    )


KINDS = ["cluster", "nodes"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(8))
def test_crash_recovery_histories_match_the_plain_loop(kind, seed):
    run_both(kind, seed)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_byzantine_servers_match_the_plain_loop(kind, seed):
    run_both(kind, 100 + seed, byzantine=(1, 4, 7))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_rejecting_verifier_matches_the_plain_loop(kind, seed):
    # Forged records sit on correct servers; verify is called on exactly
    # the same (variable, record) sequence and rejects the same pushes.
    run_both(kind, 200 + seed, verified=True, byzantine=(2,))


@pytest.mark.parametrize("kind", KINDS)
def test_explicit_variable_list_matches_the_plain_loop(kind):
    # Includes a variable no server holds, which is never pushed.
    run_both(kind, 300, variables=["k1", "k3", "absent"])


@pytest.mark.parametrize("kind", KINDS)
def test_fanout_zero_matches_the_plain_loop(kind):
    run_both(kind, 400, fanout=0, rounds=30)


@pytest.mark.parametrize("kind", KINDS)
def test_wide_fanout_matches_the_plain_loop(kind):
    run_both(kind, 500, n=6, fanout=5, rounds=80)


# -- the two shapes gossip really runs in ---------------------------------------------
#
# The service shape: 25 ``ServiceNode``s serving 16 keys, every write handed
# to its replicas as one args tuple (so they share the ``Timestamp`` object)
# and read-repairs delivered through the ``repair`` RPC.  The benchmark's
# layer shape: the same placement, but every replica gets its own equal
# ``Timestamp``.  Writes are rare, so gossip settles most keys between them.

SHAPE_N = 25
SHAPE_KEYS = [f"k{index:02d}" for index in range(16)]
SHAPES = ["service", "layer"]


def shape_history(seed: int, rounds: int) -> List[List[tuple]]:
    """Per round, the events applied before gossiping in a shape world.

    Round 0 writes every key at ``Timestamp(5, 1)`` to every other node from
    ``index % 5`` on, as the benchmark's layer row does.  Halfway through,
    every correct node crashes for one round, so that round has no open
    storage; the next round recovers them all.
    """
    rng = random.Random(seed)
    counters = dict.fromkeys(SHAPE_KEYS, 5)
    history: List[List[tuple]] = [
        [
            ("write", tuple(range(index % 5, SHAPE_N, 2)), key, 5, 1)
            for index, key in enumerate(SHAPE_KEYS)
        ]
    ]
    for round_index in range(1, rounds):
        if round_index == rounds // 2:
            history.append([("blackout",)])
            continue
        events: List[tuple] = [("dawn",)] if round_index == rounds // 2 + 1 else []
        roll = rng.random()
        key = rng.choice(SHAPE_KEYS)
        node = rng.randrange(SHAPE_N)
        if roll < 0.10:
            counters[key] += 1
            targets = tuple(rng.sample(range(SHAPE_N), 10))
            events.append(("write", targets, key, counters[key], rng.randrange(4)))
        elif roll < 0.16:
            events.append(("repair", node, tuple(rng.sample(range(SHAPE_N), 2)), key))
        elif roll < 0.19:
            events.append(("forge", node, key))
        elif roll < 0.25:
            events.append(("crash", node))
        elif roll < 0.31:
            events.append(("recover", node))
        history.append(events)
    return history


def build_shape(shape: str) -> Tuple[NodeClusterView, Callable[[tuple], None]]:
    """A 25-node world with three Byzantine nodes, and its event applier."""
    nodes = [ServiceNode(server) for server in range(SHAPE_N)]
    nodes[3].set_behavior(ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()))
    nodes[11].set_behavior(ByzantineReplayBehavior())
    nodes[19].set_behavior(ByzantineSilentBehavior())

    def stamp(timestamp: Timestamp) -> Timestamp:
        if shape == "service":
            return timestamp
        return Timestamp(timestamp.counter, timestamp.writer_id)

    def apply_event(event: tuple) -> None:
        kind = event[0]
        if kind == "write":
            _, targets, key, counter, writer = event
            record = signed(key, f"v{counter}.{writer}", Timestamp(counter, writer))
            args = (key, record.value, record.timestamp, record.signature)
            for target in targets:
                if shape == "layer":
                    args = (key, record.value, stamp(record.timestamp), record.signature)
                nodes[target].handle("write", *args)
        elif kind == "repair":
            _, source, targets, key = event
            stored = nodes[source].stored(key)
            if stored is not None:
                for target in targets:
                    nodes[target].handle(
                        "repair", key, stored.value, stamp(stored.timestamp), stored.signature
                    )
        elif kind == "forge":
            _, node, key = event
            nodes[node].server.storage[key] = StoredValue("FORGED", Timestamp.forged_maximum())
        elif kind == "crash":
            nodes[event[1]].crash()
        elif kind == "recover":
            nodes[event[1]].recover()
        elif kind == "blackout":
            for node in nodes:
                if not node.server.is_byzantine:
                    node.crash()
        else:
            for node in nodes:
                node.recover()

    return NodeClusterView(nodes), apply_event


def run_shape(shape: str, seed: int, *, rounds: int = 120, **options) -> List[int]:
    return replay_both(
        lambda: build_shape(shape),
        shape_history(seed, rounds),
        seed=seed,
        label=f"{shape} shape",
        **options,
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_shape_world_unverified_rounds_match_the_plain_loop(shape, seed):
    adoptions = run_shape(shape, 600 + seed)
    # Mostly settled: most rounds move nothing.
    assert sum(count == 0 for count in adoptions) > len(adoptions) / 2


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_shape_world_verified_rounds_match_the_plain_loop(shape, seed):
    run_shape(shape, 700 + seed, verified=True)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verified", [False, True])
def test_shape_world_named_variables_match_the_plain_loop(shape, verified):
    # "absent" is a key no replica ever holds.
    run_shape(shape, 800, verified=verified, variables=["k01", "k07", "absent"])


# -- cost guards: counted, never timed --------------------------------------------------

RICH_COMPARISONS = ["__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"]


def count_timestamp_comparisons(monkeypatch) -> List[int]:
    """Count every ``Timestamp`` rich comparison from now on."""
    calls = [0]
    for name in RICH_COMPARISONS:
        original = getattr(Timestamp, name)

        def counted(self, other, _original=original):
            calls[0] += 1
            return _original(self, other)

        monkeypatch.setattr(Timestamp, name, counted)
    return calls


def converged(shape: str) -> DiffusionEngine:
    """A shape world with every key on every node (no Byzantine nodes)."""
    nodes = [ServiceNode(server) for server in range(SHAPE_N)]
    engine = DiffusionEngine(NodeClusterView(nodes), fanout=2, rng=random.Random(0))
    for index, key in enumerate(SHAPE_KEYS):
        args = (key, b"v" * 16, Timestamp(5, 1), None)
        for node in nodes[index % 5 :: 2]:
            if shape == "layer":
                args = (key, b"v" * 16, Timestamp(5, 1), None)
            node.handle("write", *args)
    engine.run_rounds(30)
    assert all(len(node.server.storage) == len(SHAPE_KEYS) for node in nodes)
    return engine


def test_a_converged_service_round_makes_no_timestamp_comparison(monkeypatch):
    engine = converged("service")
    pushed = engine.messages_pushed
    calls = count_timestamp_comparisons(monkeypatch)
    assert engine.run_round() == 0
    assert calls[0] == 0
    assert engine.messages_pushed - pushed == SHAPE_N * len(SHAPE_KEYS) * 2


def test_the_comparison_counter_sees_distinct_equal_timestamps(monkeypatch):
    # The guard above is live: replicas holding their own equal Timestamp
    # must be compared by value.
    engine = converged("layer")
    calls = count_timestamp_comparisons(monkeypatch)
    assert engine.run_round() == 0
    assert calls[0] > 0
