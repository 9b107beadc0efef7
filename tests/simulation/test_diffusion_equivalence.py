"""Differential test: the optimised gossip round against the plain loop.

:meth:`~repro.simulation.diffusion.DiffusionEngine.run_round` skips pushes
that provably move nothing (a peer already holding the identical record, a
variable every correct replica holds at one timestamp) and hoists the
per-round liveness checks out of the push loop.  :func:`reference_round`
below is the plain loop it replaced — every correct server draws its
peers and calls ``ReplicaServer.merge`` once per (variable, peer) — kept
here as the oracle.

Two identical worlds replay the same seeded history (writes, stale and
tied records, forged records a verifier rejects, crashes, recoveries,
Byzantine behaviours), one gossiping through the reference and one through
the engine.  After every round the adoption count, every replica's storage
(value and timestamp), ``messages_pushed``, ``rounds_run`` and the
sequence of ``verify`` calls must match, and afterwards so must the next
``rng.random()``.
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
        server.handle_write(variable, record.value, record.timestamp, record.signature)
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
    history = make_history(seed, n, rounds)
    engines, logs = [], []
    for _ in range(2):
        world = make_world(kind, n, seed)
        for index, server in enumerate(byzantine):
            behaviors = [
                ByzantineReplayBehavior(),
                ByzantineSilentBehavior(),
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()),
            ]
            world.servers[server].behavior = behaviors[index % len(behaviors)]
        log: List[Tuple[str, object]] = []
        engines.append(
            DiffusionEngine(
                world,
                fanout=fanout,
                verify=make_verifier(log) if verified else None,
                rng=random.Random(seed),
            )
        )
        logs.append(log)
    reference, optimised = engines
    for round_index, events in enumerate(history):
        for engine in engines:
            for event in events:
                apply(engine.cluster, event)
        expected = reference_round(reference, variables)
        actual = optimised.run_round(variables)
        context = f"{kind} seed={seed} round={round_index}"
        assert actual == expected, context
        assert storage_snapshot(optimised.cluster) == storage_snapshot(
            reference.cluster
        ), context
        assert optimised.messages_pushed == reference.messages_pushed, context
        assert optimised.rounds_run == reference.rounds_run, context
        assert logs[1] == logs[0], context
    assert optimised.rng.random() == reference.rng.random()


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
