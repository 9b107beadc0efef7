"""Tests for the async quorum client and the register frontends."""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from itertools import combinations

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import (
    EpsilonIntersectingSystem,
    UniformEpsilonIntersectingSystem,
)
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.obs.trace import Tracer
from repro.protocol.quorum_op import MAX_TOP_UP_ROUNDS
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.probe import UniformProbeStrategy, oracle_from_alive_set
from repro.service.client import AsyncQuorumClient
from repro.service.node import ServiceNode
from repro.service.register import AsyncRegister, async_register_for
from repro.service.transport import AsyncTransport
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import ByzantineForgeBehavior, ByzantineSilentBehavior, GrayBehavior

PLAIN = UniformEpsilonIntersectingSystem(25, 8)
MASKING = ProbabilisticMaskingSystem(25, 10, 3)
DISSEMINATION = ProbabilisticDisseminationSystem(25, 8, 5)


def run(coroutine):
    return asyncio.run(coroutine)


def deploy(system, seed=0, deadline=0.01, tracer=None, **transport_kwargs):
    nodes = [ServiceNode(server) for server in range(system.n)]
    transport = AsyncTransport(seed=seed, **transport_kwargs)
    client = AsyncQuorumClient(
        system,
        nodes,
        transport,
        deadline=deadline,
        rng=random.Random(seed),
        tracer=tracer,
    )
    return nodes, client


def chi_square(observed, expected):
    return sum((observed[key] - expected) ** 2 / expected for key in observed)


#: Upper 0.1 % point of the chi-square distribution with 3 degrees of freedom.
CHI2_3DF_999 = 16.27


class TestAsyncQuorumClient:
    def test_node_count_must_match_the_system(self):
        with pytest.raises(ConfigurationError):
            AsyncQuorumClient(PLAIN, [ServiceNode(0)], AsyncTransport())

    def test_write_then_read_round_trip(self):
        nodes, client = deploy(PLAIN)

        async def scenario():
            write = await client.write("x", "v", Timestamp(1), None)
            assert len(write.acknowledged) == len(write.quorum) == 8
            assert not write.retried
            read = await client.read("x")
            assert len(read.quorum) == 8
            assert read.responders == 8
            # The quorums are ε-intersecting, not strict: replies carry the
            # value only where the two quorums overlap.
            for stored in read.replies.values():
                assert stored.value == "v"

        run(scenario())

    def test_write_with_no_live_quorum_raises(self):
        nodes, client = deploy(PLAIN)
        for node in nodes:
            node.crash()

        # Nobody answers, so every round asks a full deficit of 8 — and the
        # write gives up after the round cap, each server asked once.
        with pytest.raises(QuorumUnavailableError, match="none of the 24 servers"):
            run(client.write("x", "v", Timestamp(1), None))
        assert client.transport.calls == 8 * (1 + MAX_TOP_UP_ROUNDS)

    def test_read_with_everything_dead_returns_no_replies(self):
        nodes, client = deploy(PLAIN)
        for node in nodes:
            node.crash()

        read = run(client.read("x"))
        assert read.replies == {}
        assert read.responders == 0
        assert read.probes_used == 8 * MAX_TOP_UP_ROUNDS
        assert client.transport.calls == 8 * (1 + MAX_TOP_UP_ROUNDS)


class TestDegradedQuorumTopUp:
    def test_a_read_whose_quorum_holds_a_dropping_gray_node_tops_up(self):
        nodes, client = deploy(PLAIN, seed=5)
        gray = set(range(12))
        for server in gray:
            nodes[server].set_behavior(GrayBehavior(1.0))

        read = run(client.read("x"))
        # A lost read is silence, so the gray members are topped up past
        # like crashed ones rather than counted as "I store nothing".
        assert read.retried and read.probes_used
        assert 0 < read.responders == len(read.quorum) <= 8
        assert not gray & read.quorum

    def test_degraded_write_tops_up_in_place(self, record_fan_outs):
        nodes, client = deploy(PLAIN, seed=5)
        for server in range(10):
            nodes[server].crash()
        rounds = record_fan_outs(client)

        write = run(client.write("x", "v", Timestamp(1), None))
        # With 10 of 25 servers crashed a sampled 8-quorum almost surely hits
        # a crash; the answering members are kept and only the silent slots
        # are re-drawn from servers the write has not contacted.
        assert client.probe_fallbacks == 1
        assert write.retried
        first_asked, first_answered = rounds[0]
        assert first_answered < frozenset(first_asked)
        assert first_answered <= write.quorum
        assert write.acknowledged <= write.quorum
        assert len(write.quorum) <= 8
        assert all(not nodes[server].server.is_crashed for server in write.quorum)
        assert write.probes_used == sum(len(asked) for asked, _ in rounds[1:])
        asked = [server for servers, _ in rounds for server in servers]
        assert len(asked) == len(set(asked))

    def test_top_up_quorum_is_uniform_over_the_live_subsets(self):
        # R(6, 3) with servers 0 and 1 crashed: 80 % of the sampled quorums
        # are degraded.  Over the ops that end whole, the final quorum must
        # be a uniform draw from the C(4, 3) live subsets — exactly what
        # random-order probing of the same liveness set produces.
        # Ten sequential clients side by side (each owns its RNG, so the run
        # is deterministic) keep the 3000 deadline waits off the wall clock.
        system = UniformEpsilonIntersectingSystem(6, 3)
        nodes = [ServiceNode(server) for server in range(6)]
        for server in (0, 1):
            nodes[server].crash()
        alive = frozenset(range(2, 6))
        clients = [
            AsyncQuorumClient(
                system, nodes, AsyncTransport(), deadline=1e-4, rng=random.Random(seed)
            )
            for seed in range(170, 180)
        ]
        ops = 3000

        async def drive(client):
            finals = Counter()
            for _ in range(ops // len(clients)):
                read = await client.read("x")
                assert len(read.quorum) <= 3 and read.quorum <= alive
                if len(read.quorum) == 3:
                    finals[read.quorum] += 1
            return finals

        async def scenario():
            return sum(await asyncio.gather(*map(drive, clients)), Counter())

        finals = run(scenario())
        subsets = [frozenset(subset) for subset in combinations(sorted(alive), 3)]
        assert set(finals) == set(subsets)
        whole = sum(finals.values())
        assert whole > 0.9 * ops
        assert sum(client.probe_fallbacks for client in clients) > 0.7 * ops
        assert chi_square(finals, whole / 4) < CHI2_3DF_999

        # The differential oracle: the analysis module's probe strategy over
        # the same liveness set, compared as two samples of one distribution.
        strategy = UniformProbeStrategy(6, 3)
        oracle = oracle_from_alive_set(alive)
        rng = random.Random(17)
        probed = Counter(strategy.probe(oracle, rng=rng).quorum for _ in range(whole))
        assert chi_square(probed, whole / 4) < CHI2_3DF_999
        homogeneity = sum(
            (finals[subset] - probed[subset]) ** 2 / (finals[subset] + probed[subset])
            for subset in subsets
        )
        assert homogeneity < CHI2_3DF_999

    def test_top_up_under_byzantine_and_crash_faults_never_overshoots(self, record_fan_outs):
        system = ProbabilisticMaskingSystem(25, 14, 3)
        nodes, client = deploy(system, seed=23, tracer=Tracer(1.0, seed=1))
        nodes[0].set_behavior(ByzantineSilentBehavior())
        nodes[1].set_behavior(
            ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
        )
        for server in (2, 3, 4, 5):
            nodes[server].crash()
        rounds = record_fan_outs(client)

        async def scenario():
            await client.write("x", "v", Timestamp(1), None)
            for _ in range(40):
                del rounds[:]
                read = await client.read("x")
                assert len(read.quorum) <= 14
                assert read.responders == len(read.quorum)
                spans = [span.server_id for span in read.trace.spans]
                assert len(spans) == len(set(spans))
                assert {span.method for span in read.trace.spans} == {"read"}
                first_asked, answered = rounds[0]
                assert len(rounds) <= 1 + MAX_TOP_UP_ROUNDS
                for spares, replies in rounds[1:]:
                    assert not set(spares) & set(first_asked)
                    assert len(spares) == 14 - len(answered)
                    answered = answered | replies
                assert read.quorum == answered or len(rounds) == 1
                assert read.trace.quorum == sorted(read.quorum)
                assert read.probes_used == len(spans) - 14

        run(scenario())
        assert client.probe_fallbacks > 0

    def test_degraded_write_costs_one_spare_rpc_and_no_ping(self):
        # The load claim: a quorum holding one crashed member costs q + 1
        # RPCs (the spare answers), never a sweep of all n plus a re-issue.
        nodes, client = deploy(MASKING, seed=3, tracer=Tracer(1.0, seed=1))
        nodes[0].crash()
        transport = client.transport

        async def scenario():
            for version in range(1, 200):
                before = transport.calls
                write = await client.write("x", "v", Timestamp(version), None)
                if write.retried:
                    return write, transport.calls - before
            raise AssertionError("no sampled quorum contained the crashed server")

        write, calls = run(scenario())
        assert calls == 10 + 1
        assert write.probes_used == 1
        assert len(write.acknowledged) == len(write.quorum) == 10
        assert 0 not in write.quorum
        assert {span.method for span in write.trace.spans} == {"write"}
        assert write.trace.span_dispositions() == {"ok": 10, "silent": 1}

    def test_top_up_on_a_structured_system_reuses_first_round_answers(self, record_fan_outs):
        # The 3x3 Maekawa grid as experiments/contention.py wraps it: one
        # full row plus one full column.  Server 0 is in 5 of the 9 quorums.
        grid = EpsilonIntersectingSystem(9, GridQuorumSystem(9).enumerate_quorums())
        nodes, client = deploy(grid, seed=2)
        nodes[0].crash()
        rounds = record_fan_outs(client)

        async def scenario():
            for version in range(1, 100):
                del rounds[:]
                write = await client.write("x", "v", Timestamp(version), None)
                if write.retried:
                    return write
            raise AssertionError("no sampled quorum contained the crashed server")

        write = run(scenario())
        assert write.quorum in grid.quorums and 0 not in write.quorum
        assert write.acknowledged == write.quorum
        (first_asked, first_answered), (spares, spare_answers) = rounds
        assert first_answered == frozenset(first_asked) - {0}
        assert not set(spares) & set(first_asked)
        assert set(spares) == write.quorum - first_answered
        assert write.probes_used == len(spares)

    def test_degraded_structured_write_without_a_live_quorum_keeps_its_acks(self, record_fan_outs):
        grid = EpsilonIntersectingSystem(9, GridQuorumSystem(9).enumerate_quorums())
        nodes, client = deploy(grid, seed=2)
        for server in (0, 4, 8):  # the diagonal: no full row or column survives
            nodes[server].crash()
        rounds = record_fan_outs(client)

        write = run(client.write("x", "v", Timestamp(1), None))
        # The client learns of each crash only by asking; once the diagonal
        # is known silent no replacement quorum exists and the write returns
        # the acks it has, each server asked once.
        assert client.probe_fallbacks == 1
        assert len(rounds) <= 1 + MAX_TOP_UP_ROUNDS
        asked = [server for servers, _ in rounds for server in servers]
        assert len(asked) == len(set(asked))
        answered = frozenset().union(*(replies for _, replies in rounds))
        assert write.acknowledged == write.quorum == answered
        assert answered and not any(quorum <= answered for quorum in grid.quorums)

        for node in nodes:
            node.crash()
        with pytest.raises(QuorumUnavailableError):
            run(client.write("x", "v", Timestamp(2), None))


class TestAsyncRegisters:
    def test_plain_register_reads_fresh_when_healthy(self):
        nodes, client = deploy(PLAIN)

        async def scenario():
            register = AsyncRegister(client)
            await register.write("payload")
            outcome = await register.read()
            assert register.classify_read(outcome) == "fresh"
            assert outcome.value == "payload"

        run(scenario())

    def test_plain_register_accepts_forgeries_masking_filters_them(self):
        # The same attack, two read rules: a forged maximal timestamp wins a
        # benign read but cannot collect k=2 vouching votes with one forger.
        async def scenario(rule, system):
            nodes, client = deploy(system, seed=9)
            nodes[0].set_behavior(
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
            )
            register = AsyncRegister(client, rule=rule)
            await register.write("honest")
            labels = set()
            for _ in range(40):
                outcome = await register.read()
                labels.add(register.classify_read(outcome))
            return labels

        plain_labels = run(scenario(ReadRule(), PLAIN))
        masking_labels = run(scenario(ReadRule(threshold=MASKING.read_threshold), MASKING))
        assert "fabricated" in plain_labels
        assert "fabricated" not in masking_labels
        assert "fresh" in masking_labels

    def test_dissemination_register_discards_forgeries(self):
        nodes, client = deploy(DISSEMINATION, seed=4)
        for server in range(5):
            nodes[server].set_behavior(
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
            )

        async def scenario():
            register = AsyncRegister(client, rule=ReadRule(signatures=SignatureScheme()))
            await register.write("signed")
            for _ in range(20):
                outcome = await register.read()
                assert register.classify_read(outcome) in ("fresh", "stale", "empty")
            return register.forged_replies_rejected

        rejected = run(scenario())
        assert rejected > 0

    def test_async_register_for_resolves_the_scenario_kind(self):
        for system, threshold, signed in (
            (PLAIN, 1, False),
            (DISSEMINATION, 1, True),
            (MASKING, MASKING.read_threshold, False),
        ):
            _, client = deploy(system)
            register = async_register_for(ScenarioSpec(system=system), client)
            assert register.rule.threshold == threshold
            assert (register.rule.signatures is not None) == signed
        # Forcing plain over a masking system mirrors the spec's escape hatch.
        _, client = deploy(MASKING)
        forced = async_register_for(
            ScenarioSpec(system=MASKING, register_kind="plain"), client
        )
        assert forced.rule == ReadRule()

    def test_service_outcomes_match_the_sequential_register_semantics(self):
        # One deterministic state: 3 servers store the old version, the rest
        # the new one.  The async masking frontend and the sync register must
        # select and label identically (shared selection + classification).
        nodes, client = deploy(MASKING, seed=2)

        async def scenario():
            register = AsyncRegister(client, rule=ReadRule(threshold=MASKING.read_threshold))
            await register.write("v1")
            await register.write("v2")
            outcome = await register.read()
            return register.classify_read(outcome), outcome

        label, outcome = run(scenario())
        assert label == "fresh"
        assert outcome.value == "v2"
        assert outcome.votes >= outcome.threshold
