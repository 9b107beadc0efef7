"""Unit tests for the anti-entropy fast path in the service layer.

The integration story (probe fallbacks collapse under churn, rates stay
welded across layers) lives in the conformance suite and the churn
benchmark; this module pins the individual moving parts:

* :class:`~repro.service.gossip.NodeClusterView` — the duck-typed cluster
  facade gossip runs over;
* :func:`~repro.service.gossip.scenario_verifier` — dissemination
  scenarios re-verify gossip payloads, benign/masking ones do not;
* :class:`~repro.service.gossip.GossipService` — deterministic spread,
  crashed silence, Byzantine-poison rejection, lifecycle, metrics;
* the client's ``lazy_fallback`` read path and ``piggyback_repairs``;
* the register's laggard selection and repair piggybacking;
* the load spec/report anti-entropy knobs and the shard-imbalance gauge;
* the :class:`~repro.api.Deployment` builder's ``anti_entropy`` axis,
  end to end over an in-process deployment.
"""

from __future__ import annotations

import asyncio
import math
import random

import pytest

from repro.api import Deployment
from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.protocol.register import ReadOutcome, RegisterClient
from repro.service.client import AsyncQuorumClient
from repro.service.gossip import GossipService, NodeClusterView, scenario_verifier
from repro.service.load import ServiceLoadReport, ServiceLoadSpec
from repro.service.node import ServiceNode
from repro.service.register import AsyncRegister, async_register_for
from repro.service.transport import AsyncTransport
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec
from repro.simulation.server import ByzantineForgeBehavior, StoredValue
from tests.protocol.test_register_client import finished_op
from tests.service.quorum_ops import read_op, write_op

PLAIN = UniformEpsilonIntersectingSystem(25, 8)
MASKING = ProbabilisticMaskingSystem(25, 10, 3)
DISSEMINATION = ProbabilisticDisseminationSystem(25, 8, 5)

AE = AntiEntropySpec(fanout=3, rounds=2, interval=0.002, repair_budget=4)


def run(coroutine):
    return asyncio.run(coroutine)


def make_nodes(n):
    return [ServiceNode(server) for server in range(n)]


def seed_value(node, value="v", counter=1, signature=None):
    node.server.storage["x"] = StoredValue(value, Timestamp(counter), signature)


class TestNodeClusterView:
    def test_exposes_the_cluster_surface(self):
        nodes = make_nodes(5)
        view = NodeClusterView(nodes)
        assert view.n == 5
        assert view.server(3) is nodes[3].server
        assert view.servers == [node.server for node in nodes]
        assert view.correct_servers() == {0, 1, 2, 3, 4}

    def test_correct_servers_tracks_live_faults(self):
        nodes = make_nodes(5)
        view = NodeClusterView(nodes)
        nodes[1].crash()
        nodes[4].set_behavior(
            ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
        )
        assert view.correct_servers() == {0, 2, 3}
        nodes[1].recover()
        assert view.correct_servers() == {0, 1, 2, 3}


class TestScenarioVerifier:
    def test_benign_and_masking_scenarios_have_no_verifier(self):
        # The masking defence is vote counting at read time, not payload
        # verification at gossip time.
        assert scenario_verifier(ScenarioSpec(system=PLAIN)) is None
        assert scenario_verifier(ScenarioSpec(system=MASKING)) is None

    def test_dissemination_verifier_applies_the_signature_scheme(self):
        scenario = ScenarioSpec(system=DISSEMINATION)
        verify = scenario_verifier(scenario)
        assert verify is not None
        scheme = SignatureScheme(scenario.signing_key)
        timestamp = Timestamp(3)
        signed = StoredValue("v", timestamp, scheme.sign("x", "v", timestamp))
        assert verify("x", signed)
        assert not verify("x", StoredValue("v", timestamp, b"not-a-signature"))
        # A forged record with no verifying signature never passes.
        assert not verify(
            "x", StoredValue("FORGED", Timestamp.forged_maximum(), None)
        )


class TestGossipService:
    def test_run_once_spreads_a_seeded_value(self):
        nodes = make_nodes(12)
        seed_value(nodes[0])
        gossip = GossipService(nodes, AE, rng=random.Random(1))
        for _ in range(4):
            gossip.run_once()
        holders = sum(1 for node in nodes if node.stored("x") is not None)
        # 8 rounds at fanout 3 over 12 replicas: push gossip saturates.
        assert holders == 12
        assert gossip.gossip_rounds == 4 * AE.rounds
        assert gossip.adoptions == 11
        assert gossip.engine.messages_pushed > 0

    def test_crashed_nodes_neither_push_nor_adopt(self):
        nodes = make_nodes(10)
        seed_value(nodes[0])
        crashed = nodes[5]
        crashed.crash()
        gossip = GossipService(nodes, AE, rng=random.Random(2))
        for _ in range(4):
            gossip.run_once()
        assert crashed.stored("x") is None
        live = sum(
            1
            for node in nodes
            if node is not crashed and node.stored("x") is not None
        )
        assert live == 9

    def test_recovered_node_catches_up_through_gossip(self):
        nodes = make_nodes(10)
        seed_value(nodes[0])
        nodes[5].crash()
        gossip = GossipService(nodes, AE, rng=random.Random(2))
        for _ in range(4):
            gossip.run_once()
        nodes[5].recover()
        for _ in range(4):
            gossip.run_once()
        stored = nodes[5].stored("x")
        assert stored is not None and stored.value == "v"

    def test_poisoned_payloads_are_never_adopted_under_a_verifier(self):
        # A forged record sitting in a correct replica's storage (the state
        # a Byzantine writer leaves behind) must not spread: dissemination
        # gossip re-verifies every push exactly like a read reply.
        scenario = ScenarioSpec(system=DISSEMINATION)
        scheme = SignatureScheme(scenario.signing_key)
        nodes = make_nodes(DISSEMINATION.n)
        nodes[0].server.storage["x"] = StoredValue(
            "FORGED", Timestamp.forged_maximum(), None
        )
        timestamp = Timestamp(1)
        seed_value(nodes[1], "honest", 1, scheme.sign("x", "honest", timestamp))
        gossip = GossipService(
            nodes, AE, rng=random.Random(3), verify=scenario_verifier(scenario)
        )
        for _ in range(6):
            gossip.run_once()
        for node in nodes[1:]:
            stored = node.stored("x")
            assert stored is None or stored.value == "honest"

    def test_background_task_lifecycle_is_idempotent(self):
        nodes = make_nodes(8)
        seed_value(nodes[0])
        gossip = GossipService(nodes, AE, rng=random.Random(4))

        async def scenario():
            assert not gossip.running
            gossip.start()
            gossip.start()  # idempotent: must not double-schedule
            assert gossip.running
            await asyncio.sleep(0.02)
            await gossip.aclose()
            await gossip.aclose()  # idempotent: second close is a no-op
            assert not gossip.running

        run(scenario())
        assert gossip.gossip_rounds > 0

    def test_metrics_snapshot_carries_the_gossip_counters(self):
        nodes = make_nodes(8)
        seed_value(nodes[0])
        gossip = GossipService(nodes, AE, rng=random.Random(5))
        gossip.run_once()
        snapshot = gossip.metrics_snapshot(labels={"shard": 2})
        assert snapshot["labels"] == {"component": "gossip", "shard": 2}
        counters = snapshot["counters"]
        assert counters["gossip_rounds"] == AE.rounds
        assert counters["gossip_adoptions"] == gossip.adoptions
        assert counters["gossip_messages_pushed"] == gossip.engine.messages_pushed


def deploy_client(system, seed=0, **client_kwargs):
    nodes = [ServiceNode(server) for server in range(system.n)]
    client = AsyncQuorumClient(
        nodes=nodes,
        system=system,
        transport=AsyncTransport(seed=seed),
        deadline=0.01,
        rng=random.Random(seed),
        **client_kwargs,
    )
    return nodes, client


class TestLazyFallback:
    @staticmethod
    def prepopulated(lazy_fallback):
        # All live replicas already hold the value; 10 crashed servers make
        # the sampled quorum almost surely hit a non-responder.
        nodes, client = deploy_client(PLAIN, seed=5, lazy_fallback=lazy_fallback)
        for node in nodes:
            seed_value(node)
        for server in range(10):
            nodes[server].crash()
        return nodes, client

    def test_settleable_reads_skip_the_top_up_round(self):
        nodes, client = self.prepopulated(lazy_fallback=True)

        async def scenario():
            return await read_op(client, "x")

        result = run(scenario())
        assert client.probe_fallbacks == 0
        assert result.spares == 0
        assert len(result.replies) < len(result.final_quorum) == 8
        assert any(
            stored.value == "v" for stored in RegisterClient.stored_replies(result).values()
        )

    def test_without_lazy_fallback_the_same_degraded_read_tops_up(self):
        nodes, client = self.prepopulated(lazy_fallback=False)

        async def scenario():
            return await read_op(client, "x")

        run(scenario())
        assert client.probe_fallbacks >= 1

    def test_a_forced_plain_read_settles_on_its_own_threshold(self):
        # One first round over a masking system (k = 2): a single
        # value-bearing reply and one crashed member.  The count that
        # settles a lazy read is the reader's rule's threshold, so a plain
        # reader forced onto the system settles it and a masking reader
        # tops up.
        def degraded_read(register_kind):
            nodes, client = deploy_client(MASKING, seed=5, lazy_fallback=True)
            quorum = client.next_quorum()
            client._pool.append(quorum)  # the read's first round asks this quorum
            seed_value(nodes[quorum[0]])
            nodes[quorum[1]].crash()
            spec = ScenarioSpec(
                system=MASKING, register_kind=register_kind, anti_entropy=AE
            )
            outcome = run(async_register_for(spec, client).read())
            return outcome, client.probe_fallbacks

        outcome, fallbacks = degraded_read("plain")
        assert outcome.value == "v" and fallbacks == 0
        assert len(outcome.quorum) == 10  # no spares were asked
        _, fallbacks = degraded_read("masking")
        assert fallbacks == 1

    def test_degraded_writes_always_top_up(self):
        # Lazy fallback is a read-path optimisation only: a write that
        # missed acks must still top up, or the write quorum silently thins.
        nodes, client = deploy_client(PLAIN, seed=5, lazy_fallback=True)
        for server in range(10):
            nodes[server].crash()

        async def scenario():
            return await write_op(client, "x", "v", Timestamp(1))

        write = run(scenario())
        assert client.probe_fallbacks >= 1
        assert write.spares >= 1
        assert write.replies.keys() <= write.final_quorum and len(write.final_quorum) <= 8


class RecordingDispatcher:
    """Just the ``enqueue_repair`` surface the piggyback path targets."""

    def __init__(self):
        self.repairs = []

    def enqueue_repair(self, server, variable, value, timestamp, signature):
        self.repairs.append((server, variable, value, timestamp, signature))


class TestPiggybackRepairs:
    def test_budget_caps_the_queued_repairs(self):
        _, client = deploy_client(PLAIN, repair_budget=2)
        dispatcher = RecordingDispatcher()
        client.dispatcher = dispatcher
        queued = client.piggyback_repairs(
            "x", "v", Timestamp(2), b"sig", [3, 4, 5, 6]
        )
        assert queued == 2
        assert client.repairs_piggybacked == 2
        assert [entry[0] for entry in dispatcher.repairs] == [3, 4]
        assert dispatcher.repairs[0][1:] == ("x", "v", Timestamp(2), b"sig")

    def test_no_budget_or_piggyback_path_means_no_repairs(self):
        _, budgetless = deploy_client(PLAIN, repair_budget=0)
        budgetless.dispatcher = RecordingDispatcher()
        assert budgetless.piggyback_repairs("x", "v", Timestamp(2), None, [3]) == 0
        # A driver with no piggyback path (the per-RPC reference) is skipped.
        _, plain_path = deploy_client(PLAIN, repair_budget=2)
        plain_path.dispatcher = object()
        assert plain_path.piggyback_repairs("x", "v", Timestamp(2), None, [3]) == 0
        assert plain_path.repairs_piggybacked == 0

    def test_negative_budget_is_refused(self):
        with pytest.raises(ConfigurationError):
            deploy_client(PLAIN, repair_budget=-1)


class TestRegisterRepairTargets:
    @staticmethod
    def register():
        _, client = deploy_client(PLAIN, repair_budget=4)
        return AsyncRegister(client)

    @staticmethod
    def outcome(quorum, winners, value="v", counter=5):
        return ReadOutcome(
            value=value,
            timestamp=Timestamp(counter),
            quorum=frozenset(quorum),
            reporting_servers=frozenset(winners),
            replies=len(winners),
        )

    def test_empty_or_valueless_outcomes_queue_nothing(self):
        register = self.register()
        dispatcher = RecordingDispatcher()
        register.client.dispatcher = dispatcher
        op = finished_op([0, 1], {})
        empty = ReadOutcome(
            value=None,
            timestamp=None,
            quorum=frozenset([0, 1]),
            reporting_servers=frozenset(),
            replies=0,
        )
        register._piggyback_repair(op, empty)
        assert dispatcher.repairs == []
        # Every quorum member already reporting the winner: nothing lags.
        full = finished_op(
            [0, 1], {0: StoredValue("v", Timestamp(5)), 1: StoredValue("v", Timestamp(5))}
        )
        register._piggyback_repair(full, self.outcome([0, 1], winners=[0, 1]))
        assert dispatcher.repairs == []

    def test_repair_payload_carries_the_donor_signature(self):
        register = self.register()
        dispatcher = RecordingDispatcher()
        register.client.dispatcher = dispatcher
        quorum = [0, 1, 2]
        replies = {
            0: StoredValue("v", Timestamp(5), b"donor-signature"),
            1: StoredValue("old", Timestamp(1)),
        }
        op = finished_op(quorum, replies)
        register._piggyback_repair(op, self.outcome(quorum, winners=[0]))
        assert [entry[0] for entry in dispatcher.repairs] == [1, 2]
        for _, variable, value, timestamp, signature in dispatcher.repairs:
            assert (variable, value, timestamp) == ("x", "v", Timestamp(5))
            assert signature == b"donor-signature"


class TestLoadSpecAntiEntropy:
    def test_anti_entropy_must_be_a_spec(self):
        with pytest.raises(ConfigurationError):
            ServiceLoadSpec(
                scenario=ScenarioSpec(system=PLAIN),
                anti_entropy={"fanout": 2},  # type: ignore[arg-type]
            )

    def test_fanout_must_fit_the_scenario_universe(self):
        with pytest.raises(ConfigurationError):
            ServiceLoadSpec(
                scenario=ScenarioSpec(system=PLAIN),
                anti_entropy=AntiEntropySpec(fanout=PLAIN.n),
            )

    def test_resolution_prefers_the_explicit_spec(self):
        scenario_level = AntiEntropySpec(fanout=1, repair_budget=1)
        load_level = AntiEntropySpec(fanout=2, repair_budget=8)
        scenario = ScenarioSpec(system=PLAIN, anti_entropy=scenario_level)
        inherited = ServiceLoadSpec(scenario=scenario)
        assert inherited.resolved_anti_entropy == scenario_level
        overridden = ServiceLoadSpec(scenario=scenario, anti_entropy=load_level)
        assert overridden.resolved_anti_entropy == load_level
        bare = ServiceLoadSpec(scenario=ScenarioSpec(system=PLAIN))
        assert bare.resolved_anti_entropy is None

    def test_describe_names_the_resolved_spec(self):
        spec = ServiceLoadSpec(scenario=ScenarioSpec(system=PLAIN), anti_entropy=AE)
        assert AE.describe() in spec.describe()
        bare = ServiceLoadSpec(scenario=ScenarioSpec(system=PLAIN))
        assert "anti_entropy" not in bare.describe()


def make_report(shard_ops=(), repairs_piggybacked=0, gossip_rounds=0):
    return ServiceLoadReport(
        spec=ServiceLoadSpec(scenario=ScenarioSpec(system=PLAIN)),
        elapsed=1.0,
        reads_completed=10,
        writes_completed=2,
        write_failures=0,
        outcomes={"fresh": 10},
        read_latencies=[0.001] * 10,
        write_latencies=[0.001] * 2,
        rpc_calls=96,
        rpc_dropped=0,
        rpc_timeouts=0,
        probe_fallbacks=0,
        injected_crashes=0,
        repairs_piggybacked=repairs_piggybacked,
        gossip_rounds=gossip_rounds,
        shard_ops=list(shard_ops),
    )


class TestReportAntiEntropyAccounting:
    def test_shard_imbalance_ratios(self):
        assert make_report(shard_ops=[]).shard_imbalance == 1.0
        assert make_report(shard_ops=[12]).shard_imbalance == 1.0
        assert make_report(shard_ops=[0, 0]).shard_imbalance == 1.0
        assert make_report(shard_ops=[30, 0]).shard_imbalance == math.inf
        assert make_report(shard_ops=[30, 10]).shard_imbalance == 3.0

    def test_render_reports_anti_entropy_only_when_it_ran(self):
        quiet = make_report().render()
        assert "anti-entropy" not in quiet
        busy = make_report(repairs_piggybacked=7, gossip_rounds=40).render()
        assert "7 repairs piggybacked" in busy
        assert "40 gossip rounds" in busy

    def test_render_shows_the_imbalance_next_to_per_shard_throughput(self):
        report = make_report(shard_ops=[30, 10]).render()
        assert "(imbalance 3.00x)" in report


class TestDeploymentBuilderAntiEntropy:
    def test_keyword_knobs_build_a_spec(self):
        builder = Deployment.builder(ScenarioSpec(system=PLAIN)).anti_entropy(
            fanout=1, rounds=3, interval=0.5, repair_budget=9
        )
        assert builder.spec.anti_entropy == AntiEntropySpec(
            fanout=1, rounds=3, interval=0.5, repair_budget=9
        )

    def test_explicit_spec_passes_through(self):
        builder = Deployment.builder(ScenarioSpec(system=PLAIN)).anti_entropy(AE)
        assert builder.spec.anti_entropy is AE

    def test_non_spec_argument_is_refused(self):
        with pytest.raises(ConfigurationError):
            Deployment.builder(ScenarioSpec(system=PLAIN)).anti_entropy(
                {"fanout": 2}  # type: ignore[arg-type]
            )

    def test_in_process_deployment_runs_background_gossip(self):
        scenario = ScenarioSpec(system=UniformEpsilonIntersectingSystem(12, 5))
        deployment = (
            Deployment.builder(scenario)
            .anti_entropy(fanout=2, rounds=1, interval=0.001, repair_budget=4)
            .build()
        )

        async def scenario_run():
            async with deployment:
                client = deployment.connect()
                await client.write("x", "v1")
                await asyncio.sleep(0.02)  # a few gossip ticks
                for _ in range(8):
                    outcome = await client.read("x")
                    assert outcome.value == "v1"
                # Read before teardown: aclose() cancels the gossip tasks
                # and drops their counters with them.
                return deployment.sharded.gossip_rounds

        assert run(scenario_run()) > 0

    def test_reads_piggyback_repairs_when_gossip_is_off(self):
        # fanout=0 keeps the background healer out of the way, so the
        # ε-misses of a 12/5 system leave laggards for reads to repair.
        # Seeded: unseeded, about 3 % of runs have a read miss the write
        # outright (the system's ε at work, not a bug).
        scenario = ScenarioSpec(system=UniformEpsilonIntersectingSystem(12, 5))
        deployment = (
            Deployment.builder(scenario)
            .anti_entropy(fanout=0, repair_budget=4)
            .seed(1)
            .build()
        )

        async def scenario_run():
            async with deployment:
                client = deployment.connect()
                await client.write("x", "v1")
                for _ in range(8):
                    outcome = await client.read("x")
                    assert outcome.value == "v1"

        run(scenario_run())
        # Each repair rode a coalesced delivery, not a new RPC round.
        assert deployment.sharded.repairs_piggybacked > 0
