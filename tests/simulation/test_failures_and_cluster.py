"""Tests for failure plans and cluster orchestration."""

from __future__ import annotations

import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError, SimulationError
from repro.protocol.arbiter import HOLDER, REQUEST
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.timestamps import Timestamp
from repro.simulation.batch import BatchTrialEngine
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel, FailurePlan
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    CorrectBehavior,
    CrashedBehavior,
    GrayBehavior,
    NO_REPLY,
    ReplicaServer,
)


def ask(cluster, quorum, method, *args):
    """The replies one single-round op over ``quorum`` collects."""
    return cluster.run(QuorumOp(quorum), method, args).replies


def write(cluster, quorum, value="v", timestamp=Timestamp(1, 0)):
    return ask(cluster, quorum, "write", "x", value, timestamp, None)


class TestFailurePlan:
    def test_none_plan(self):
        plan = FailurePlan()
        assert not plan.crashed
        assert not plan.byzantine
        assert plan.faulty_servers == frozenset()

    def test_random_crashes(self):
        plan = FailureModel.random_crashes(5).sample_plan_for(20, random.Random(0))
        assert len(plan.crashed) == 5
        assert plan.crashed <= frozenset(range(20))

    def test_independent_crashes_rate(self):
        rng = random.Random(1)
        model = FailureModel.independent_crashes(0.3)
        sizes = [len(model.sample_plan_for(100, rng).crashed) for _ in range(200)]
        assert sum(sizes) / len(sizes) == pytest.approx(30, rel=0.1)

    def test_random_byzantine_uses_fresh_behaviors(self):
        plan = FailureModel.replay_attack(3).sample_plan_for(10, random.Random(2))
        behaviors = list(plan.byzantine.values())
        assert len(behaviors) == 3
        assert len({id(b) for b in behaviors}) == 3  # not shared state

    def test_colluding_forgers_share_the_story(self):
        plan = FailureModel.colluding_forgers(
            3, "FORGED", Timestamp.forged_maximum()
        ).sample_plan_for(10, random.Random(3))
        values = {b.fabricated_value for b in plan.byzantine.values()}
        assert values == {"FORGED"}

    def test_replay_attack_constructor(self):
        plan = FailureModel.replay_attack(2).sample_plan_for(10, random.Random(4))
        assert len(plan.byzantine) == 2

    def test_crashed_and_byzantine_must_be_disjoint(self):
        with pytest.raises(ConfigurationError):
            FailurePlan(crashed=frozenset({1}), byzantine={1: ByzantineSilentBehavior()})

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            FailureModel.random_crashes(6).sample_plan_for(5, random.Random(0))
        with pytest.raises(ConfigurationError):
            FailureModel.independent_crashes(1.5).sample_plan_for(5, random.Random(0))
        with pytest.raises(ConfigurationError):
            FailureModel.random_crashes(0).sample_plan_for(0, random.Random(0))

    def test_both_samplers_refuse_the_same_universes(self):
        for model, n in [
            (FailureModel.random_crashes(6), 5),
            (FailureModel.gray_nodes(6, 0.5), 5),
            (FailureModel.targeted_partition([5]), 5),
            (FailureModel.none(), 0),
        ]:
            with pytest.raises(ConfigurationError):
                model.sample_plan_for(n, random.Random(0))
            with pytest.raises(ConfigurationError):
                model.sample_masks(n, 4, np.random.default_rng(0))

    def test_a_gray_plan_draws_the_servers_then_one_seed_each(self):
        twin = random.Random(7)
        chosen = twin.sample(range(10), 3)
        seeds = [twin.getrandbits(32) for _ in chosen]
        plan = FailureModel.gray_nodes(3, 0.2).sample_plan_for(10, random.Random(7))
        assert list(plan.byzantine) == chosen
        assert [behavior.seed for behavior in plan.byzantine.values()] == seeds

    def test_describe_counts_failures(self):
        plan = FailurePlan(crashed={1, 2}, byzantine={0: ByzantineSilentBehavior()})
        assert plan.describe() == "FailurePlan(crashed=2, byzantine=1)"


class TestFailurePlanImmutability:
    """Regression: plans are shared across trials, so they must be frozen."""

    def test_fields_cannot_be_reassigned(self):
        plan = FailureModel.random_crashes(3).sample_plan_for(10, random.Random(0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.crashed = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.shuffle_delivery = True

    def test_behavior_map_has_no_mutation_surface(self):
        plan = FailureModel.replay_attack(2).sample_plan_for(10, random.Random(1))
        with pytest.raises(TypeError):
            plan.byzantine[0] = ByzantineSilentBehavior()
        with pytest.raises(AttributeError):
            plan.byzantine.clear()

    def test_collections_are_coerced_immutable(self):
        plan = FailurePlan(crashed={1, 2})
        assert isinstance(plan.crashed, frozenset)

    def test_plans_pickle_across_process_boundaries(self):
        plan = FailureModel.colluding_forgers(
            2, "FORGED", Timestamp.forged_maximum()
        ).sample_plan_for(10, random.Random(2))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.crashed == plan.crashed
        assert set(clone.byzantine) == set(plan.byzantine)
        assert clone.byzantine_servers == plan.byzantine_servers

    def test_shared_replay_plan_does_not_leak_state_across_trials(self):
        # Regression: one plan, many trials.  The replay behaviour latches the
        # first value it sees; with a shared mutable behaviour, trial 1's
        # history poisoned trial 2.  for_trial() must isolate them.
        plan = FailurePlan(byzantine={0: ByzantineReplayBehavior()})

        def trial(first_value):
            cluster = Cluster(4, failure_plan=plan)
            quorum = frozenset(range(4))
            write(cluster, quorum, first_value, Timestamp(1, 0))
            write(cluster, quorum, "newer", Timestamp(2, 0))
            return ask(cluster, quorum, "read", "x")[0].value

        assert trial("first-a") == "first-a"
        # A fresh trial's replay server latches the *new* first write — not
        # the previous trial's.
        assert trial("first-b") == "first-b"
        # And the shared plan object itself retains no trial state.
        assert plan.byzantine[0]._first_seen == {}

    def test_shared_gray_plan_draws_identically_per_trial(self):
        plan = FailureModel.gray_nodes(3, 0.5).sample_plan_for(6, random.Random(3))

        def outcome():
            cluster = Cluster(6, failure_plan=plan)
            quorum = frozenset(range(6))
            acks = write(cluster, quorum, "v", Timestamp(1, 0))
            return frozenset(acks)

        # Same plan, fresh per-trial behaviour clones: identical draws, and
        # the plan's own behaviours never advance their rng.
        assert outcome() == outcome()


class TestAdversaryFleetPlans:
    def test_gray_nodes_constructor(self):
        plan = FailureModel.gray_nodes(3, 0.25).sample_plan_for(10, random.Random(4))
        assert len(plan.byzantine) == 3
        assert all(isinstance(b, GrayBehavior) for b in plan.byzantine.values())
        # Gray servers are degraded but not Byzantine.
        assert plan.byzantine_servers == frozenset()
        assert len(plan.faulty_servers) == 3

    def test_gray_drop_probability_validated(self):
        with pytest.raises(SimulationError):
            GrayBehavior(1.5)

    def test_targeted_partition_lowers_to_crashes(self):
        plan = FailureModel.targeted_partition([7, 2, 2]).sample_plan_for(10, random.Random(0))
        assert plan.crashed == frozenset({2, 7})
        assert not plan.byzantine

    def test_targeted_partition_validates_targets(self):
        with pytest.raises(ConfigurationError):
            FailureModel.targeted_partition([5]).sample_plan_for(5, random.Random(0))

    def test_shuffle_delivery_changes_order_not_outcome(self):
        shuffled = Cluster(8, failure_plan=FailurePlan(shuffle_delivery=True), seed=11)
        plain = Cluster(8, seed=11)
        quorum = tuple(range(8))
        for cluster in (shuffled, plain):
            write(cluster, quorum, "v", Timestamp(1, 0))
        assert shuffled._delivery_order(quorum) != list(quorum)
        assert plain._delivery_order(quorum) == list(quorum)
        assert ask(shuffled, quorum, "read", "x").keys() == ask(plain, quorum, "read", "x").keys()
        assert "shuffled" in FailurePlan(shuffle_delivery=True).describe()


class TestAdversaryFleetModels:
    def test_fleet_kinds_and_flags(self):
        clique = FailureModel.timestamp_forging_clique(3, "FORGED", Timestamp(1, 7))
        assert clique.byzantine_count == 3
        assert clique.forges_values
        gray = FailureModel.gray_nodes(3, 0.3)
        assert gray.byzantine_count == 0
        assert not gray.forges_values
        assert FailureModel.message_reordering().byzantine_count == 0
        partition = FailureModel.targeted_partition([3, 1])
        assert partition.targets == (1, 3)
        assert partition.byzantine_count == 0

    def test_fleet_validation(self):
        with pytest.raises(ConfigurationError):
            FailureModel.gray_nodes(2, 1.5)
        with pytest.raises(ConfigurationError):
            FailureModel.targeted_partition([-1])
        with pytest.raises(ConfigurationError):
            FailureModel.gray_nodes(-1, 0.5)

    def test_fleet_describe(self):
        assert "targets=[0, 1]" in FailureModel.targeted_partition([0, 1]).describe()
        assert "drop_p=0.3" in FailureModel.gray_nodes(2, 0.3).describe()
        assert "message_reordering" in FailureModel.message_reordering().describe()

    def test_sampled_plans_match_their_model(self):
        rng = random.Random(5)
        partition = FailureModel.targeted_partition([0, 1]).sample_plan_for(10, rng)
        assert partition.crashed == frozenset({0, 1})
        reorder = FailureModel.message_reordering().sample_plan_for(10, rng)
        assert reorder.shuffle_delivery and not reorder.faulty_servers
        clique = FailureModel.timestamp_forging_clique(
            2, "FORGED", Timestamp(1, 7)
        ).sample_plan_for(10, rng)
        assert len(clique.byzantine_servers) == 2
        assert {b.fabricated_timestamp for b in clique.byzantine.values()} == {
            Timestamp(1, 7)
        }
        gray = FailureModel.gray_nodes(3, 0.4).sample_plan_for(10, rng)
        assert all(b.drop_p == 0.4 for b in gray.byzantine.values())

    def test_fleet_batch_masks(self):
        generator = np.random.default_rng(6)
        partition = FailureModel.targeted_partition([0, 4]).sample_masks(
            8, 5, generator
        )
        assert partition.crashed[:, [0, 4]].all()
        assert not partition.crashed[:, [1, 2, 3, 5, 6, 7]].any()
        reorder = FailureModel.message_reordering().sample_masks(8, 5, generator)
        assert not (reorder.crashed.any() or reorder.byzantine.any())
        clique = FailureModel.timestamp_forging_clique(
            3, "FORGED", Timestamp(1, 7)
        ).sample_masks(8, 200, generator)
        assert (clique.forgers.sum(axis=1) == 3).all()
        assert clique.fabricated_timestamp == Timestamp(1, 7)
        # Gray folds into the crash mask: at most `count` per trial, with the
        # effective probability 1 - (1-p)^2 per chosen server.
        gray = FailureModel.gray_nodes(4, 0.5).sample_masks(8, 4000, generator)
        assert (gray.crashed.sum(axis=1) <= 4).all()
        assert gray.crashed.sum() / (4 * 4000) == pytest.approx(0.75, abs=0.05)

    def test_batch_gray_fenced_off_multi_operation_kernels(self):
        system = ProbabilisticMaskingSystem(16, 8, 1)
        spec = ScenarioSpec(
            system=system, failure_model=FailureModel.gray_nodes(2, 0.3), writers=2
        )
        engine = BatchTrialEngine(spec)
        with pytest.raises(ConfigurationError, match="sequential"):
            engine.estimate_read_consistency(100)


class TestCluster:
    def test_initial_state(self, healthy_cluster):
        assert healthy_cluster.n == 25
        assert healthy_cluster.alive_servers() == set(range(25))
        assert healthy_cluster.correct_servers() == set(range(25))
        assert not healthy_cluster.byzantine_servers

    def test_failure_plan_applied(self):
        plan = FailurePlan(
            crashed=frozenset({0, 1}), byzantine={2: ByzantineSilentBehavior()}
        )
        cluster = Cluster(10, failure_plan=plan)
        assert cluster.crashed_servers == frozenset({0, 1})
        assert cluster.byzantine_servers == frozenset({2})
        assert cluster.correct_servers() == set(range(3, 10))
        assert cluster.failure_plan is plan

    def test_write_and_read_quorum(self, healthy_cluster):
        quorum = frozenset(range(5))
        acks = write(healthy_cluster, quorum, "v", Timestamp(1, 0))
        assert set(acks) == set(quorum)
        replies = ask(healthy_cluster, quorum, "read", "x")
        assert set(replies) == set(quorum)
        assert all(reply.value == "v" for reply in replies.values())
        assert healthy_cluster.servers_holding("x", "v") == quorum

    def test_crashed_servers_do_not_reply(self):
        cluster = Cluster(10, failure_plan=FailurePlan(crashed=frozenset({0, 1, 2})))
        quorum = frozenset(range(6))
        acks = write(cluster, quorum, "v", Timestamp(1, 0))
        assert set(acks) == {3, 4, 5}
        replies = ask(cluster, quorum, "read", "x")
        assert set(replies) == {3, 4, 5}

    def test_crash_and_recover_api(self, healthy_cluster):
        healthy_cluster.crash(3)
        assert 3 in healthy_cluster.crashed_servers
        healthy_cluster.recover(3)
        assert 3 not in healthy_cluster.crashed_servers

    def test_server_id_validation(self, healthy_cluster):
        with pytest.raises(ConfigurationError):
            healthy_cluster.crash(99)
        with pytest.raises(ConfigurationError):
            write(healthy_cluster, {99}, "v", Timestamp(1, 0))
        with pytest.raises(ConfigurationError):
            Cluster(0)

    def test_plan_with_invalid_server_rejected(self):
        plan = FailurePlan(crashed=frozenset({10}))
        with pytest.raises(ConfigurationError):
            Cluster(5, failure_plan=plan)


class TestClusterRandomness:
    """The cluster's random source feeds the reordering adversary and nothing
    else, so a trial's other draws cannot shift with the RPC count."""

    QUORUM = (5, 0, 3, 7, 1)
    RPCS = {
        "write": lambda cluster, quorum: write(cluster, quorum, "v", Timestamp(1, 0)),
        "read": lambda cluster, quorum: ask(cluster, quorum, "read", "x"),
        "lock": lambda cluster, quorum: ask(cluster, quorum, "lock", HOLDER, "x"),
    }

    @pytest.mark.parametrize("rpc", sorted(RPCS))
    def test_rpc_draws_nothing_without_shuffle_delivery(self, rpc):
        cluster = Cluster(8, seed=21)
        before = cluster.rng.getstate()
        for _ in range(3):
            self.RPCS[rpc](cluster, self.QUORUM)
        assert cluster.rng.getstate() == before

    @pytest.mark.parametrize("rpc", sorted(RPCS))
    def test_rpc_draws_exactly_one_shuffle_of_its_quorum(self, rpc):
        cluster = Cluster(8, failure_plan=FailurePlan(shuffle_delivery=True), seed=21)
        twin = random.Random(21)
        for _ in range(3):
            self.RPCS[rpc](cluster, self.QUORUM)
            twin.shuffle(list(self.QUORUM))
            assert cluster.rng.getstate() == twin.getstate()


_BEHAVIORS = {
    "correct": CorrectBehavior,
    "crashed": CrashedBehavior,
    "silent": ByzantineSilentBehavior,
    "forger": lambda: ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()),
    "replay": ByzantineReplayBehavior,
    "gray": lambda: GrayBehavior(0.5, seed=3),
}


class TestDirectDelivery:
    """A quorum RPC is the servers' own answers, nothing added or lost: the
    cluster's reply map and the servers' storage match a twin set of servers
    whose handlers are called by hand."""

    QUORUM = (3, 0, 2)
    LOCK = (REQUEST, "x", 1, Timestamp(1, 1), 1)

    def _via_cluster(self, cluster, rpc):
        acks = write(cluster, self.QUORUM, "v", Timestamp(1, 0))
        if rpc == "write":
            return acks
        if rpc == "read":
            return ask(cluster, self.QUORUM, "read", "x")
        return ask(cluster, self.QUORUM, "lock", *self.LOCK)

    def _by_hand(self, servers, rpc):
        write = ("x", "v", Timestamp(1, 0), None)
        replies = {s: servers[s].handle("write", write) for s in self.QUORUM}
        if rpc == "read":
            replies = {s: servers[s].handle("read", ("x",)) for s in self.QUORUM}
        elif rpc == "lock":
            replies = {s: servers[s].handle("lock", self.LOCK) for s in self.QUORUM}
        # Silence leaves no key; every answer, even "I store nothing", does.
        return {s: reply for s, reply in replies.items() if reply is not NO_REPLY}

    @pytest.mark.parametrize("rpc", ["write", "read", "lock"])
    @pytest.mark.parametrize("kind", sorted(_BEHAVIORS))
    def test_rpc_returns_exactly_what_the_servers_answer(self, kind, rpc):
        cluster = Cluster(4, seed=5)
        twins = [ReplicaServer(i, _BEHAVIORS[kind]()) for i in range(4)]
        for server in cluster.servers:
            server.behavior = _BEHAVIORS[kind]()
        assert self._via_cluster(cluster, rpc) == self._by_hand(twins, rpc)
        assert [server.storage for server in cluster.servers] == [
            twin.storage for twin in twins
        ]

    def test_gray_servers_lose_some_messages(self):
        plan = FailureModel.gray_nodes(20, 0.4).sample_plan_for(20, random.Random(9))
        cluster = Cluster(20, failure_plan=plan, seed=9)
        acks = write(cluster, frozenset(range(20)), "v", Timestamp(1, 0))
        assert 0 < len(acks) < 20
