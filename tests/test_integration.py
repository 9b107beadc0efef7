"""Cross-module integration scenarios.

Each test here wires several subsystems together the way a downstream user
would — quorum system + cluster + protocol + failure injection + diffusion +
probing — and checks an end-to-end property rather than a single module's
contract.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ProbabilisticDisseminationSystem,
    ProbabilisticMaskingSystem,
    UniformEpsilonIntersectingSystem,
)
from repro.analysis.repeated_access import union_bound_over_operations
from repro.apps import LocationService, VotingService
from repro.core.calibration import minimal_quorum_size_for_epsilon
from repro.protocol import (
    ProbabilisticRegister,
    QuorumLock,
    ReadRule,
    SignatureScheme,
    WriteBackRegister,
)
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.timestamps import Timestamp
from repro.quorum.probe import GreedyProbeStrategy, UniformProbeStrategy, oracle_from_alive_set
from repro.simulation import Cluster, DiffusionEngine, FailureModel


class TestCrashRecoveryScenario:
    def test_register_survives_a_rolling_outage(self):
        """Write, crash a wave of servers, read, recover, read again."""
        n = 60
        system = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-3)
        cluster = Cluster(n, seed=1)
        register = ProbabilisticRegister(system, cluster, rng=random.Random(1))

        write = register.write("before-outage")
        holders = cluster.servers_holding(register.name, "before-outage")
        for server in range(20):            # the outage hits
            cluster.crash(server)
        assert cluster.crashed_servers == frozenset(range(20))
        during = register.read()
        assert during.value in ("before-outage", None)

        for server in range(20):            # servers recover (state intact)
            cluster.recover(server)
        assert not cluster.crashed_servers
        assert cluster.servers_holding(register.name, "before-outage") == holders
        assert holders & set(range(20))     # the outage did hit some holders
        after = register.read()
        assert after.value == "before-outage"
        assert after.timestamp == write.timestamp

    def test_probing_finds_quorums_that_reads_then_use(self):
        """Use the prober to discover a live quorum, then read from exactly it."""
        n = 49
        system = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-3)
        plan = FailureModel.random_crashes(15).sample_plan_for(n, random.Random(3))
        cluster = Cluster(n, failure_plan=plan, seed=3)
        register = ProbabilisticRegister(system, cluster, rng=random.Random(3))
        register.write("payload")

        prober = UniformProbeStrategy(n, system.quorum_size)
        result = prober.probe(oracle_from_alive_set(cluster.alive_servers()), random.Random(3))
        assert result.found
        replies = cluster.run(QuorumOp(result.quorum), "read", ("x",)).replies
        assert len(replies) <= len(result.quorum)
        # Every probed-live server actually answers.
        assert set(replies) <= set(result.quorum)


class TestByzantineScenario:
    def test_signed_register_with_gossip_repair(self):
        """Self-verifying data + gossip: forgeries never spread, freshness does."""
        n, b = 50, 10
        system = ProbabilisticDisseminationSystem.for_epsilon(n, b, 1e-2)
        scheme = SignatureScheme(b"integration")
        plan = FailureModel.colluding_forgers(
            b, "FORGED", Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(4))
        cluster = Cluster(n, failure_plan=plan, seed=4)
        register = ProbabilisticRegister(
            system, cluster, rng=random.Random(4), rule=ReadRule(signatures=scheme)
        )
        write = register.write("genuine")

        def verify(variable, stored):
            return isinstance(stored.timestamp, Timestamp) and scheme.verify(
                variable, stored.value, stored.timestamp, stored.signature
            )

        engine = DiffusionEngine(cluster, fanout=3, verify=verify, rng=random.Random(4))
        engine.run_rounds(6, ["x"])
        # After gossip, every correct server holds the genuine value.
        for server_id in cluster.correct_servers():
            stored = cluster.server(server_id).storage.get("x")
            assert stored is not None and stored.value == "genuine"
        # And reads are now deterministic despite the forgers.
        for _ in range(10):
            outcome = register.read()
            assert outcome.value == "genuine"
            assert outcome.timestamp == write.timestamp

    def test_lock_protects_a_masking_register_update(self):
        """A lock and a register sharing one cluster and one quorum system."""
        n, b = 64, 6
        system = ProbabilisticMaskingSystem.for_epsilon(n, b, 1e-2)
        plan = FailureModel.colluding_forgers(
            b, "FORGED", Timestamp.forged_maximum()
        ).sample_plan_for(n, random.Random(5))
        cluster = Cluster(n, failure_plan=plan, seed=5)
        lock = QuorumLock(system, cluster, name="writer-election", rng=random.Random(5))
        register = ProbabilisticRegister(
            system,
            cluster,
            name="ledger",
            rng=random.Random(6),
            rule=ReadRule(threshold=system.read_threshold),
        )

        assert lock.acquire(client_id=1).acquired
        register.write("entry-1")
        assert not lock.acquire(client_id=2).acquired
        outcome = register.read()
        assert outcome.value == "entry-1"
        lock.release(client_id=1)
        assert lock.acquire(client_id=2).acquired


class TestApplicationScenario:
    def test_voting_and_location_share_a_cluster(self):
        """Two applications can coexist on one cluster without interference."""
        n = 80
        rng = random.Random(7)
        plain = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-3)
        plan = FailureModel.random_crashes(10).sample_plan_for(n, rng)
        cluster = Cluster(n, failure_plan=plan, seed=7)

        voting = VotingService(plain, cluster, rng=rng)
        location = LocationService(plain, cluster, gossip_fanout=3, rng=rng)

        for voter in range(30):
            assert voting.cast_vote(f"voter-{voter}", station_id=voter % 5).accepted
        location.update_location("phone-1", "cell-A")
        location.update_location("phone-1", "cell-B")
        location.run_gossip(2)

        assert not voting.cast_vote("voter-3", station_id=9).accepted
        answer = location.locate("phone-1")
        assert answer.found and answer.cell == "cell-B"
        assert voting.audit().duplicates_admitted == 0

    def test_budgeted_calibration_end_to_end(self):
        """Size a system from an end-to-end inconsistency budget and verify it."""
        n = 144
        operations = 2000
        total_budget = 0.02
        per_operation = total_budget / operations
        q = minimal_quorum_size_for_epsilon(n, per_operation)
        system = UniformEpsilonIntersectingSystem(n, q)
        assert system.epsilon <= per_operation
        assert union_bound_over_operations(system.epsilon, operations) <= total_budget
        # The budgeted system still has Theta(sqrt(n)) quorums.
        assert q <= 4 * (n ** 0.5)

    def test_write_back_register_with_crashes(self):
        """Read repair keeps data reachable even as the original writers' quorum dies."""
        n = 49
        system = UniformEpsilonIntersectingSystem.for_epsilon(n, 1e-2)
        cluster = Cluster(n, seed=9)
        register = WriteBackRegister(system, cluster, rng=random.Random(9))
        write = register.write("durable")
        # Several repairing reads spread the value...
        for _ in range(4):
            register.read()
        # ...then the entire original write quorum crashes.
        for server in write.quorum:
            cluster.crash(server)
        outcome = register.read()
        assert outcome.value == "durable"
