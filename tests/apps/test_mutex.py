"""Tests for the quorum-backed distributed lock service."""

from __future__ import annotations

import asyncio
import random

import pytest

import repro.apps.mutex as mutex_module
from repro.apps.mutex import (
    AsyncQuorumMutex,
    LockLoadSpec,
    jain_fairness,
    lock_variable,
    mutex_for,
    run_lock_load,
)
from repro.exceptions import ConfigurationError, ProtocolError
from repro.experiments.serve import serve_scenario
from repro.service.load import FaultInjectionSpec
from repro.service.sharding import DeploymentSpec, ShardedDeployment
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec
from repro.simulation.failures import FailureModel
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem

SCENARIO = ScenarioSpec(
    system=UniformEpsilonIntersectingSystem.for_epsilon(36, 1e-4),
    failure_model=FailureModel.none(),
    workload=WorkloadSpec(writes=1),
)


def deploy_mutexes(scenario, clients, seed=0):
    """An in-process deployment plus one mutex handle per client id."""
    rng = random.Random(seed)
    deployment = ShardedDeployment(DeploymentSpec(scenario=scenario), rng)
    mutexes = [
        mutex_for(
            scenario,
            deployment.client_for_shard(
                0, rng=random.Random(rng.randrange(2**63)), deadline=0.05
            ),
            name="L",
            client_id=client_id,
            rng=random.Random(rng.randrange(2**63)),
        )
        for client_id in range(clients)
    ]
    return deployment, mutexes


def run(coro):
    return asyncio.run(coro)


class TestMutexBasics:
    def test_acquire_hold_release_cycle(self):
        async def scenario():
            _, (mutex,) = deploy_mutexes(SCENARIO, 1)
            attempt = await mutex.request()
            assert attempt.granted
            assert attempt.timestamp is not None
            assert mutex.held
            assert await mutex.holder() == 0
            await mutex.release()
            assert not mutex.held
            assert await mutex.holder() is None

        run(scenario())

    def test_second_client_sees_the_holder_and_waits(self):
        async def scenario():
            _, (first, second) = deploy_mutexes(SCENARIO, 2)
            assert (await first.request()).granted
            attempt = await second.request()
            assert not attempt.granted
            assert attempt.holder_seen == 0
            await first.release()
            assert (await second.request()).granted

        run(scenario())

    def test_reacquire_while_holding_raises(self):
        async def scenario():
            _, (mutex,) = deploy_mutexes(SCENARIO, 1)
            await mutex.request()
            with pytest.raises(ProtocolError):
                await mutex.request()

        run(scenario())

    def test_release_without_holding_raises(self):
        async def scenario():
            _, (mutex,) = deploy_mutexes(SCENARIO, 1)
            with pytest.raises(ProtocolError):
                await mutex.release()

        run(scenario())

    def test_acquire_gives_up_after_max_requests(self):
        async def scenario():
            _, (first, second) = deploy_mutexes(SCENARIO, 2)
            await first.request()
            with pytest.raises(ProtocolError, match="gave up"):
                await second.acquire(retry_interval=0.0001, max_requests=3)

        run(scenario())

    def test_validation(self):
        async def scenario():
            deployment, (mutex,) = deploy_mutexes(SCENARIO, 1)
            with pytest.raises(ProtocolError):
                AsyncQuorumMutex(mutex.client, "L", client_id=-1)
            with pytest.raises(ConfigurationError):
                AsyncQuorumMutex(mutex.client, "", client_id=0)

        run(scenario())

    def test_lock_variable_namespacing(self):
        assert lock_variable("a") == "quorum-lock:a"
        _, (mutex,) = deploy_mutexes(SCENARIO, 1)
        assert mutex.variable == "quorum-lock:L"


class TestReleaseFencing:
    def test_backed_off_record_does_not_block_others(self):
        # A contender that conceded annuls its own record; a later client
        # must then be able to acquire even though the backed-off held
        # record still sits on some replicas.
        async def scenario():
            _, mutexes = deploy_mutexes(SCENARIO, 3, seed=3)
            first, second, third = mutexes
            # Force a back-off: write both held records, then have the
            # second verify (it sees the first's record and concedes).
            await first.request()
            attempt = await second.request()
            assert not attempt.granted
            await first.release()
            # The second's back-off (if its write raced in) was annulled,
            # so the third client acquires cleanly.
            grant = await third.acquire(retry_interval=0.0001, max_requests=50)
            assert grant.granted

        run(scenario())

    def test_release_is_per_holder(self):
        # One client's release must not fence another client's live grant.
        async def scenario():
            _, (first, second) = deploy_mutexes(SCENARIO, 2, seed=4)
            await first.request()
            await first.release()
            assert (await second.request()).granted
            # first knows its own release; second's newer grant survives it.
            assert await first.holder() == 1

        run(scenario())


class TestLockLoadHarness:
    def base_spec(self, **overrides):
        defaults = dict(
            scenario=serve_scenario(n=36, quorum_size=18, b=2, byzantine=True),
            clients=4,
            acquisitions_per_client=2,
            locks=2,
            deadline=0.02,
            seed=11,
            fault_injection=FaultInjectionSpec(crash_count=2, interval=0.002),
        )
        defaults.update(overrides)
        return LockLoadSpec(**defaults)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.base_spec(clients=0)
        with pytest.raises(ConfigurationError):
            self.base_spec(acquisitions_per_client=0)
        with pytest.raises(ConfigurationError):
            self.base_spec(locks=0)
        with pytest.raises(ConfigurationError):
            self.base_spec(hold_time=-0.1)
        with pytest.raises(ConfigurationError):
            self.base_spec(retry_interval=0.0)
        with pytest.raises(ConfigurationError):
            self.base_spec(transport="pigeon")
        with pytest.raises(ConfigurationError):
            self.base_spec(transport="tcp", deadline=None)
        with pytest.raises(ConfigurationError):
            self.base_spec(scenario="not-a-scenario")

    def test_spec_refuses_bad_conditions_before_deploying(self):
        with pytest.raises(ConfigurationError, match="latency"):
            self.base_spec(latency=-1.0)
        with pytest.raises(ConfigurationError, match="jitter"):
            self.base_spec(latency=0.001, jitter=0.01)
        with pytest.raises(ConfigurationError, match="drop probability"):
            self.base_spec(transport="tcp", drop_probability=1.0)

    def test_contended_run_grants_everyone_without_double_grants(self):
        report = run_lock_load(self.base_spec())
        assert report.grants == 8
        assert report.releases == 8
        assert report.double_grants == 0
        assert report.give_ups == 0
        assert report.starved_clients == 0
        assert report.fairness == pytest.approx(1.0)
        assert len(report.wait_times) == report.grants
        rendered = report.render()
        assert "double grants" in rendered
        assert "Jain" in rendered

    def test_single_hot_lock_stays_safe_and_fair(self):
        report = run_lock_load(
            self.base_spec(clients=6, acquisitions_per_client=3, locks=1)
        )
        assert report.grants == 18
        assert report.double_grants == 0
        assert report.fairness > 0.9

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_a_non_positive_deadline_is_refused_at_construction(self, deadline):
        with pytest.raises(ConfigurationError, match="deadline must be positive"):
            self.base_spec(deadline=deadline)

    def test_live_churn_is_refused_on_a_cluster(self):
        # inject_faults would find no in-process node and crash nothing.
        with pytest.raises(ConfigurationError, match="live fault injection"):
            LockLoadSpec(
                scenario=SCENARIO,
                transport="tcp",
                processes=1,
                fault_injection=FaultInjectionSpec(crash_count=1),
            )

    def test_each_lock_lives_on_the_shard_its_variable_routes_to(self, monkeypatch):
        # Over two shards "lock0" and "lock1" both route to shard 0 and
        # "lock2" to shard 1, so three locks use both replica groups.
        spec = LockLoadSpec(
            scenario=SCENARIO, clients=4, acquisitions_per_client=3, locks=3, shards=2, seed=5
        )
        deployments = []
        deploy = mutex_module.deploy

        def recording_deploy(*args, **kwargs):
            deployments.append(deploy(*args, **kwargs))
            return deployments[-1]

        monkeypatch.setattr(mutex_module, "deploy", recording_deploy)
        report = run_lock_load(spec)
        assert report.grants == 12
        assert report.double_grants == 0
        assert report.fabricated_records == 0
        (deployment,) = deployments
        expected = [set(), set()]
        for name in spec.lock_names():
            expected[deployment.shard_for(lock_variable(name))].add(lock_variable(name))
        assert all(expected)
        for index, shard in enumerate(deployment.shards):
            seen = {variable for node in shard.nodes for variable in node.server.arbiter.locks}
            assert seen == expected[index]

    def test_a_trace_rate_puts_lock_steps_on_the_report(self):
        traced = run_lock_load(LockLoadSpec(scenario=SCENARIO, clients=2, trace_sample=1.0))
        assert {trace["context"]["step"] for trace in traced.traces} >= {"request", "release"}
        assert run_lock_load(LockLoadSpec(scenario=SCENARIO, clients=2)).traces == []

    def test_jain_fairness(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([10, 0, 0]) == pytest.approx(1.0 / 3.0)
