"""Tests for multi-register sharding (`repro.service.sharding`)."""

from __future__ import annotations

import asyncio
import random
from collections import Counter

import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.service.load import ServiceLoadSpec, key_names, key_weight_cdf, run_service_load
from repro.service.sharding import (
    TRANSPORT_MODES,
    DeploymentSpec,
    ShardedAsyncRegisterClient,
    ShardedDeployment,
    shard_for_key,
)
from repro.simulation.scenario import ScenarioSpec

MASKING = ProbabilisticMaskingSystem(25, 10, 3)
SCENARIO = ScenarioSpec(system=MASKING)


def run(coroutine):
    return asyncio.run(coroutine)


class TestShardRouting:
    def test_routing_is_total_and_in_range(self):
        for shards in (1, 2, 3, 4, 7, 16):
            for key in key_names(257):
                assert 0 <= shard_for_key(key, shards) < shards

    def test_routing_is_stable_across_calls_and_processes(self):
        # BLAKE2b, not Python's randomised hash(): these exact values must
        # hold in every process, forever — clients routing independently
        # (different machines, restarts) must agree on every key's shard.
        assert [shard_for_key(f"x{i}", 4) for i in range(8)] == [
            shard_for_key(f"x{i}", 4) for i in range(8)
        ]
        assert shard_for_key("x", 1) == 0
        pinned = {"x0": 3, "x1": 1, "x2": 0, "user:42": 2, "": 0}
        for key, expected in pinned.items():
            assert shard_for_key(key, 4) == expected, (key, shard_for_key(key, 4))

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            shard_for_key("x", 0)

    def test_keys_spread_roughly_uniformly(self):
        shards = 4
        counts = Counter(shard_for_key(key, shards) for key in key_names(1000))
        for shard in range(shards):
            # Binomial(1000, 1/4): 6σ band around 250.
            assert abs(counts[shard] - 250) < 6 * (1000 * 0.25 * 0.75) ** 0.5


class TestLoadBands:
    def tally_shard_load(self, skew: float, keys: int = 256, draws: int = 20_000):
        """Simulate the harness's key draws; return per-shard load fractions."""
        shards = 4
        cdf = key_weight_cdf(keys, skew)
        names = key_names(keys)
        rng = random.Random(7)
        counts = Counter()
        # Exactly the harness's draw: choices over the cumulative weights.
        for key in rng.choices(names, cum_weights=cdf, k=draws):
            counts[shard_for_key(key, shards)] += 1
        return [counts[shard] / draws for shard in range(shards)]

    def test_uniform_keys_balance_within_a_tight_band(self):
        loads = self.tally_shard_load(skew=0.0)
        for load in loads:
            assert 0.20 <= load <= 0.30  # fair share is 0.25

    def test_zipf_keys_stay_within_a_loose_band(self):
        # With 256 keys hashed over 4 shards a zipf(0.8) workload still
        # spreads: no shard may starve or absorb a majority of the traffic.
        loads = self.tally_shard_load(skew=0.8)
        for load in loads:
            assert 0.10 <= load <= 0.45

    def test_cdf_is_monotone_and_ends_at_one(self):
        for skew in (0.0, 0.5, 1.2):
            cdf = key_weight_cdf(64, skew)
            assert all(a < b for a, b in zip(cdf, cdf[1:]))
            assert cdf[-1] == 1.0

    def test_skew_concentrates_mass_on_early_ranks(self):
        uniform, skewed = key_weight_cdf(100, 0.0), key_weight_cdf(100, 1.0)
        assert skewed[9] > uniform[9]  # top-10 keys absorb more mass


class TestShardedDeployment:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedDeployment(DeploymentSpec(scenario="not a scenario"))
        with pytest.raises(ConfigurationError):
            ShardedDeployment(DeploymentSpec(scenario=SCENARIO, shards=0))
        with pytest.raises(ConfigurationError):
            ShardedDeployment(DeploymentSpec(scenario=SCENARIO, transport="carrier-pigeon"))
        assert TRANSPORT_MODES == ("inproc", "tcp")

    def test_bad_conditions_are_refused_at_construction_on_both_transports(self):
        # Over TCP the refusal comes before start() binds a socket.
        for transport in TRANSPORT_MODES:
            with pytest.raises(ConfigurationError, match="latency"):
                ShardedDeployment(DeploymentSpec(scenario=SCENARIO, transport=transport, latency=-1.0))
            with pytest.raises(ConfigurationError, match="jitter"):
                ShardedDeployment(
                    DeploymentSpec(
                        scenario=SCENARIO, transport=transport, latency=0.001, jitter=0.01
                    )
                )
            with pytest.raises(ConfigurationError, match="drop probability"):
                ShardedDeployment(
                    DeploymentSpec(scenario=SCENARIO, transport=transport, drop_probability=1.0)
                )

    def test_deployment_spec_refuses_none_deadline_only_over_tcp(self):
        with pytest.raises(ConfigurationError, match="deadline=None"):
            DeploymentSpec(scenario=SCENARIO, transport="tcp", deadline=None)
        DeploymentSpec(scenario=SCENARIO, transport="tcp", deadline=0.05)
        DeploymentSpec(scenario=SCENARIO, transport="inproc", deadline=None)
        DeploymentSpec(scenario=SCENARIO, transport="inproc", deadline=0.05)

    def test_shards_are_independent_replica_groups(self):
        deployment = ShardedDeployment(DeploymentSpec(scenario=SCENARIO, shards=3), random.Random(1))
        assert deployment.shard_count == 3
        all_nodes = [node for shard in deployment.shards for node in shard.nodes]
        assert len(all_nodes) == 3 * 25
        assert len({id(node) for node in all_nodes}) == 3 * 25
        transports = {id(shard.transport) for shard in deployment.shards}
        assert len(transports) == 3

    def test_client_count_must_match_shards(self):
        deployment = ShardedDeployment(DeploymentSpec(scenario=SCENARIO, shards=2), random.Random(1))
        client = deployment.client_for_shard(0, rng=random.Random(2))
        with pytest.raises(ConfigurationError):
            ShardedAsyncRegisterClient(deployment, [client])

    def test_clients_take_the_spec_deadline(self):
        deployment = ShardedDeployment(
            DeploymentSpec(scenario=SCENARIO, shards=2, deadline=1.0), random.Random(1)
        )
        assert deployment.client_for_shard(0).deadline == 1.0
        assert deployment.client_for_shard(1).deadline == 1.0
        register_client = deployment.new_register_client(random.Random(2))
        assert [client.deadline for client in register_client.clients] == [1.0, 1.0]
        unbounded = ShardedDeployment(
            DeploymentSpec(scenario=SCENARIO, deadline=None), random.Random(1)
        )
        assert unbounded.client_for_shard(0).deadline is None

    def test_writes_land_only_on_the_keys_shard(self):
        async def scenario():
            deployment = ShardedDeployment(
                DeploymentSpec(scenario=SCENARIO, shards=2, deadline=1.0), random.Random(3)
            )
            client = deployment.new_register_client(random.Random(4))
            keys = [f"x{i}" for i in range(6)]
            for key in keys:
                await client.write(key, f"value-{key}")
            for key in keys:
                home = shard_for_key(key, 2)
                holders_home = sum(
                    1
                    for node in deployment.shards[home].nodes
                    if node.stored(key) is not None
                )
                holders_other = sum(
                    1
                    for node in deployment.shards[1 - home].nodes
                    if node.stored(key) is not None
                )
                assert holders_home == 10  # the write quorum
                assert holders_other == 0  # never crosses shards
                outcome = await client.read(key)
                assert outcome.value in (f"value-{key}", None)

        run(scenario())

    def test_crashed_shard_only_affects_its_own_keys(self):
        async def scenario():
            deployment = ShardedDeployment(
                DeploymentSpec(scenario=SCENARIO, shards=2, deadline=0.01), random.Random(5)
            )
            client = deployment.new_register_client(random.Random(6))
            keys = [f"x{i}" for i in range(8)]
            for key in keys:
                await client.write(key, "before-the-crash")
            dead_shard = 0
            for node in deployment.shards[dead_shard].nodes:
                node.crash()
            for key in keys:
                if shard_for_key(key, 2) == dead_shard:
                    # Its shard is gone: reads return ⊥, writes find no quorum.
                    outcome = await client.read(key)
                    assert outcome.value is None
                    with pytest.raises(QuorumUnavailableError):
                        await client.write(key, "after-the-crash")
                else:
                    # The surviving shard neither lost data nor availability.
                    outcome = await client.read(key)
                    assert outcome.value == "before-the-crash"
                    write = await client.write(key, "after-the-crash")
                    assert len(write.acknowledged) == 10

        run(scenario())

    def test_tcp_deployment_starts_and_serves(self):
        async def scenario():
            deployment = ShardedDeployment(
                DeploymentSpec(scenario=SCENARIO, shards=2, transport="tcp", deadline=1.0),
                random.Random(7),
            )
            async with deployment:
                ports = {shard.server.port for shard in deployment.shards}
                assert len(ports) == 2
                client = deployment.new_register_client(random.Random(8))
                await client.write("x0", "tcp-value")
                outcome = await client.read("x0")
                assert outcome.value in ("tcp-value", None)
            assert not deployment.shards[0].server.serving

        run(scenario())

    def test_client_connect_failure_stops_the_started_servers(self, monkeypatch):
        """A ``start()`` that fails at the client-side connect of the second
        shard leaves no in-loop socket server listening behind it."""
        from repro.api import Deployment
        from repro.service.net import TcpTransport

        connects = []
        real_connect = TcpTransport.connect

        async def failing_connect(transport, *args, **kwargs):
            connects.append(transport)
            if len(connects) == 2:
                raise OSError("injected connect failure")
            return await real_connect(transport, *args, **kwargs)

        monkeypatch.setattr(TcpTransport, "connect", failing_connect)
        deployment = (
            Deployment.builder(SCENARIO).transport("tcp").shards(2).seed(9).build()
        )

        async def scenario():
            with pytest.raises(OSError, match="injected connect failure"):
                async with deployment:
                    pass  # pragma: no cover - the enter itself fails
            assert [shard.server.serving for shard in deployment.sharded.shards] == [
                False,
                False,
            ]
            with pytest.raises(ConfigurationError, match="start"):
                deployment.connect()

        run(scenario())

    def test_clients_require_a_started_tcp_deployment(self):
        deployment = ShardedDeployment(
            DeploymentSpec(scenario=SCENARIO, transport="tcp"), random.Random(9)
        )
        with pytest.raises(ConfigurationError, match="start"):
            deployment.client_for_shard(0)


class TestShardedLoadHarness:
    def base_spec(self, **overrides):
        defaults = dict(
            scenario=SCENARIO,
            clients=20,
            reads_per_client=4,
            writes=8,
            shards=2,
            keys=8,
            seed=11,
        )
        defaults.update(overrides)
        return ServiceLoadSpec(**defaults)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.base_spec(shards=0)
        with pytest.raises(ConfigurationError):
            self.base_spec(keys=0)
        with pytest.raises(ConfigurationError):
            self.base_spec(key_skew=-0.1)
        with pytest.raises(ConfigurationError):
            self.base_spec(transport="smoke-signals")
        with pytest.raises(ConfigurationError, match="idle"):
            self.base_spec(shards=4, keys=2)
        with pytest.raises(ConfigurationError, match="deadline"):
            self.base_spec(transport="tcp", deadline=None)

    def test_sharded_run_completes_and_tallies_per_shard_ops(self):
        report = run_service_load(self.base_spec())
        assert report.reads_completed == 80
        assert report.writes_completed == 8
        assert len(report.shard_ops) == 2
        assert sum(report.shard_ops) == report.operations
        assert all(ops > 0 for ops in report.shard_ops)
        assert report.violations == 0
        assert len(report.per_shard_throughput) == 2
        assert "per-shard" in report.render()

    def test_zipf_workload_completes_with_zero_violations(self):
        report = run_service_load(self.base_spec(key_skew=1.0, seed=13))
        assert report.reads_completed == 80
        assert report.violations == 0

    def test_single_key_run_reports_one_shard(self):
        report = run_service_load(
            ServiceLoadSpec(scenario=SCENARIO, clients=10, reads_per_client=3, writes=4, seed=3)
        )
        assert report.shard_ops == [report.operations]
        assert "per-shard" not in report.render()
