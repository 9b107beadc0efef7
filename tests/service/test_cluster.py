"""Process-per-shard cluster deployments: lifecycle, health, teardown.

The contract under test is operational, not statistical: a
:class:`~repro.service.cluster.ClusterDeployment` must leave **zero orphan
processes** however it ends — a normal ``aclose``, Ctrl-C (SIGINT reaching
the children), or a shard server dying mid-flight — and must keep serving
the shards that remain.  The multi-process load partitioner is checked as
a pure function: the per-worker slices must reassemble exactly into the
single-process workload (keys, write versions, reader clients, writer
identities), or the merged report would quietly measure a different
experiment.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time

import pytest

from repro.api import Deployment
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.service.cluster import ClusterDeployment, deploy, partition_load
from repro.service.load import ServiceLoadSpec
from repro.service.net import TcpTransport
from repro.service.sharding import ShardedDeployment
from repro.simulation.scenario import ScenarioSpec


def run(coroutine):
    return asyncio.run(coroutine)


def scenario() -> ScenarioSpec:
    return ScenarioSpec(system=ProbabilisticMaskingSystem(25, 10, 3))


def assert_no_orphans(pids) -> None:
    """Every pid must be gone from the process table (children are joined
    by ``aclose``, so a lingering zombie would still show up here)."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def wait_for_exit(deployment, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while any(deployment.process_health()) and time.monotonic() < deadline:
        time.sleep(0.05)


class TestClusterLifecycle:
    def test_normal_exit_leaves_no_orphans(self):
        async def main():
            cluster = ClusterDeployment(
                scenario(), shards=2, codec="binary", rng=random.Random(7)
            )
            async with cluster:
                pids = list(cluster.pids)
                assert len(pids) == 2
                assert cluster.processes_alive == 2
                assert await cluster.probe() == [True, True]
                client = cluster.new_register_client(random.Random(3), deadline=2.0)
                await client.write("x", ("hello", 1))
                outcome = await client.read("x")
                assert outcome.value == ("hello", 1)
            return pids

        pids = run(main())
        assert_no_orphans(pids)

    def test_aclose_is_idempotent(self):
        async def main():
            cluster = ClusterDeployment(scenario(), shards=1, rng=random.Random(11))
            await cluster.start()
            pids = list(cluster.pids)
            await cluster.aclose()
            await cluster.aclose()
            return pids

        assert_no_orphans(run(main()))

    def test_sigint_to_children_leaves_no_orphans(self):
        """Ctrl-C reaches the whole foreground process group: the children
        shut their servers down on SIGINT and exit by themselves; the
        parent's ``aclose`` then has nothing left to kill."""

        async def main():
            cluster = ClusterDeployment(scenario(), shards=2, rng=random.Random(13))
            await cluster.start()
            pids = list(cluster.pids)
            for pid in pids:
                os.kill(pid, signal.SIGINT)
            await asyncio.get_running_loop().run_in_executor(
                None, wait_for_exit, cluster
            )
            assert cluster.processes_alive == 0
            await cluster.aclose()
            return pids

        assert_no_orphans(run(main()))

    def test_crashed_shard_is_detected_and_torn_down(self):
        """A shard server dying mid-flight (SIGKILL: no cleanup handlers)
        flips its health bit and fails its probe; the surviving shard keeps
        serving, and teardown still leaves nothing behind."""

        async def main():
            cluster = ClusterDeployment(
                scenario(), shards=2, codec="binary", rng=random.Random(17)
            )
            await cluster.start()
            pids = list(cluster.pids)
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while cluster.process_health()[0] and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            assert cluster.process_health() == [False, True]
            probes = await cluster.probe(timeout=0.5)
            assert probes[0] is False and probes[1] is True
            # The surviving shard still serves: pick a key it owns.
            client = cluster.new_register_client(random.Random(5), deadline=2.0)
            key = next(
                f"k{i}" for i in range(64) if cluster.shard_for(f"k{i}") == 1
            )
            await client.write(key, ("still-up", 1))
            outcome = await client.read(key)
            assert outcome.value == ("still-up", 1)
            await cluster.aclose()
            return pids

        assert_no_orphans(run(main()))

    def test_start_failure_cleans_up_started_shards(self):
        """If any shard cannot come up, the shards that did are torn down
        before the error escapes (no half-started cluster leaks)."""

        async def main():
            cluster = ClusterDeployment(
                scenario(), shards=1, rng=random.Random(19), start_timeout=0.0
            )
            with pytest.raises(Exception):
                await cluster.start()
            assert cluster._processes == []

        run(main())


    def test_client_connect_failure_reaps_the_spawned_servers(self, monkeypatch):
        """The wiring that can fail sits inside the one ``try`` that cleans
        up: when the second shard's client transport cannot connect, every
        server process already spawned is reaped before the error escapes
        ``async with`` (whose ``__aexit__`` never runs for a failed enter)."""
        deployment = (
            Deployment.builder(scenario())
            .processes(1)
            .shards(2)
            .deadline(2.0)
            .seed(23)
            .build()
        )
        seen = {"connects": 0, "pids": []}
        real_connect = TcpTransport.connect

        async def failing_connect(transport, *args, **kwargs):
            seen["connects"] += 1
            if seen["connects"] == 2:
                seen["pids"] = list(deployment.sharded.pids)
                raise OSError("injected connect failure")
            return await real_connect(transport, *args, **kwargs)

        monkeypatch.setattr(TcpTransport, "connect", failing_connect)

        async def main():
            with pytest.raises(OSError, match="injected connect failure"):
                async with deployment:
                    pass  # pragma: no cover - the enter itself fails
            assert deployment.sharded.processes_alive == 0

        run(main())
        assert len(seen["pids"]) == 2
        assert_no_orphans(seen["pids"])


class TestClusterFacade:
    def test_api_processes_builds_a_cluster_with_locks(self):
        async def main():
            deployment = (
                Deployment.builder(scenario())
                .processes(1)
                .codec("binary")
                .shards(2)
                .deadline(2.0)
                .seed(5)
                .build()
            )
            assert deployment.transport == "tcp"  # implied by processes()
            assert isinstance(deployment.sharded, ClusterDeployment)
            async with deployment:
                pids = list(deployment.sharded.pids)
                registers = deployment.connect()
                await registers.write("x", "hello")
                outcome = await registers.read("x")
                assert outcome.value == "hello"
                lock = deployment.lock_client("leader", client_id=1)
                grant = await lock.acquire()
                assert grant is not None
                await lock.release()
            return pids

        assert_no_orphans(run(main()))

    def test_codec_validation(self):
        with pytest.raises(ConfigurationError):
            Deployment.builder(scenario()).codec("msgpack")
        with pytest.raises(ConfigurationError):
            Deployment.builder(scenario()).processes(-1)

    def test_deploy_picks_the_shape_from_the_process_count(self):
        in_loop = deploy(scenario(), shards=2, rng=random.Random(1))
        assert isinstance(in_loop, ShardedDeployment)
        assert in_loop.transport_mode == "inproc"
        cluster = deploy(scenario(), processes=1, shards=2, rng=random.Random(1))
        assert isinstance(cluster, ClusterDeployment)
        assert cluster.transport_mode == "tcp"
        assert cluster.pids == []  # nothing spawns before start()

    def test_bad_conditions_are_refused_before_any_process_spawns(self):
        for conditions in (
            dict(latency=-1.0),
            dict(latency=0.001, jitter=0.01),
            dict(drop_probability=1.0),
        ):
            with pytest.raises(ConfigurationError):
                ClusterDeployment(scenario(), shards=2, **conditions)
            with pytest.raises(ConfigurationError):
                deploy(scenario(), processes=1, **conditions)


class TestPartitionLoad:
    def spec(self, processes: int, clients: int = 10, keys: int = 7, writes: int = 23):
        return ServiceLoadSpec(
            scenario=scenario(),
            clients=clients,
            reads_per_client=2,
            writes=writes,
            transport="tcp",
            shards=2,
            keys=keys,
            codec="binary",
            processes=processes,
            seed=3,
        )

    def test_partition_reassembles_the_global_workload(self):
        spec = self.spec(processes=3)
        configs = partition_load(spec)
        assert len(configs) == 3
        # Keys: disjoint cover of the global key list, global ranks intact.
        all_ranks = sorted(rank for c in configs for rank in c.key_ranks)
        assert all_ranks == list(range(spec.keys))
        for config in configs:
            assert list(config.key_ranks) == sorted(set(config.key_ranks))
        # Write versions: disjoint cover of the global version sequence,
        # and every version lands with the worker that owns its key.
        all_versions = sorted(v for c in configs for c_v in [c.versions] for v in c_v)
        assert all_versions == list(range(spec.writes))
        for config in configs:
            for version in config.versions:
                assert (version % spec.keys) in config.key_ranks
        # Readers: every client accounted for exactly once.
        assert sum(c.readers for c in configs) == spec.clients
        # Writer identities: globally disjoint blocks.
        bases = [c.writer_id_base for c in configs]
        assert len(set(bases)) == len(bases)
        for first, second in zip(sorted(bases), sorted(bases)[1:]):
            assert second - first >= spec.resolved_writers

    def test_single_worker_owns_everything(self):
        spec = self.spec(processes=1)
        (config,) = partition_load(spec)
        assert list(config.key_ranks) == list(range(spec.keys))
        assert list(config.versions) == list(range(spec.writes))
        assert config.readers == spec.clients

    def test_spec_validation_refuses_unpartitionable_loads(self):
        with pytest.raises(ConfigurationError):
            self.spec(processes=9, keys=7, clients=10)  # workers > keys
        with pytest.raises(ConfigurationError):
            self.spec(processes=5, keys=7, clients=4)  # workers > clients
        with pytest.raises(ConfigurationError):
            ServiceLoadSpec(
                scenario=scenario(),
                clients=4,
                reads_per_client=1,
                writes=4,
                transport="inproc",  # processes need real sockets
                processes=2,
                keys=4,
                seed=1,
            )
