"""Process-per-shard cluster deployments: lifecycle, health, teardown.

The contract under test is operational, not statistical: a
:class:`~repro.service.cluster.ClusterDeployment` must leave **zero orphan
processes** however it ends — a normal ``aclose``, Ctrl-C (SIGINT reaching
the children), or a shard server dying mid-flight — and must keep serving
the shards that remain.  The load that drives a cluster runs in the
caller's process, so a cluster load spec accepts everything an in-loop one
does except live fault injection (the nodes live in other processes).
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
from repro.service.cluster import ClusterDeployment, deploy
from repro.service.load import (
    FaultInjectionSpec,
    ServiceLoadSpec,
    key_names,
    run_service_load,
)
from repro.service.net import TcpTransport
from repro.service.sharding import DeploymentSpec, ShardedDeployment
from repro.simulation.scenario import ScenarioSpec


def run(coroutine):
    return asyncio.run(coroutine)


def scenario() -> ScenarioSpec:
    return ScenarioSpec(system=ProbabilisticMaskingSystem(25, 10, 3))


def cluster_spec(**fields) -> DeploymentSpec:
    """A process-per-shard deployment of :func:`scenario` over TCP."""
    return DeploymentSpec(scenario=scenario(), transport="tcp", processes=1, **fields)


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
                cluster_spec(shards=2, codec="binary", deadline=2.0), random.Random(7)
            )
            async with cluster:
                pids = list(cluster.pids)
                assert len(pids) == 2
                assert cluster.processes_alive == 2
                assert await cluster.probe() == [True, True]
                client = cluster.new_register_client(random.Random(3))
                await client.write("x", ("hello", 1))
                outcome = await client.read("x")
                assert outcome.value == ("hello", 1)
            return pids

        pids = run(main())
        assert_no_orphans(pids)

    def test_aclose_is_idempotent(self):
        async def main():
            cluster = ClusterDeployment(cluster_spec(shards=1), random.Random(11))
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
            cluster = ClusterDeployment(cluster_spec(shards=2), random.Random(13))
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
                cluster_spec(shards=2, codec="binary", deadline=2.0), random.Random(17)
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
            client = cluster.new_register_client(random.Random(5))
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
                cluster_spec(shards=1), random.Random(19), start_timeout=0.0
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
        in_loop = deploy(DeploymentSpec(scenario=scenario(), shards=2), random.Random(1))
        assert isinstance(in_loop, ShardedDeployment)
        assert in_loop.transport_mode == "inproc"
        cluster = deploy(cluster_spec(shards=2), random.Random(1))
        assert isinstance(cluster, ClusterDeployment)
        assert cluster.transport_mode == "tcp"
        assert cluster.pids == []  # nothing spawns before start()

    def test_both_shapes_take_the_same_bind_address_option(self):
        for processes in (0, 1):
            deployment = deploy(
                DeploymentSpec(
                    scenario=scenario(), processes=processes, transport="tcp", shards=2
                ),
                random.Random(1),
                host="127.0.0.1",
            )
            assert deployment.transport_mode == "tcp"

    def test_bad_conditions_are_refused_before_any_process_spawns(self):
        for conditions in (
            dict(latency=-1.0),
            dict(latency=0.001, jitter=0.01),
            dict(drop_probability=1.0),
        ):
            with pytest.raises(ConfigurationError):
                ClusterDeployment(cluster_spec(shards=2, **conditions))
            with pytest.raises(ConfigurationError):
                deploy(cluster_spec(**conditions))


class TestClusterLoadSpec:
    def spec(self, **overrides):
        fields = dict(
            scenario=scenario(),
            clients=10,
            reads_per_client=2,
            writes=8,
            deadline=2.0,
            transport="tcp",
            shards=2,
            keys=4,
            codec="binary",
            processes=1,
            seed=3,
        )
        fields.update(overrides)
        return ServiceLoadSpec(**fields)

    def test_spec_refuses_what_a_cluster_cannot_run(self):
        with pytest.raises(ConfigurationError):
            self.spec(transport="inproc", processes=2)  # processes need sockets
        with pytest.raises(ConfigurationError):
            # Live churn needs the node objects in this process.
            self.spec(fault_injection=FaultInjectionSpec(crash_count=1))

    def test_contended_writes_run_on_a_cluster(self):
        spec = self.spec(writers=2, contention=0.5, trace_sample=1.0)
        report = run_service_load(spec)
        assert report.operations == spec.total_ops
        assert report.write_failures == 0
        assert report.violations == 0
        names = key_names(spec.keys)
        round_robin = sum(1 for version in range(spec.writes) if version % spec.keys == 0)
        hot_writes = sum(
            1
            for trace in report.traces
            if trace["op"] == "write" and trace["variable"] == names[0]
        )
        assert hot_writes > round_robin
