"""Tests for the batched dispatch fast path, against the per-RPC reference."""

from __future__ import annotations

import asyncio
import math
import random

import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.obs.trace import Tracer
from repro.protocol.register import RegisterClient
from repro.protocol.timestamps import Timestamp
from repro.service.client import DEFAULT_QUORUM_POOL, AsyncQuorumClient
from repro.service.dispatch import BatchedDispatcher
from repro.service.load import ServiceLoadSpec, run_service_load
from repro.service.node import ServiceNode
from repro.service.transport import AsyncTransport
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import ByzantineForgeBehavior, ByzantineSilentBehavior
from tests.service.per_rpc import PerRpcDriver
from tests.service.quorum_ops import read_op, write_op
from tests.service.test_load import VirtualTimeLoop

MASKING = ProbabilisticMaskingSystem(25, 10, 3)


def deploy(system, seed=0, deadline=0.01, **transport_kwargs):
    nodes = [ServiceNode(server) for server in range(system.n)]
    transport = AsyncTransport(**transport_kwargs)
    dispatcher = BatchedDispatcher(nodes, transport)
    client = AsyncQuorumClient(
        system,
        nodes,
        transport,
        deadline=deadline,
        rng=random.Random(seed),
        dispatcher=dispatcher,
    )
    return nodes, transport, dispatcher, client


class TestBatchedDispatcher:
    def test_write_then_read_round_trip(self):
        nodes, transport, dispatcher, client = deploy(MASKING)

        async def scenario():
            write = await write_op(client, "x", "v", Timestamp(1))
            read = await read_op(client, "x")
            return write, read

        write, read = asyncio.run(scenario())
        assert write.replies.keys() == write.final_quorum
        assert len(read.replies) == 10
        stored = {server: s.value for server, s in RegisterClient.stored_replies(read).items()}
        overlap = write.final_quorum & read.final_quorum
        assert overlap  # 10-of-25 quorums intersect with overwhelming probability
        assert all(stored[server] == "v" for server in overlap)
        assert transport.calls == 20
        assert dispatcher.flushes > 0

    def test_coalescing_one_delivery_event_per_node_per_tick(self):
        nodes, transport, dispatcher, client = deploy(MASKING)

        async def scenario():
            await write_op(client, "x", "v", Timestamp(1))
            flushes_before = dispatcher.flushes
            # 50 concurrent reads: 500 RPCs, but every node's deliveries for
            # one tick coalesce into a single flush event.
            await asyncio.gather(*(read_op(client, "x") for _ in range(50)))
            return flushes_before

        flushes_before = asyncio.run(scenario())
        read_flushes = dispatcher.flushes - flushes_before
        # 500 read RPCs over at most 25 nodes; allow a few stray ticks from
        # pool-refill interleaving but require order-of-magnitude coalescing.
        assert read_flushes <= 2 * MASKING.n
        assert transport.calls == 10 + 500

    @pytest.mark.parametrize("deadline", [0.005, 0.01])
    def test_silent_nodes_cost_the_operation_deadline_once(self, deadline):
        nodes, transport, dispatcher, client = deploy(MASKING, deadline=deadline)
        for node in nodes:
            node.crash()

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            read = await read_op(client, "x")
            return read, loop.time() - started

        loop = VirtualTimeLoop()
        try:
            read, elapsed = loop.run_until_complete(scenario())
        finally:
            loop.close()
        assert len(read.replies) == 0
        assert RegisterClient.stored_replies(read) == {}
        # Three rounds — the quorum, then top-ups until all 25 servers were
        # asked — each resolved at the shared operation deadline, not after
        # a per-RPC cascade of q deadlines.
        assert elapsed == 3 * deadline
        assert transport.timed_out == MASKING.n

    def test_drops_are_counted_and_resolve_at_the_deadline(self):
        nodes, transport, dispatcher, client = deploy(
            MASKING, deadline=0.005, drop_probability=0.5, seed=3
        )

        async def scenario():
            await write_op(client, "x", "v", Timestamp(1))
            return await read_op(client, "x")

        read = asyncio.run(scenario())
        assert transport.dropped > 0
        assert len(read.replies) <= 10

    def test_no_deadline_resolves_after_delivery(self):
        nodes, transport, dispatcher, client = deploy(
            MASKING, deadline=None, drop_probability=0.3, seed=5
        )

        async def scenario():
            return await read_op(client, "x")

        read = asyncio.run(scenario())
        # With no deadline the op resolves once every fate is known at the
        # delivery tick; dropped RPCs are simply absent.
        assert 0 <= len(read.replies) <= 10

    def test_degraded_read_tops_up_through_the_dispatcher(self):
        nodes, transport, dispatcher, client = deploy(MASKING, deadline=0.005)
        for server in range(20, 25):
            nodes[server].crash()

        async def scenario():
            await write_op(client, "x", "v", Timestamp(1))
            return await read_op(client, "x")

        read = asyncio.run(scenario())
        # Any quorum touching a crashed node forces a top-up; the quorum the
        # read finally rests on holds answering servers only.
        if client.probe_fallbacks:
            assert read.final_quorum <= frozenset(range(20))
            assert len(read.final_quorum) <= 10

    def test_delay_exceeding_timeout_counts_as_timeout(self):
        nodes, transport, dispatcher, client = deploy(MASKING, latency=0.01)

        async def scenario():
            # One round, no top-up: every RPC's delay overruns its deadline.
            return await dispatcher.fan_out(range(10), "read", ("x",), 0.001)

        assert asyncio.run(scenario()) == {}
        assert transport.timed_out == 10

    def test_delivery_waits_for_the_transport_delay(self):
        nodes, transport, dispatcher, client = deploy(MASKING, latency=0.01)

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            replies = await dispatcher.fan_out(range(10), "read", ("x",), 1.0)
            return replies, loop.time() - started

        replies, elapsed = asyncio.run(scenario())
        # Every RPC lands once the drawn delay has passed, well inside its
        # deadline; one delivery event per node carried it.
        assert sorted(replies) == list(range(10))
        assert elapsed >= 0.009
        assert transport.timed_out == 0 and transport.dropped == 0
        assert dispatcher.flushes == 10


def hostile_nodes():
    """25 replicas holding ``x``: two crashed, one silent, one forger."""
    nodes = [ServiceNode(server) for server in range(25)]
    for node in nodes:
        node.handle("write", "x", ("v", node.server_id % 3), Timestamp(1), None)
    nodes[2].crash()
    nodes[9].crash()
    nodes[5].set_behavior(ByzantineSilentBehavior())
    nodes[7].set_behavior(ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()))
    return nodes


class TestAgainstThePerRpcReference:
    def test_fan_out_matches_the_reference(self):
        async def fan_out(driver_class):
            transport = AsyncTransport(seed=4)
            driver = driver_class(hostile_nodes(), transport)
            trace = Tracer(sample_rate=1.0).begin("read", variable="x")
            replies = await driver.fan_out(range(12), "read", ("x",), 0.01, trace=trace)
            counters = (transport.calls, transport.dropped, transport.timed_out)
            return replies, counters, trace.span_dispositions()

        batched = asyncio.run(fan_out(BatchedDispatcher))
        assert batched == asyncio.run(fan_out(PerRpcDriver))
        replies, counters, dispositions = batched
        assert sorted(replies) == [0, 1, 3, 4, 6, 7, 8, 10, 11]
        assert replies[7].value == "FORGED"
        assert counters == (12, 0, 3) and dispositions == {"ok": 9, "silent": 3}

    def test_seeded_client_runs_identically_on_both_drivers(self):
        # Lossless and zero-latency, the transport draws nothing, so the
        # only randomness is the client's: quorums, spares, top-ups and
        # counters must agree operation by operation.
        async def workload(driver_class):
            nodes = hostile_nodes()
            transport = AsyncTransport(seed=6)
            client = AsyncQuorumClient(
                MASKING,
                nodes,
                transport,
                deadline=0.005,
                rng=random.Random(8),
                dispatcher=driver_class(nodes, transport),
            )
            history = []
            for version in range(2, 12):
                write = await write_op(client, "x", "w", Timestamp(version))
                read = await read_op(client, "x")
                history.append(
                    (write.final_quorum, frozenset(write.replies), write.spares,
                     read.final_quorum, sorted(RegisterClient.stored_replies(read)),
                     read.spares)
                )
            return history, client.probe_fallbacks, transport.calls, transport.timed_out

        batched = asyncio.run(workload(BatchedDispatcher))
        assert batched == asyncio.run(workload(PerRpcDriver))
        assert batched[1] > 0  # the crashes forced top-ups on both paths


class TestQuorumPool:
    def test_pooled_quorums_are_strategy_sized_and_sorted(self):
        nodes, transport, dispatcher, client = deploy(MASKING)
        drawn = [client.next_quorum() for _ in range(100)]
        for quorum in drawn:
            assert len(quorum) == 10
            assert list(quorum) == sorted(quorum)
            assert all(0 <= server < 25 for server in quorum)
        # The pool refills in blocks but never repeats a block verbatim.
        assert len(set(drawn)) > 50

    def test_pool_refills_one_block_at_a_time(self):
        nodes, transport, dispatcher, client = deploy(MASKING)
        client.next_quorum()
        assert len(client._pool) == DEFAULT_QUORUM_POOL - 1
        for _ in range(DEFAULT_QUORUM_POOL - 1):
            client.next_quorum()
        assert client._pool == []
        client.next_quorum()  # an empty pool draws the next whole block
        assert len(client._pool) == DEFAULT_QUORUM_POOL - 1

    def test_sample_quorum_block_matches_strategy_distribution(self):
        rng = random.Random(7)
        block = MASKING.sample_quorum_block(rng, count=500)
        assert len(block) == 500
        counts = [0] * 25
        for quorum in block:
            assert len(set(quorum)) == 10
            for server in quorum:
                counts[server] += 1
        mean = 500 * 10 / 25
        sigma = math.sqrt(500 * 0.4 * 0.6)
        assert all(abs(count - mean) < 6 * sigma for count in counts)


class TestLoadProfile:
    def test_strategy_selection_keeps_the_uniform_per_server_load(self):
        """Batched dispatch + pooling must not skew the access profile.

        Tolerance-band check over per-server read counts: every server's
        count stays within six binomial standard deviations of the uniform
        expectation ``R * q/n`` (a >6σ outlier at a pinned seed would mean
        the fast path distorted the strategy, which would void ε).
        """
        reads = 2_000
        spec = ServiceLoadSpec(
            scenario=ScenarioSpec(system=MASKING),
            clients=100,
            reads_per_client=20,
            writes=1,
            seed=13,
        )
        report, nodes = run_with_nodes(spec)
        assert report.reads_completed == reads
        counts = [node.server.reads_handled for node in nodes]
        assert sum(counts) == reads * 10
        mean = reads * 10 / 25
        sigma = math.sqrt(reads * 0.4 * 0.6)
        for server, count in enumerate(counts):
            assert abs(count - mean) < 6 * sigma, (
                f"server {server} saw {count} reads, expected {mean:.0f} ± {6 * sigma:.0f}"
            )


def run_with_nodes(spec):
    """Run a load spec while capturing the deployed nodes for inspection.

    The harness constructs its nodes internally (one group per shard, in
    :mod:`repro.service.sharding`), so the per-server access counters are
    recovered by patching that module's ``ServiceNode`` name with a
    recording subclass for the duration of the run.
    """
    from repro.service import sharding as sharding_module

    nodes = []
    original_node = sharding_module.ServiceNode

    class RecordingNode(original_node):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    sharding_module.ServiceNode = RecordingNode
    try:
        report = run_service_load(spec)
    finally:
        sharding_module.ServiceNode = original_node
    return report, nodes
