"""Tests for the async transport and the replica nodes."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ConfigurationError, ProtocolError, RpcTimeoutError
from repro.protocol.timestamps import Timestamp
from repro.service.node import ServiceNode
from repro.service.transport import AsyncTransport, check_conditions
from repro.simulation.server import (
    NO_REPLY,
    ByzantineForgeBehavior,
    ByzantineSilentBehavior,
    GrayBehavior,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestAsyncTransport:
    def test_healthy_round_trip(self):
        node = ServiceNode(0)
        transport = AsyncTransport()

        async def scenario():
            ok = await transport.call(node, "write", "x", "v", Timestamp(1), None)
            assert ok == ("ok", True)
            tag, stored = await transport.call(node, "read", "x")
            assert stored.value == "v"

        run(scenario())
        assert transport.calls == 2
        assert transport.dropped == transport.timed_out == 0

    def test_dropped_rpcs_cost_exactly_the_timeout(self):
        node = ServiceNode(0)
        transport = AsyncTransport(drop_probability=0.999999, seed=3)

        async def scenario():
            loop = asyncio.get_event_loop()
            started = loop.time()
            with pytest.raises(RpcTimeoutError):
                await transport.call(node, "ping", timeout=0.01)
            return loop.time() - started

        waited = run(scenario())
        assert waited == pytest.approx(0.01, abs=0.05)
        # Drops and deadline misses partition the failure counts.
        assert transport.dropped == 1
        assert transport.timed_out == 0

    def test_latency_beyond_deadline_times_out(self):
        node = ServiceNode(0)
        transport = AsyncTransport(latency=0.05)

        async def scenario():
            with pytest.raises(RpcTimeoutError):
                await transport.call(node, "ping", timeout=0.001)
            # Without a deadline the same call succeeds.
            assert await transport.call(node, "ping") == ("ok", True)

        run(scenario())
        assert transport.timed_out == 1

    def test_silent_node_times_out(self):
        node = ServiceNode(0)
        node.crash()
        transport = AsyncTransport()

        async def scenario():
            with pytest.raises(RpcTimeoutError):
                await transport.call(node, "ping", timeout=0.001)

        run(scenario())
        assert transport.timed_out == 1
        assert transport.dropped == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncTransport(latency=-1.0)
        with pytest.raises(ConfigurationError):
            AsyncTransport(latency=0.001, jitter=0.01)
        with pytest.raises(ConfigurationError):
            AsyncTransport(drop_probability=1.0)

    def test_check_conditions_accepts_the_boundaries(self):
        check_conditions(0.0, 0.0, 0.0)
        check_conditions(0.01, 0.01, 0.999)  # jitter may equal the latency

    def test_check_conditions_refuses_what_no_transport_can_simulate(self):
        for latency, jitter, drop_probability in (
            (-0.001, 0.0, 0.0),
            (0.01, -0.001, 0.0),
            (0.001, 0.01, 0.0),
            (0.0, 0.0, -0.1),
            (0.0, 0.0, 1.0),
        ):
            with pytest.raises(ConfigurationError):
                check_conditions(latency, jitter, drop_probability)

    def test_jitter_is_reproducible_per_seed(self):
        delays = []
        for _ in range(2):
            transport = AsyncTransport(latency=0.01, jitter=0.005, seed=11)
            delays.append([transport._delay() for _ in range(20)])
        assert delays[0] == delays[1]
        assert len(set(delays[0])) > 1


class TestServiceNode:
    def test_crash_and_recover_preserve_storage(self):
        node = ServiceNode(0)
        assert node.handle("write", "x", "v", Timestamp(1), None) == ("ok", True)
        node.crash()
        assert node.handle("read", "x") is NO_REPLY
        assert node.handle("write", "x", "w", Timestamp(2), None) is NO_REPLY
        assert not node.server.answers_pings
        node.recover()
        tag, stored = node.handle("read", "x")
        assert stored.value == "v"

    def test_empty_register_answers_explicitly(self):
        # "I store nothing" must be distinguishable from a dead server.
        node = ServiceNode(0)
        assert node.handle("read", "x") == ("ok", None)
        assert node.handle("ping") == ("ok", True)

    def test_silent_byzantine_suppresses_everything(self):
        node = ServiceNode(0, ByzantineSilentBehavior())
        assert node.handle("ping") is NO_REPLY
        assert node.handle("read", "x") is NO_REPLY
        assert node.handle("write", "x", "v", Timestamp(1), None) is NO_REPLY

    def test_a_dropped_gray_read_is_silence(self):
        # Like a dropped write: the caller times out, it is not told
        # "I store nothing".
        node = ServiceNode(0, GrayBehavior(1.0))
        assert node.handle("read", "x") is NO_REPLY
        assert node.handle("write", "x", "v", Timestamp(1), None) is NO_REPLY
        assert node.handle("ping") == ("ok", True)  # only its messages are lost

    def test_live_behavior_swap(self):
        node = ServiceNode(0)
        node.handle("write", "x", "v", Timestamp(1), None)
        node.set_behavior(ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()))
        tag, stored = node.handle("read", "x")
        assert stored.value == "FORGED"
        assert node.server.answers_pings  # a forger looks perfectly alive

    def test_unknown_method_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            ServiceNode(0).handle("warp")
