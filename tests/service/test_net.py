"""Tests for the TCP socket transport and server (`repro.service.net`)."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import RpcTimeoutError, ServiceError, WireFormatError
from repro.obs.trace import Tracer
from repro.protocol.selection import ReadRule
from repro.protocol.timestamps import Timestamp
from repro.service import net, wire
from repro.service.client import AsyncQuorumClient
from repro.service.net import (
    RemoteNode,
    TcpDispatcher,
    TcpServiceServer,
    TcpTransport,
    remote_nodes,
)
from repro.service.node import ServiceNode
from repro.service.register import AsyncRegister
from repro.service.wire import FrameDecoder, encode_frame
from repro.simulation.server import ByzantineForgeBehavior, ByzantineSilentBehavior
from tests.service.per_rpc import PerRpcDriver

MASKING = ProbabilisticMaskingSystem(25, 10, 3)


def run(coroutine):
    return asyncio.run(coroutine)


async def deploy(n=25, **transport_kwargs):
    nodes = [ServiceNode(server) for server in range(n)]
    server = TcpServiceServer(nodes)
    await server.start()
    transport = TcpTransport(server.address, **transport_kwargs)
    return nodes, server, transport


async def teardown(server, transport):
    await transport.aclose()
    await server.aclose()


class TestTcpRoundTrip:
    def test_write_then_read_through_real_sockets(self):
        async def scenario():
            nodes, server, transport = await deploy()
            stub = RemoteNode(3)
            ok = await transport.call(
                stub, "write", "x", ("v", 0), Timestamp(1), None, timeout=1.0
            )
            assert ok == ("ok", True)
            tag, stored = await transport.call(stub, "read", "x", timeout=1.0)
            assert tag == "ok"
            assert stored.value == ("v", 0) and stored.timestamp == Timestamp(1)
            # The write really landed on the server-side node object.
            assert nodes[3].stored("x").value == ("v", 0)
            assert server.requests_handled == 2
            await teardown(server, transport)

        run(scenario())

    def test_server_routes_by_server_id(self):
        async def scenario():
            nodes, server, transport = await deploy(n=5)
            for target in range(5):
                await transport.call(
                    RemoteNode(target), "write", "x", target, Timestamp(1), None,
                    timeout=1.0,
                )
            assert [node.stored("x").value for node in nodes] == [0, 1, 2, 3, 4]
            await teardown(server, transport)

        run(scenario())

    def test_concurrent_calls_multiplex_on_shared_connections(self):
        async def scenario():
            nodes, server, transport = await deploy(n=10)
            for node in nodes:
                node.server.handle("write", ("x", node.server_id * 11, Timestamp(1), None))
            replies = await asyncio.gather(
                *(
                    transport.call(RemoteNode(index % 10), "read", "x", timeout=1.0)
                    for index in range(200)
                )
            )
            for index, (tag, stored) in enumerate(replies):
                assert stored.value == (index % 10) * 11  # no cross-talk
            assert transport.calls == 200
            await teardown(server, transport)

        run(scenario())

    def test_ephemeral_port_is_published_after_start(self):
        async def scenario():
            server = TcpServiceServer([ServiceNode(0)])
            host, port = await server.start()
            assert host == "127.0.0.1" and port > 0
            assert server.serving
            with pytest.raises(ServiceError):
                await server.start()
            await server.aclose()
            assert not server.serving

        run(scenario())


class TestFailureSemantics:
    def test_crashed_node_costs_the_caller_its_deadline(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            nodes[1].crash()
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(RpcTimeoutError):
                await transport.call(RemoteNode(1), "ping", timeout=0.05)
            waited = loop.time() - started
            assert waited == pytest.approx(0.05, abs=0.1)
            assert transport.timed_out == 1
            await teardown(server, transport)

        run(scenario())

    def test_simulated_drops_are_counted_and_never_sent(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, drop_probability=0.999999, seed=7)
            with pytest.raises(RpcTimeoutError, match="dropped"):
                await transport.call(RemoteNode(0), "ping", timeout=0.01)
            assert transport.dropped == 1
            assert server.requests_handled == 0
            await teardown(server, transport)

        run(scenario())

    def test_reconnects_after_a_dropped_connection(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            assert await transport.call(RemoteNode(0), "ping", timeout=1.0) == ("ok", True)
            # Sever the (only) connection out from under the transport.
            transport._connections[0]._writer.close()
            await asyncio.sleep(0.01)
            assert await transport.call(RemoteNode(0), "ping", timeout=1.0) == ("ok", True)
            assert transport.reconnects == 1
            assert server.connections_accepted == 2
            await teardown(server, transport)

        run(scenario())

    def test_unreachable_server_times_out_instead_of_hanging(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            await server.aclose()
            # A fresh transport to the now-closed port cannot even connect.
            dead = TcpTransport(server.address)
            with pytest.raises(RpcTimeoutError):
                await dead.call(RemoteNode(0), "ping", timeout=0.05)
            assert dead.timed_out == 1
            await teardown(server, transport)
            await dead.aclose()

        run(scenario())

    def test_injected_latency_counts_against_the_deadline(self):
        # Parity with AsyncTransport: a drawn delay beyond the deadline IS
        # the timeout — the caller never waits delay + timeout.
        async def scenario():
            nodes, server, transport = await deploy(n=3, latency=0.2)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(RpcTimeoutError):
                await transport.call(RemoteNode(0), "ping", timeout=0.05)
            assert loop.time() - started < 0.19
            assert transport.timed_out == 1
            assert server.requests_handled == 0
            await teardown(server, transport)

        run(scenario())

    def test_unknown_method_costs_the_peer_its_connection_only(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            with pytest.raises(RpcTimeoutError):
                await transport.call(RemoteNode(0), "bogus-method", timeout=0.05)
            # The server survives and the transport reconnects transparently.
            assert server.serving
            assert await transport.call(RemoteNode(0), "ping", timeout=1.0) == ("ok", True)
            await teardown(server, transport)

        run(scenario())

    def test_negative_server_id_is_rejected_not_wrapped_around(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            with pytest.raises(RpcTimeoutError):
                await transport.call(RemoteNode(-1), "ping", timeout=0.05)
            # Nothing was routed to nodes[-1]; the server just dropped the peer.
            assert server.requests_handled == 0
            assert server.serving
            await teardown(server, transport)

        run(scenario())

    def test_validation(self):
        with pytest.raises(ServiceError):
            TcpTransport(("127.0.0.1", 1), connections=0)
        with pytest.raises(ServiceError):
            TcpTransport(("127.0.0.1", 1), codec="xml")


async def raw_reply(server, payload, codec):
    """Send one hand-built frame on a fresh socket, with no preamble; return
    the raw reply bytes (``b""`` if the server hung up without a word)."""
    reader, writer = await asyncio.open_connection(*server.address)
    try:
        writer.write(encode_frame(payload, codec))
        await writer.drain()
        return await asyncio.wait_for(reader.read(65536), 1.0)
    finally:
        writer.close()


async def raw_exchange(server, payload, codec):
    """:func:`raw_reply`, decoded; ``None`` if the server hung up."""
    data = await raw_reply(server, payload, codec)
    return FrameDecoder().feed(data) if data else None


WRITE = ("x", "v", Timestamp(1), None)

HOSTILE_MREQS = {
    "out-of-range id": ("mreq", 1, (0, 3), "write", WRITE),
    "negative id": ("mreq", 1, (0, -1), "write", WRITE),
    "duplicated id": ("mreq", 1, (1, 1), "write", WRITE),
    "bool id": ("mreq", 1, (0, True), "write", WRITE),
    "float id": ("mreq", 1, (0, 1.0), "write", WRITE),
    "str id": ("mreq", 1, (0, "1"), "write", WRITE),
    "more ids than replicas": ("mreq", 1, (0, 1, 2, 0), "write", WRITE),
    "amplification": ("mreq", 1, (0,) * 100_000, "write", WRITE),
    "no ids": ("mreq", 1, (), "write", WRITE),
    "ids not a tuple": ("mreq", 1, [0, 1], "write", WRITE),
    "single id": ("mreq", 1, 0, "write", WRITE),
    "args not a tuple": ("mreq", 1, (0, 1), "write", list(WRITE)),
    "method not a str": ("mreq", 1, (0, 1), 5, WRITE),
    "op id not an int": ("mreq", "1", (0, 1), "write", WRITE),
    "unknown method": ("mreq", 1, (0, 1), "bogus-method", WRITE),
    "wrong argument count": ("mreq", 1, (0, 1), "write", ("x",)),
    "trace id not an int": ("mreq", 1, (0, 1), "write", WRITE, "99"),
    "bool trace id": ("mreq", 1, (0, 1), "write", WRITE, True),
    "two trailing elements": ("mreq", 1, (0, 1), "write", WRITE, 99, 99),
    "hello frame": ("hello", ["binary", "json"]),
    "too short": ("mreq", 1, (0, 1), "write"),
    "unknown kind": ("mrsp", 1, (0, 1), "write", WRITE),
}


class TestHostileVectoredFrames:
    """All-or-nothing validation of ``mreq``: a bad frame costs its sender
    the connection, touches no replica, and nobody else notices."""

    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("case", sorted(HOSTILE_MREQS))
    def test_bad_mreq_drops_only_that_connection(self, case, codec):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            assert await transport.call(RemoteNode(2), "ping", timeout=1.0) == ("ok", True)
            assert await raw_exchange(server, HOSTILE_MREQS[case], codec) is None
            # Only the bystander's ping was served: the bad frame counted
            # for nothing and was applied to NO replica, valid ids included.
            assert (server.requests_handled, server.frames_handled) == (1, 1)
            assert all(node.stored("x") is None for node in nodes)
            assert server.serving
            assert await transport.call(RemoteNode(2), "ping", timeout=1.0) == ("ok", True)
            assert transport.reconnects == 0  # the bystander kept its socket
            await teardown(server, transport)

        run(scenario())

    def test_deeply_nested_json_frame_drops_only_that_connection(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            loop = asyncio.get_running_loop()
            handled = []
            loop.set_exception_handler(lambda _, context: handled.append(context))
            assert await transport.call(RemoteNode(2), "ping", timeout=1.0) == ("ok", True)
            # 1.2 KB of nested brackets: valid JSON, deeper than the codec
            # recurses.  The sender loses its connection without a word.
            body = b"[" * 600 + b"]" * 600
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(len(body).to_bytes(4, "big") + body)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(65536), 1.0) == b""
            writer.close()
            assert server.serving and server.frames_handled == 1
            assert await transport.call(RemoteNode(2), "ping", timeout=1.0) == ("ok", True)
            assert transport.reconnects == 0  # the bystander kept its socket
            assert handled == []  # no task died with an unhandled exception
            await teardown(server, transport)

        run(scenario())

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_well_formed_mreq_is_served_in_one_frame(self, codec):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            nodes[1].crash()
            data = await raw_reply(server, ("mreq", 7, (2, 0, 1), "write", WRITE), codec)
            # The answer comes in the request's codec (the body after the
            # length prefix opens with the binary magic or with JSON text).
            opening = bytes([wire.BINARY_MAGIC]) if codec == "binary" else b"{"
            assert data[4:5] == opening
            # The crashed replica is absent, the other two agree and share
            # one envelope.
            assert FrameDecoder().feed(data) == [("mrsp", 7, (((2, 0), ("ok", True)),))]
            assert [node.stored("x") is not None for node in nodes] == [True, False, True]
            assert (server.requests_handled, server.frames_handled) == (3, 1)
            # A traced request needs no preamble either: the sixth element
            # is the client's trace id.
            frames = await raw_exchange(server, ("mreq", 8, (0, 2), "read", ("x",), 2**40), codec)
            assert [(kind, op_id) for kind, op_id, _ in frames] == [("mrsp", 8)]
            assert (server.traced_requests, server.last_trace_id) == (2, 2**40)
            assert (server.requests_handled, server.frames_handled) == (5, 2)
            # All silent: no frame at all.
            nodes[0].crash()
            nodes[2].crash()
            with pytest.raises(asyncio.TimeoutError):
                await raw_exchange(server, ("mreq", 9, (0, 1, 2), "ping", ()), codec)
            await teardown(server, transport)

        run(scenario())

    def test_stray_and_malformed_mrsp_frames(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            dispatcher = TcpDispatcher(transport)
            nodes[1].crash()
            op = asyncio.ensure_future(dispatcher.fan_out((0, 1), "ping", (), 0.1))
            await asyncio.sleep(0.03)
            (op_id,) = transport._pending
            # Unknown op ids, ids the op never asked, a second answer for a
            # server that already answered: all ignored.
            transport._dispatch_response(("mrsp", op_id + 1000, (((0, 1), ("ok", "stray")),)))
            transport._dispatch_response(("mrsp", op_id, (((0, 2), ("ok", "stray")),)))
            transport._dispatch_response(("rsp", op_id, ("ok", "stray")))
            assert op_id in transport._pending
            # A second frame for the same op completes it (the split rule).
            transport._dispatch_response(("mrsp", op_id, (((1,), ("ok", "late twin")),)))
            assert await op == {0: True, 1: "late twin"}
            assert not transport._pending
            for malformed in (
                ("mrsp", 1),
                ("mrsp", 1, 5),
                ("mrsp", 1, ((0, ("ok", True)),)),
                ("mrsp", 1, ((("0",), ("ok", True)),)),
                ("mrsp", 1, (((True,), ("ok", True)),)),
                ("mrsp", 1, ((([0],), ("ok", True)),)),
                ("mrsp", 1, (((0,), ()),)),
                ("mrsp", [1], ()),
                ("mreq", 1, ()),
            ):
                with pytest.raises(WireFormatError):
                    transport._dispatch_response(malformed)
            await teardown(server, transport)

        run(scenario())


async def per_rpc_replies(transport, servers, method, *args, timeout=0.05):
    """The per-RPC reference: one ``transport.call`` per server."""
    driver = PerRpcDriver(remote_nodes(max(servers) + 1), transport)
    return await driver.fan_out(servers, method, args, timeout)


class TestTcpDispatcher:
    def test_fan_out_matches_per_rpc_replies(self):
        async def scenario(codec):
            nodes, server, transport = await deploy(n=10, codec=codec)
            for node in nodes:
                node.server.handle("write", ("x", node.server_id % 3, Timestamp(1), None))
            nodes[2].crash()
            nodes[5].set_behavior(ByzantineSilentBehavior())
            nodes[7].set_behavior(ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()))
            dispatcher = TcpDispatcher(transport)
            loop = asyncio.get_running_loop()
            started = loop.time()
            replies = await dispatcher.fan_out(range(10), "read", ("x",), 0.05)
            waited = loop.time() - started
            # Two silent members: the op waits out its one deadline and
            # charges exactly them.
            assert sorted(replies) == [0, 1, 3, 4, 6, 7, 8, 9]
            assert waited == pytest.approx(0.05, abs=0.1)
            assert transport.timed_out == 2 and transport.calls == 10
            assert replies[7].value == "FORGED"
            assert len(transport._pending) == 0  # nothing leaked
            oracle = await per_rpc_replies(transport, range(10), "read", "x")
            assert replies == oracle
            assert [repr(replies[s]) for s in oracle] == [repr(oracle[s]) for s in oracle]
            assert dispatcher.ops == 1
            await teardown(server, transport)

        for codec in wire.WIRE_CODECS:
            run(scenario(codec))

    def test_silent_servers_resolve_at_the_op_deadline(self):
        async def scenario():
            nodes, server, transport = await deploy(n=6)
            for victim in (1, 4):
                nodes[victim].crash()
            dispatcher = TcpDispatcher(transport)
            loop = asyncio.get_running_loop()
            started = loop.time()
            replies = await dispatcher.fan_out(range(6), "ping", (), 0.05)
            waited = loop.time() - started
            assert sorted(replies) == [0, 2, 3, 5]
            assert waited == pytest.approx(0.05, abs=0.1)
            assert transport.timed_out == 2
            assert len(transport._pending) == 0  # nothing leaked
            await teardown(server, transport)

        run(scenario())

    def test_one_frame_per_op_and_one_per_rpc(self):
        async def scenario():
            nodes, server, transport = await deploy(n=25, codec="binary")
            dispatcher = TcpDispatcher(transport)
            for _ in range(5):
                assert len(await dispatcher.fan_out(range(3, 13), "ping", (), 1.0)) == 10
                assert len(transport._pending) == 0
            assert (server.requests_handled, server.frames_handled) == (50, 5)
            counters = server.metrics_snapshot()["counters"]
            assert counters["server_requests_handled"] == 10 * counters["server_frames_handled"]
            # The per-RPC path stays one frame per RPC.
            await per_rpc_replies(transport, range(4), "ping", timeout=1.0)
            assert (server.requests_handled, server.frames_handled) == (54, 9)
            await teardown(server, transport)

        run(scenario())

    def test_simulated_drops_match_the_per_rpc_path(self):
        async def scenario(vectored):
            nodes, server, transport = await deploy(n=12, drop_probability=0.4, seed=21)
            if vectored:
                trace = Tracer(sample_rate=1.0).begin("read", variable="x")
                replies = await TcpDispatcher(transport).fan_out(
                    range(12), "ping", (), 0.05, trace=trace
                )
                assert trace.span_dispositions() == {
                    "ok": len(replies), "dropped": transport.dropped
                }
                assert len(trace.spans) == 12
                assert len(transport._pending) == 0
            else:
                replies = await per_rpc_replies(transport, range(12), "ping")
            counters = (transport.calls, transport.dropped, transport.timed_out)
            assert server.requests_handled == 12 - transport.dropped  # drops never hit the wire
            await teardown(server, transport)
            return sorted(replies), counters

        answered, counters = run(scenario(vectored=True))
        assert 0 < len(answered) < 12 and counters == (12, 12 - len(answered), 0)
        assert (answered, counters) == run(scenario(vectored=False))

    def test_every_server_gets_one_span_whatever_its_fate(self):
        async def scenario():
            nodes, server, transport = await deploy(n=8, drop_probability=0.3, seed=5)
            nodes[0].crash()
            nodes[6].crash()
            dispatcher = TcpDispatcher(transport)
            tracer = Tracer(sample_rate=1.0)
            trace = tracer.begin("read", variable="x")
            replies = await dispatcher.fan_out(range(8), "ping", (), 0.05, trace=trace)
            fates = {span.server_id: span.disposition for span in trace.spans}
            assert len(trace.spans) == 8 and sorted(fates) == list(range(8))
            assert {s for s, fate in fates.items() if fate == "ok"} == set(replies)
            assert set(fates.values()) == {"ok", "dropped", "timeout"}
            assert all(fates[s] in ("timeout", "dropped") for s in (0, 6))
            assert server.last_trace_id == trace.trace_id
            # Against a dead port every sent server is charged as unsent.
            await server.aclose()
            dead = TcpTransport(server.address)
            trace = tracer.begin("read", variable="x")
            assert await TcpDispatcher(dead).fan_out(range(3), "ping", (), 0.05, trace=trace) == {}
            assert trace.span_dispositions() == {"unsent": 3}
            assert (dead.calls, dead.timed_out, len(dead._pending)) == (3, 3, 0)
            await dead.aclose()
            await teardown(server, transport)

        run(scenario())

    def test_server_killed_mid_op_then_reconnect_on_the_next(self):
        async def scenario():
            nodes, server, transport = await deploy(n=4, connections=1)
            nodes[1].crash()  # keeps the first op open until its deadline
            dispatcher = TcpDispatcher(transport)
            op = asyncio.ensure_future(dispatcher.fan_out(range(4), "ping", (), 0.2))
            await asyncio.sleep(0.05)
            await server.aclose()  # the server dies with the op in flight
            assert sorted(await op) == [0, 2, 3]  # what had arrived, at the deadline
            assert transport.timed_out == 1 and len(transport._pending) == 0
            # Nobody listening: the next op fails to send and says so.
            assert await dispatcher.fan_out(range(4), "ping", (), 0.05) == {}
            assert transport.timed_out == 5 and len(transport._pending) == 0
            # A server back on the same port: the next op reconnects by itself.
            reborn = TcpServiceServer(nodes, port=server.port)
            await reborn.start()
            nodes[1].recover()
            assert sorted(await dispatcher.fan_out(range(4), "ping", (), 1.0)) == [0, 1, 2, 3]
            assert transport.reconnects == 1 and len(transport._pending) == 0
            await teardown(reborn, transport)

        run(scenario())

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_replies_beyond_the_frame_cap_arrive_in_several_frames(self, codec, monkeypatch):
        async def scenario():
            nodes, server, transport = await deploy(n=6, codec=codec)
            for node in nodes:
                node.server.handle("write", ("x", bytes([node.server_id]) * 400, Timestamp(1), None))
            frames = []
            encode = net.encode_grouped_response_frames
            monkeypatch.setattr(
                net,
                "encode_grouped_response_frames",
                lambda *args: frames.append(encode(*args)) or frames[-1],
            )
            # Six distinct 400-byte replies cannot share a 1500-byte frame.
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1500)
            replies = await TcpDispatcher(transport).fan_out(range(6), "read", ("x",), 1.0)
            assert {s: stored.value for s, stored in replies.items()} == {
                s: bytes([s]) * 400 for s in range(6)
            }
            assert len(frames) == 1 and len(frames[0]) > 1
            assert len(transport._pending) == 0
            await teardown(server, transport)

        run(scenario())

    def test_empty_fan_out_resolves_immediately(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            dispatcher = TcpDispatcher(transport)
            assert await dispatcher.fan_out((), "ping", (), 0.05) == {}
            await teardown(server, transport)

        run(scenario())


class TestQuorumClientOverTcp:
    def test_masking_register_over_the_wire(self):
        async def scenario():
            nodes, server, transport = await deploy()
            client = AsyncQuorumClient(
                MASKING,
                remote_nodes(25),
                transport,
                deadline=1.0,
                rng=random.Random(3),
                dispatcher=TcpDispatcher(transport),
            )
            register = AsyncRegister(client, rule=ReadRule(threshold=MASKING.read_threshold))
            write = await register.write("over-the-wire")
            assert len(write.acknowledged) == 10
            outcome = await register.read()
            # ε-allowance: the two quorums can under-intersect; what cannot
            # happen is a fabricated value.
            assert outcome.value in ("over-the-wire", None)
            await teardown(server, transport)

        run(scenario())

    def test_forged_replies_cross_the_wire_and_are_outvoted(self):
        async def scenario():
            nodes, server, transport = await deploy()
            system = ProbabilisticMaskingSystem(25, 15, 2)  # k = 5 > b = 2
            for victim in (0, 1):
                nodes[victim].set_behavior(
                    ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
                )
            client = AsyncQuorumClient(
                system,
                remote_nodes(25),
                transport,
                deadline=1.0,
                rng=random.Random(5),
                dispatcher=TcpDispatcher(transport),
            )
            register = AsyncRegister(client, rule=ReadRule(threshold=system.read_threshold))
            await register.write("honest")
            for _ in range(10):
                outcome = await register.read()
                assert outcome.value != "FORGED"
            await teardown(server, transport)

        run(scenario())

    def test_degraded_op_tops_up_over_tcp(self):
        async def scenario():
            nodes, server, transport = await deploy()
            client = AsyncQuorumClient(
                MASKING,
                remote_nodes(25),
                transport,
                deadline=0.05,
                rng=random.Random(11),
                dispatcher=TcpDispatcher(transport),
            )
            register = AsyncRegister(client, rule=ReadRule(threshold=MASKING.read_threshold))
            await register.write("durable")
            for victim in random.Random(2).sample(range(25), 10):
                nodes[victim].crash()
            outcome = await register.read()
            assert outcome.value in ("durable", None)
            assert client.probe_fallbacks >= 1
            await teardown(server, transport)

        run(scenario())

    def test_top_up_is_one_extra_vectored_frame_carrying_only_the_spares(
        self, record_fan_outs
    ):
        async def scenario():
            nodes, server, transport = await deploy(codec="binary")
            client = AsyncQuorumClient(
                MASKING,
                remote_nodes(25),
                transport,
                deadline=0.05,
                rng=random.Random(11),
                dispatcher=TcpDispatcher(transport),
                tracer=Tracer(sample_rate=1.0),
            )
            rounds = record_fan_outs(client)
            await client.write("x", "durable", Timestamp(1), None)
            for victim in random.Random(2).sample(range(25), 10):
                nodes[victim].crash()
            degraded = 0
            for _ in range(6):
                del rounds[:]
                frames, requests = server.frames_handled, server.requests_handled
                read = await client.read("x")
                batches = [len(asked) for asked, _ in rounds]
                # One mreq per round: the sampled quorum, then only the spares.
                assert server.frames_handled - frames == len(batches)
                assert server.requests_handled - requests == sum(batches)
                assert batches[0] == 10 and sum(batches[1:]) == read.probes_used
                assert len(read.quorum) <= 10 and read.responders == len(read.quorum)
                assert {span.method for span in read.trace.spans} == {"read"}
                assert len(read.trace.spans) == sum(batches)
                if read.retried:
                    degraded += 1
                    # A top-up batch is exactly the deficit it set out to close.
                    assert batches[1] == 10 - len(rounds[0][1])
            assert degraded >= 1 and client.probe_fallbacks == degraded
            assert len(transport._pending) == 0
            await teardown(server, transport)

        run(scenario())
