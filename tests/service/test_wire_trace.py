"""Property tests for the trace id on the wire.

A request may end in its client's trace id; nothing else changes:

* the **envelope** grows a sixth element only when a trace id is attached,
  and the traced request frame is byte-identical to encoding the 6-tuple
  generically — so payload semantics never depend on the fast path;
* over a real connection, under **either codec** and with no preamble, a
  traced quorum round reaches the server with its id, and an untraced one
  reaches it with none.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer
from repro.service.net import TcpDispatcher, TcpServiceServer, TcpTransport
from repro.service.node import ServiceNode
from repro.service.wire import (
    WIRE_CODECS,
    FrameDecoder,
    encode_frame,
    encode_request_frame,
    request_tail,
)


def run(coroutine):
    return asyncio.run(coroutine)


request_ids = st.integers(min_value=0, max_value=2**62)
server_ids = st.integers(min_value=0, max_value=2**31)
trace_ids = st.integers(min_value=0, max_value=2**62)
methods = st.sampled_from(["read", "write", "ping"])
args_values = st.tuples(
    st.text(max_size=16), st.integers(min_value=-(2**40), max_value=2**40)
)


class TestTracedEnvelope:
    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values, trace_ids)
    def test_traced_fast_path_is_byte_identical_on_both_codecs(
        self, request_id, server, method, args, trace_id
    ):
        for codec in WIRE_CODECS:
            tail = request_tail(method, args, codec)
            fast = encode_request_frame(request_id, server, tail, trace_id=trace_id)
            generic = encode_frame(
                ("req", request_id, server, method, args, trace_id), codec
            )
            assert fast == generic

    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values, trace_ids)
    def test_traced_and_untraced_frames_decode_to_the_same_request(
        self, request_id, server, method, args, trace_id
    ):
        for codec in WIRE_CODECS:
            tail = request_tail(method, args, codec)
            decoder = FrameDecoder()
            plain = decoder.feed(
                encode_request_frame(request_id, server, tail)
            ) + decoder.feed(
                encode_request_frame(request_id, server, tail, trace_id=trace_id)
            )
            assert len(plain) == 2
            untraced, traced = plain
            # Identical payload semantics: the traced frame is the untraced
            # one plus the trailing id, nothing reinterpreted.
            assert tuple(traced[:5]) == tuple(untraced)
            assert traced[5] == trace_id

    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values)
    def test_no_trace_id_means_the_classic_five_tuple(
        self, request_id, server, method, args
    ):
        for codec in WIRE_CODECS:
            tail = request_tail(method, args, codec)
            frame = encode_request_frame(request_id, server, tail)
            assert frame == encode_frame(
                ("req", request_id, server, method, args), codec
            )


class TestTracedConnections:
    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_traced_rounds_carry_their_trace_id_to_the_server(self, codec):
        async def scenario():
            nodes = [ServiceNode(server) for server in range(3)]
            server = TcpServiceServer(nodes)
            await server.start()
            transport = TcpTransport(server.address, codec=codec)
            dispatcher = TcpDispatcher(transport)
            tracer = Tracer(sample_rate=1.0)
            trace = tracer.begin("write", variable="x")
            replies = await dispatcher.fan_out(
                [0, 1, 2], "write", ("x", "v", None, None), 0.5, trace=trace
            )
            assert set(replies) == {0, 1, 2}
            assert server.traced_requests == 3
            assert server.last_trace_id == trace.trace_id
            assert trace.span_dispositions() == {"ok": 3}
            await transport.aclose()
            await server.aclose()

        run(scenario())

    def test_untraced_rounds_send_no_trace_id(self):
        async def scenario():
            nodes = [ServiceNode(server) for server in range(2)]
            server = TcpServiceServer(nodes)
            await server.start()
            transport = TcpTransport(server.address, codec="binary")
            dispatcher = TcpDispatcher(transport)
            await dispatcher.fan_out([0, 1], "write", ("x", "v", None, None), 0.5)
            assert server.traced_requests == 0
            assert server.last_trace_id is None
            await transport.aclose()
            await server.aclose()

        run(scenario())
