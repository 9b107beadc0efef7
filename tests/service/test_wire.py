"""Property tests for the socket transport's wire format.

Three invariants carry the whole TCP path:

* **round trip** — ``decode(encode(x)) == x`` for every payload the
  protocol can put on the wire (scalars, bytes, tuples, dicts with
  non-string keys, honest and forged timestamps, stored values — nested
  arbitrarily, adversarially large or empty), on *both* codecs;
* **cross-codec agreement** — the same logical frame through the JSON and
  the struct-packed binary codec decodes to the identical value (binary
  is a faster spelling, never a different protocol);
* **short-read resilience** — the incremental decoder recovers the exact
  frame sequence however the byte stream is chopped up (single bytes,
  fragments straddling the length prefix, many frames per chunk, codecs
  mixed mid-stream).

All are hypothesis properties; deterministic edge cases (oversized
frames, malformed tags, truncated or forged binary bodies) pin the error
behaviour, and the fast-path request/response envelope codecs are checked
byte-for-byte against the generic encoder.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireFormatError
from repro.protocol.timestamps import Timestamp
from repro.service.wire import (
    BINARY_MAGIC,
    MAX_FRAME_BYTES,
    WIRE_CODECS,
    FrameDecoder,
    decode_binary_body,
    decode_binary_request_body,
    decode_binary_response_body,
    encode_binary_body,
    encode_frame,
    encode_grouped_response_frames,
    encode_request_frame,
    encode_response_frame,
    encode_vectored_request_frame,
    pack_value,
    request_tail,
    unpack_value,
)
from repro.simulation.server import StoredValue

# -- payload strategy -------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),  # NaN breaks == (not the codec); tested separately
    st.text(max_size=64),
    st.binary(max_size=128),
    st.builds(
        Timestamp,
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=0, max_value=2**30),
    ),
)


def stored_values(values):
    return st.builds(
        StoredValue,
        value=values,
        timestamp=st.one_of(
            st.builds(Timestamp, st.integers(min_value=0, max_value=2**62)),
            st.text(max_size=8),  # a forged, wrong-typed timestamp
            st.none(),
        ),
        signature=st.one_of(st.none(), st.binary(max_size=64)),
    )


payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(
                st.text(max_size=8),
                st.integers(min_value=-100, max_value=100),
                st.builds(Timestamp, st.integers(min_value=0, max_value=1000)),
            ),
            children,
            max_size=4,
        ),
        stored_values(children),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_is_identity(self, payload):
        assert unpack_value(json.loads(json.dumps(pack_value(payload)))) == payload

    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_frame_round_trip(self, payload):
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(payload))
        assert decoded == payload
        assert decoder.pending_bytes == 0

    def test_rpc_shaped_payloads(self):
        request = ("req", 17, 4, "write", ("x", ("v", 3), Timestamp(5, 1), b"\x00sig"))
        reply = ("rsp", 17, ("ok", StoredValue(("v", 3), Timestamp(5, 1), b"\x00sig")))
        for payload in (request, reply):
            (decoded,) = FrameDecoder().feed(encode_frame(payload))
            assert decoded == payload
            assert type(decoded) is tuple

    @given(
        st.integers(min_value=1, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.text(max_size=16),
        st.lists(payloads, max_size=3).map(tuple),
    )
    @settings(max_examples=100, deadline=None)
    def test_fast_request_encoder_is_byte_identical(self, request_id, server, method, args):
        for codec in WIRE_CODECS:
            tail = request_tail(method, args, codec)
            fast = encode_request_frame(request_id, server, tail)
            assert fast == encode_frame(("req", request_id, server, method, args), codec)

    def test_adversarially_large_and_empty_values(self):
        large = "A" * 1_000_000
        for value in (large, large.encode(), b"", "", [], (), {}, 0, None):
            (decoded,) = FrameDecoder().feed(encode_frame(value))
            assert decoded == value
            assert type(decoded) is type(value)

    def test_forged_maximum_timestamp_survives_the_wire(self):
        forged = Timestamp.forged_maximum()
        (decoded,) = FrameDecoder().feed(encode_frame(forged))
        assert decoded == forged and isinstance(decoded, Timestamp)

    def test_non_string_dict_keys_round_trip(self):
        history = {Timestamp(1): "a", Timestamp(2): "b", 7: "c"}
        (decoded,) = FrameDecoder().feed(encode_frame(history))
        assert decoded == history

    def test_unserialisable_object_is_rejected(self):
        with pytest.raises(WireFormatError):
            pack_value(object())


class TestBinaryCodec:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    def test_binary_round_trip_is_identity(self, payload):
        assert decode_binary_body(encode_binary_body(payload)) == payload

    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_binary_frame_round_trip(self, payload):
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(payload, "binary"))
        assert decoded == payload
        assert decoder.pending_bytes == 0

    @given(payloads)
    @settings(max_examples=150, deadline=None)
    def test_cross_codec_agreement(self, payload):
        via_json = FrameDecoder().feed(encode_frame(payload, "json"))
        via_binary = FrameDecoder().feed(encode_frame(payload, "binary"))
        assert via_json == via_binary == [payload]

    def test_cross_codec_pinned_rpc_frame(self):
        """The same logical RPC frame through both codecs, decoded equal."""
        frame = (
            "req",
            99,
            7,
            "write",
            ("x17", ("value", 3), Timestamp(12, 4), b"\x00\xffsig"),
        )
        decoded = {
            codec: FrameDecoder().feed(encode_frame(frame, codec))[0]
            for codec in WIRE_CODECS
        }
        assert decoded["json"] == decoded["binary"] == frame
        # Binary trades fixed-width ints for base64-free bytes: once a real
        # signature rides along, its frames are the smaller spelling.
        signed = frame[:4] + (("x17", ("value", 3), Timestamp(12, 4), bytes(512)),)
        assert len(encode_frame(signed, "binary")) < len(encode_frame(signed, "json"))

    def test_megabyte_payloads_round_trip(self):
        blob = bytes(range(256)) * 4096  # 1 MiB of every byte value
        text = "Σ" * 500_000  # 1 MB of multibyte UTF-8
        for value in (blob, text, ("rsp", 1, ("ok", StoredValue(blob, Timestamp(1), None)))):
            (decoded,) = FrameDecoder().feed(encode_frame(value, "binary"))
            assert decoded == value
        # raw bytes ship without base64: framing overhead stays tiny
        assert len(encode_frame(blob, "binary")) < len(blob) + 64

    def test_megabyte_payloads_round_trip_vectored(self):
        """The same 1 MiB value through the one-frame-per-op envelopes: the
        write carries it once for the whole quorum, and ten replicas
        answering it back share one reply envelope."""
        blob = bytes(range(256)) * 4096
        write_args = ("x", blob, Timestamp(1), None)
        stored = ("ok", StoredValue(blob, Timestamp(1), None))
        for codec in WIRE_CODECS:
            request = encode_vectored_request_frame(
                7, (0, 1, 2), request_tail("write", write_args, codec)
            )
            assert len(request) < 1.5 * len(blob)
            (decoded,) = FrameDecoder(decode_binary=decode_binary_request_body).feed(request)
            assert decoded == ("mreq", 7, (0, 1, 2), "write", write_args)
            (reply,) = encode_grouped_response_frames(
                7, [(server, stored) for server in range(10)], codec
            )
            assert len(reply) < 1.5 * len(blob)
            (decoded,) = FrameDecoder(decode_binary=decode_binary_response_body).feed(reply)
            assert decoded == ("mrsp", 7, ((tuple(range(10)), stored),))

    @given(payloads, st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_binary_body_is_a_wire_error(self, payload, data):
        body = encode_binary_body(payload)
        cut = data.draw(st.integers(min_value=1, max_value=max(1, len(body) - 1)))
        if cut == len(body):  # nothing to truncate (bare None is 2 bytes)
            return
        with pytest.raises(WireFormatError):
            decode_binary_body(body[:cut])

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_forged_binary_body_never_escapes_wire_error(self, garbage):
        """Arbitrary bytes after the magic either decode or raise
        WireFormatError — no other exception type reaches the caller."""
        try:
            decode_binary_body(bytes((BINARY_MAGIC,)) + garbage)
        except WireFormatError:
            pass

    def test_unknown_binary_tag_is_a_wire_error(self):
        with pytest.raises(WireFormatError, match="unknown binary wire tag"):
            decode_binary_body(bytes((BINARY_MAGIC, 0xEE)))

    def test_trailing_bytes_are_a_wire_error(self):
        body = encode_binary_body(("rsp", 1, None)) + b"\x00"
        with pytest.raises(WireFormatError, match="trailing"):
            decode_binary_body(body)

    @given(st.lists(payloads, min_size=1, max_size=4), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_binary_frames_survive_any_chunking(self, frames, chunk_size):
        stream = b"".join(encode_frame(frame, "binary") for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), chunk_size):
            decoded.extend(decoder.feed(stream[start : start + chunk_size]))
        assert decoded == frames
        assert decoder.pending_bytes == 0

    @given(st.lists(st.tuples(st.sampled_from(WIRE_CODECS), payloads), min_size=1, max_size=5))
    @settings(max_examples=75, deadline=None)
    def test_codecs_can_mix_mid_stream(self, tagged_frames):
        """One decoder handles interleaved JSON and binary frames: the
        magic byte identifies each body (negotiation downgrades are safe
        even mid-connection)."""
        stream = b"".join(
            encode_frame(payload, codec) for codec, payload in tagged_frames
        )
        decoded = FrameDecoder().feed(stream)
        assert decoded == [payload for _, payload in tagged_frames]


class TestEnvelopeFastPaths:
    """The fixed request/response envelope codecs against the generic ones."""

    @given(
        st.integers(min_value=1, max_value=2**31),
        payloads,
    )
    @settings(max_examples=100, deadline=None)
    def test_response_encoder_is_byte_identical(self, request_id, payload):
        for codec in WIRE_CODECS:
            fast = encode_response_frame(request_id, payload, codec)
            assert fast == encode_frame(("rsp", request_id, payload), codec)

    @given(
        st.integers(min_value=1, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.text(max_size=16),
        st.lists(payloads, max_size=3).map(tuple),
    )
    @settings(max_examples=100, deadline=None)
    def test_request_fast_decoder_matches_generic(self, request_id, server, method, args):
        frame = encode_request_frame(
            request_id, server, request_tail(method, args, "binary")
        )
        body = bytes(frame[4:])
        assert decode_binary_request_body(body) == decode_binary_body(body)
        assert decode_binary_request_body(body) == ("req", request_id, server, method, args)

    @given(st.integers(min_value=1, max_value=2**31), payloads)
    @settings(max_examples=100, deadline=None)
    def test_response_fast_decoder_matches_generic(self, request_id, payload):
        frame = encode_response_frame(request_id, payload, "binary")
        body = bytes(frame[4:])
        assert decode_binary_response_body(body) == decode_binary_body(body)
        assert decode_binary_response_body(body) == ("rsp", request_id, payload)

    @given(st.binary(max_size=48))
    @settings(max_examples=200, deadline=None)
    def test_fast_decoders_never_diverge_on_garbage(self, garbage):
        """Whatever bytes arrive, the envelope fast paths agree with the
        generic decoder: same value or both a WireFormatError."""
        body = bytes((BINARY_MAGIC,)) + garbage
        for fast in (decode_binary_request_body, decode_binary_response_body):
            try:
                generic = decode_binary_body(body)
            except WireFormatError:
                with pytest.raises(WireFormatError):
                    fast(body)
            else:
                assert fast(body) == generic


class TestShortReadResilience:
    @given(
        st.lists(payloads, min_size=1, max_size=5),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_yields_the_same_frames(self, frames, chunk_size):
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), chunk_size):
            decoded.extend(decoder.feed(stream[start : start + chunk_size]))
        assert decoded == frames
        assert decoder.pending_bytes == 0

    @given(st.lists(payloads, min_size=2, max_size=4), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_random_chunk_boundaries(self, frames, rnd):
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        position = 0
        while position < len(stream):
            step = rnd.randint(1, max(1, len(stream) - position))
            decoded.extend(decoder.feed(stream[position : position + step]))
            position += step
        assert decoded == frames

    def test_partial_frame_stays_buffered_without_output(self):
        frame = encode_frame({"k": list(range(50))})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []  # not even a full length prefix
        assert decoder.feed(frame[3:10]) == []  # prefix + partial body
        assert decoder.pending_bytes == 10
        (decoded,) = decoder.feed(frame[10:])
        assert decoded == {"k": list(range(50))}

    def test_frames_glued_to_a_partial_tail(self):
        first, second = encode_frame("one"), encode_frame("two")
        decoder = FrameDecoder()
        assert decoder.feed(first + second[:5]) == ["one"]
        assert decoder.feed(second[5:]) == ["two"]


class TestMalformedInput:
    def test_oversized_length_prefix_is_rejected_before_buffering(self):
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="beyond"):
            FrameDecoder().feed(prefix)

    def test_oversized_encode_is_rejected(self):
        decoder_cap = FrameDecoder(max_frame_bytes=16)
        frame = encode_frame("x" * 64)
        with pytest.raises(WireFormatError):
            decoder_cap.feed(frame)

    def test_garbage_body_is_a_wire_error(self):
        body = b"not json at all"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="undecodable"):
            FrameDecoder().feed(frame)

    def test_unknown_tag_is_a_wire_error(self):
        body = json.dumps({"zz": 1}).encode()
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="unknown wire tag"):
            FrameDecoder().feed(frame)

    def test_multi_key_object_is_a_wire_error(self):
        body = json.dumps({"a": 1, "b": 2}).encode()
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="malformed wire tag"):
            FrameDecoder().feed(frame)

    def test_malformed_timestamp_body_is_a_wire_error(self):
        body = json.dumps({"ts": [1, 2, 3, 4]}).encode()
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="malformed 'ts'"):
            FrameDecoder().feed(frame)

    @pytest.mark.parametrize(
        "text",
        [
            '{"ts":"12"}',  # once Timestamp(1, 2)
            '{"ts":[true,0]}',  # once Timestamp(1, 0)
            '{"ts":[1.9,0]}',  # once Timestamp(1, 0)
            '{"sv":"abc"}',  # once StoredValue('a', 'b', 'c')
            '{"t":"ab"}',  # once ('a', 'b')
            '{"d":["ab"]}',  # once {'a': 'b'}
            '{"b":["AA=="]}',
        ],
    )
    def test_a_tag_body_the_encoder_never_writes_is_a_wire_error(self, text):
        body = text.encode()
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="malformed"):
            FrameDecoder().feed(frame)

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_deeply_nested_json_is_a_wire_error(self, depth):
        # 1.2 KB of brackets nests deeper than unpack_value can recurse.
        body = b"[" * depth + b"]" * depth
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="undecodable"):
            FrameDecoder().feed(frame)
