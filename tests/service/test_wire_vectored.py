"""Differential fuzz of the four wire envelopes across both codecs.

``req``/``rsp`` carry one RPC, ``mreq``/``mrsp`` one quorum operation; each
has a fast encoder and (binary) a fast decoder beside the generic ones.
The properties here are all *differential* — nothing is pinned to a byte
layout, two implementations are pinned to each other:

* JSON and binary decode every valid frame to the same object;
* the fast encoders are byte-identical to ``encode_frame(<tuple>, codec)``;
* the fast decoders equal the generic decoder on valid bodies and never
  diverge from it on mutated ones (bit flips, truncation, spliced length
  fields): same object, or ``WireFormatError`` from both;
* any chunking of a stream mixing all four shapes yields the same frames;
* a grouped ``mrsp`` expands to exactly the ungrouped replies — grouping is
  by encoded bytes, so ``1``/``True``/``1.0`` and ``b""``/``""`` stay apart;
* a live read reply ``("ok", StoredValue(<bytes>, Timestamp, None))``
  crosses both fast paths without the generic walk, and its look-alikes
  (a signed reply among them) take it;
* under JSON, the shaped decode (``decode_json_body``) equals ``json.loads``
  + ``unpack_value`` on valid, mutated and look-alike bodies, and a live
  read and write cross it and the JSON encoders with no ``pack_value`` or
  ``unpack_value`` call.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireFormatError
from repro.protocol.timestamps import Timestamp
from repro.service import wire
from repro.service.wire import (
    WIRE_CODECS,
    FrameDecoder,
    decode_binary_body,
    decode_binary_request_body,
    decode_binary_response_body,
    encode_frame,
    encode_grouped_response_frames,
    encode_request_frame,
    encode_response_frame,
    encode_vectored_request_frame,
    request_tail,
)
from repro.simulation.server import StoredValue

# -- strategies -------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.binary(max_size=32),
    st.builds(Timestamp, st.integers(0, 2**62), st.integers(0, 2**30)),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.builds(
            StoredValue,
            value=children,
            timestamp=st.one_of(st.builds(Timestamp, st.integers(0, 2**62)), st.none()),
            signature=st.one_of(st.none(), st.binary(max_size=16)),
        ),
    ),
    max_leaves=8,
)
ids = st.integers(min_value=1, max_value=2**40)
servers = st.integers(min_value=0, max_value=10_000)
server_lists = st.lists(servers, min_size=1, max_size=12, unique=True).map(tuple)
methods = st.text(max_size=12)
arguments = st.lists(values, max_size=3).map(tuple)
trace_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=2**63 - 1))

class Blob(bytes):
    """A bytes subclass: it encodes as bytes, but only through the generic walk."""


int64s = st.integers(-(2**63), 2**63 - 1)
#: A live read's timestamps: any writer id, the int64 edges (2**63 is one
#: past them: the big-timestamp record) and the forgers' maximum.
live_timestamps = st.one_of(
    st.builds(Timestamp, st.integers(0, 2**63 - 1), int64s),
    st.builds(
        Timestamp,
        st.sampled_from((0, 2**63 - 1, 2**63)),
        st.sampled_from((0, 1, -(2**63), 2**63 - 1, 2**63, -(2**63) - 1)),
    ),
    st.just(Timestamp.forged_maximum()),
)
signatures = st.one_of(st.none(), st.binary(max_size=24))
live_records = st.builds(
    StoredValue, value=st.binary(max_size=48), timestamp=live_timestamps, signature=signatures
)
#: The reply shape the binary codec packs as one fixed layout (an unsigned
#: record), and the look-alikes that must take the generic walk instead: a
#: signed record, a str or bytes subclass value, or a tag other than "ok".
live_replies = st.one_of(
    st.tuples(st.just("ok"), live_records),
    st.tuples(
        st.just("ok"),
        st.builds(
            StoredValue,
            value=st.one_of(st.text(max_size=8), st.binary(max_size=8).map(Blob)),
            timestamp=live_timestamps,
            signature=signatures,
        ),
    ),
    st.tuples(st.sampled_from(("err", "OK", "ok ", "")), live_records),
)
#: What replicas answer: the ("ok", payload) reply envelope.
envelopes = st.one_of(st.tuples(st.just("ok"), values), live_replies)
#: A few distinct envelopes answered by many replicas: groups actually form.
reply_lists = st.lists(envelopes, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
).map(lambda answers: [(server, answer) for server, answer in enumerate(answers)])


def traced(frame, trace_id):
    return frame if trace_id is None else frame + (trace_id,)


def expand(frames):
    """Decoded ``mrsp`` frames -> {server_id: reply_envelope}."""
    replies = {}
    for kind, _, groups in frames:
        assert kind == "mrsp"
        for server_ids, envelope in groups:
            for server_id in server_ids:
                assert server_id not in replies
                replies[server_id] = envelope
    return dict(sorted(replies.items()))


def same(left, right):
    """Equality that also tells ``1`` from ``True`` from ``1.0``."""
    return left == right and repr(left) == repr(right)


@st.composite
def fast_encoded(draw):
    """(generic tuple, {codec: fast-encoded frame}) for one envelope of any kind."""
    kind = draw(st.sampled_from(("req", "mreq", "rsp", "mrsp")))
    frames = {}
    if kind in ("req", "mreq"):
        request_id, method, args = draw(ids), draw(methods), draw(arguments)
        target = draw(servers if kind == "req" else server_lists)
        # Only a quorum round's mreq carries a trace id.
        trace_id = draw(trace_ids) if kind == "mreq" else None
        for codec in WIRE_CODECS:
            tail = request_tail(method, args, codec)
            if kind == "req":
                frames[codec] = encode_request_frame(request_id, target, tail)
            else:
                frames[codec] = encode_vectored_request_frame(
                    request_id, target, tail, trace_id=trace_id
                )
        return traced((kind, request_id, target, method, args), trace_id), frames
    if kind == "rsp":
        request_id, envelope = draw(ids), draw(envelopes)
        for codec in WIRE_CODECS:
            frames[codec] = encode_response_frame(request_id, envelope, codec)
        return ("rsp", request_id, envelope), frames
    op_id, replies = draw(ids), draw(reply_lists)
    for codec in WIRE_CODECS:
        (frames[codec],) = encode_grouped_response_frames(op_id, replies, codec)
    (generic,) = FrameDecoder().feed(frames["binary"])
    assert same(expand([generic]), dict(replies))
    return generic, frames


# -- valid frames -----------------------------------------------------------------


class TestValidFrames:
    @given(fast_encoded())
    @settings(max_examples=300, deadline=None)
    def test_fast_encoders_are_byte_identical_and_codecs_agree(self, case):
        generic, frames = case
        for codec in WIRE_CODECS:
            assert frames[codec] == encode_frame(generic, codec)
            (decoded,) = FrameDecoder().feed(frames[codec])
            assert same(decoded, generic)

    @given(fast_encoded())
    @settings(max_examples=300, deadline=None)
    def test_fast_decoders_equal_the_generic_decoder(self, case):
        generic, frames = case
        body = frames["binary"][4:]
        assert same(decode_binary_body(body), generic)
        for fast in (decode_binary_request_body, decode_binary_response_body):
            assert same(fast(body), generic)

    @given(st.lists(fast_encoded(), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_of_a_mixed_stream_yields_the_same_frames(self, cases, data):
        expected, stream = [], b""
        for generic, frames in cases:
            expected.append(generic)
            stream += frames[data.draw(st.sampled_from(WIRE_CODECS))]
        for decode_binary in (None, decode_binary_request_body, decode_binary_response_body):
            decoder = FrameDecoder(decode_binary=decode_binary)
            decoded, position = [], 0
            while position < len(stream):
                step = data.draw(st.integers(1, max(1, len(stream) - position)))
                decoded.extend(decoder.feed(stream[position : position + step]))
                position += step
            assert same(decoded, expected)
            assert decoder.pending_bytes == 0


# -- grouping ---------------------------------------------------------------------


class TestGrouping:
    @given(ids, reply_lists, st.sampled_from(WIRE_CODECS))
    @settings(max_examples=200, deadline=None)
    def test_grouped_equals_ungrouped_after_expansion(self, op_id, replies, codec):
        frames = encode_grouped_response_frames(op_id, replies, codec)
        decoded = [frame for raw in frames for frame in FrameDecoder().feed(raw)]
        assert all(frame[1] == op_id for frame in decoded)
        assert same(expand(decoded), dict(replies))
        # Never more groups than distinct encodings, never fewer than
        # distinct values: replicas that agree share one envelope.
        groups = sum(len(frame[2]) for frame in decoded)
        assert groups == len({encode_frame(reply, codec) for _, reply in replies})

    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_lookalikes_land_in_different_groups(self, codec):
        lookalikes = [1, True, 1.0, 0, False, 0.0, -0.0, b"", "", (), [], None, b"1", "1"]
        replies = [(server, ("ok", value)) for server, value in enumerate(lookalikes)]
        replies += [(len(lookalikes) + server, reply) for server, reply in replies]  # twins
        (frame,) = encode_grouped_response_frames(3, replies, codec)
        ((_, _, groups),) = FrameDecoder(decode_binary=decode_binary_response_body).feed(frame)
        assert len(groups) == len(lookalikes)
        for (server_ids, envelope), (server, expected) in zip(groups, replies):
            assert server_ids == (server, server + len(lookalikes))
            assert same(envelope, expected)

    def test_silence_is_absence(self):
        for codec in WIRE_CODECS:
            assert encode_grouped_response_frames(9, [], codec) == []

    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_replies_beyond_the_frame_cap_split(self, codec, monkeypatch):
        replies = [(server, ("ok", bytes([server]) * 400)) for server in range(6)]
        (whole,) = encode_grouped_response_frames(5, replies, codec)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1500)
        frames = encode_grouped_response_frames(5, replies, codec)
        assert len(frames) > 1 and all(len(frame) - 4 <= 1500 for frame in frames)
        decoded = [frame for raw in frames for frame in FrameDecoder().feed(raw)]
        assert expand(decoded) == dict(replies) == expand(FrameDecoder().feed(whole))
        for raw, frame in zip(frames, decoded):
            assert raw == encode_frame(frame, codec)
        # One group that cannot fit any frame is still an error, as for rsp.
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 300)
        with pytest.raises(WireFormatError, match="exceeds"):
            encode_grouped_response_frames(5, replies, codec)


# -- mutated frames ---------------------------------------------------------------


def outcome(decode, body):
    try:
        return ("ok", repr(decode(body)))
    except WireFormatError:
        return ("rejected",)


@st.composite
def mutated_bodies(draw):
    """A valid binary envelope body with a bit flipped, a cut, or a spliced length."""
    _, frames = draw(fast_encoded())
    body = bytearray(frames["binary"][4:])
    mutation = draw(st.sampled_from(("flip", "truncate", "splice", "extend")))
    position = draw(st.integers(0, len(body) - 1))
    if mutation == "flip":
        body[position] ^= 1 << draw(st.integers(0, 7))
    elif mutation == "truncate":
        del body[max(position, 1) :]
    elif mutation == "splice":
        # Overwrite four bytes with a length field of the attacker's choosing.
        length = draw(st.sampled_from((0, 1, 2, 255, 2**16, 2**31, 2**32 - 1)))
        body[position : position + 4] = length.to_bytes(4, "big")
    else:
        body += draw(st.binary(min_size=1, max_size=8))
    return bytes(body)


class TestMutatedFrames:
    @given(mutated_bodies())
    @settings(max_examples=600, deadline=None)
    def test_fast_decoders_never_diverge_from_the_generic_one(self, body):
        generic = outcome(decode_binary_body, body)
        assert outcome(decode_binary_request_body, body) == generic
        assert outcome(decode_binary_response_body, body) == generic

    @given(fast_encoded(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_json_frames_decode_or_raise_wire_errors_only(self, case, data):
        _, frames = case
        body = bytearray(frames["json"][4:])
        position = data.draw(st.integers(0, len(body) - 1))
        if data.draw(st.booleans()):
            body[position] ^= 1 << data.draw(st.integers(0, 7))
        else:
            del body[position:]
        frame = len(body).to_bytes(4, "big") + bytes(body)
        try:
            FrameDecoder().feed(frame)
        except WireFormatError:
            pass

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025, 5000])
    def test_id_lists_of_any_length_decode_identically(self, count):
        """Beyond the fast path's quorum-sized window the generic decoder
        takes over — same tuple either way."""
        frame = encode_vectored_request_frame(
            1, tuple(range(count)), request_tail("ping", (), "binary")
        )
        body = frame[4:]
        assert decode_binary_request_body(body) == decode_binary_body(body)
        assert decode_binary_request_body(body)[2] == tuple(range(count))

    def test_a_claimed_huge_id_count_is_rejected_without_allocating(self):
        frame = encode_vectored_request_frame(1, (1, 2), request_tail("ping", (), "binary"))
        body = bytearray(frame[4:])
        body[25:29] = (2**32 - 1).to_bytes(4, "big")  # the id tuple's count field
        with pytest.raises(WireFormatError):
            decode_binary_request_body(bytes(body))


# -- the live read reply ----------------------------------------------------------


def live_read():
    """A live 10-reply read over 4 versions, as the server hands it to the codec."""
    versions = [("ok", StoredValue(bytes([c]) * 16, Timestamp(c, 3))) for c in (9, 8, 7, 6)]
    return [(server, versions[min(server // 3, 3)]) for server in range(10)]


def test_a_live_read_never_takes_the_generic_walk(monkeypatch):
    replies = live_read()
    calls = []
    for name in ("_pack_binary", "_unpack_binary"):
        generic = getattr(wire, name)

        def counted(*args, _generic=generic, _name=name):
            calls.append(_name)
            return _generic(*args)

        monkeypatch.setattr(wire, name, counted)
    (mrsp,) = encode_grouped_response_frames(4, replies, "binary")
    rsp = encode_response_frame(5, replies[0][1], "binary")
    decoded = [decode_binary_response_body(frame[4:]) for frame in (mrsp, rsp)]
    assert calls == []
    monkeypatch.undo()
    assert same(expand(decoded[:1]), dict(replies))
    assert same(decoded[1], ("rsp", 5, replies[0][1]))
    assert mrsp == encode_frame(decode_binary_body(mrsp[4:]), "binary")
    assert rsp == encode_frame(("rsp", 5, replies[0][1]), "binary")


@pytest.mark.parametrize("value", [bytearray(b"v"), memoryview(b"v"), object()])
def test_an_unserialisable_value_fails_as_on_the_generic_path(value):
    reply = ("ok", StoredValue(value, Timestamp(1, 2), None))
    with pytest.raises(WireFormatError, match="cannot serialise"):
        encode_frame(("rsp", 1, reply), "binary")
    with pytest.raises(WireFormatError, match="cannot serialise"):
        encode_response_frame(1, reply, "binary")
    with pytest.raises(WireFormatError, match="cannot serialise"):
        encode_grouped_response_frames(1, [(0, reply)], "binary")


def test_a_negative_counter_is_a_wire_error_on_the_fast_path():
    (mrsp,) = encode_grouped_response_frames(
        4, [(0, ("ok", StoredValue(b"v", Timestamp(5, 1), None)))], "binary"
    )
    body = bytearray(mrsp[4:])
    record = body.index(bytes((0x0B,)) + (5).to_bytes(8, "big"))  # the !Bqq timestamp
    body[record + 1 : record + 9] = (-5).to_bytes(8, "big", signed=True)
    for decode in (decode_binary_body, decode_binary_response_body):
        with pytest.raises(WireFormatError):
            decode(bytes(body))


#: Server-id lists the fixed id layout cannot carry: a bool (``!q`` would
#: write it as an int) and ids just outside int64 on either side.
IRREGULAR_IDS = [(True, 2), (3, False), (2**63, 1), (0, -(2**63) - 1)]


@pytest.mark.parametrize("codec", WIRE_CODECS)
@pytest.mark.parametrize("server_ids", IRREGULAR_IDS)
def test_an_irregular_mreq_id_list_encodes_as_the_generic_frame(server_ids, codec):
    tail = request_tail("read", ("k",), codec)
    frame = encode_vectored_request_frame(7, server_ids, tail)
    assert frame == encode_frame(("mreq", 7, server_ids, "read", ("k",)), codec)
    (decoded,) = FrameDecoder(decode_binary=decode_binary_request_body).feed(frame)
    assert same(decoded, ("mreq", 7, server_ids, "read", ("k",)))


@pytest.mark.parametrize("codec", WIRE_CODECS)
@pytest.mark.parametrize("server_ids", IRREGULAR_IDS)
def test_an_irregular_mrsp_id_list_encodes_as_the_generic_frame(server_ids, codec):
    reply = ("ok", StoredValue(b"v", Timestamp(5, 1), None))
    frames = encode_grouped_response_frames(7, [(server, reply) for server in server_ids], codec)
    assert frames == [encode_frame(("mrsp", 7, ((server_ids, reply),)), codec)]
    (decoded,) = FrameDecoder(decode_binary=decode_binary_response_body).feed(frames[0])
    assert same(decoded, ("mrsp", 7, ((server_ids, reply),)))


# -- the JSON codec's fixed layouts -----------------------------------------------


#: Server-id lists whose items ``str()`` would not write as JSON (all but
#: the last): each must take ``pack_value``, as ``encode_frame`` does.
NON_INT_IDS = [(None, 1), ("a", 1), (float("inf"), 1), (1.5, 2)]


@pytest.mark.parametrize("codec", WIRE_CODECS)
@pytest.mark.parametrize("server_ids", NON_INT_IDS)
def test_a_non_int_id_list_encodes_as_the_generic_frame(server_ids, codec):
    tail = request_tail("read", ("k",), codec)
    mreq = encode_vectored_request_frame(7, server_ids, tail)
    assert mreq == encode_frame(("mreq", 7, server_ids, "read", ("k",)), codec)
    reply = ("ok", StoredValue(b"v", Timestamp(5, 1), None))
    mrsp = encode_grouped_response_frames(7, [(server, reply) for server in server_ids], codec)
    assert mrsp == [encode_frame(("mrsp", 7, ((server_ids, reply),)), codec)]
    decoded = FrameDecoder().feed(mreq + mrsp[0])
    assert same(decoded, [
        ("mreq", 7, server_ids, "read", ("k",)),
        ("mrsp", 7, ((server_ids, reply),)),
    ])


def generic_json_body(body):
    """The generic JSON decode: one ``json.loads``, then the whole :func:`unpack_value` walk."""
    try:
        return wire.unpack_value(json.loads(body.decode("utf-8")))
    except WireFormatError:
        raise
    except (ValueError, RecursionError) as error:
        raise WireFormatError(f"undecodable frame body: {error}") from error


#: Fragments a splice drops into a JSON body: the tags, the kinds and the
#: scalars the fixed layouts test for, and a few that break the text.
JSON_SPLICES = [
    '"ok"', '"err"', "true", "false", "null", "0", "-1", "1.5", "9223372036854775808",
    '{"b":"AA=="}', '{"ts":[1,2]}', '{"t":[]}', '"mrsp"', '"mreq"', '"rsp"', '"req"',
    "[", "]", "{", "}", ",", '"', ":", '{"t":[1],"x":2}', '"é"',
]


class TestJsonFixedLayouts:
    """``decode_json_body`` against the generic walk, and the encoders beside it."""

    @given(fast_encoded())
    @settings(max_examples=300, deadline=None)
    def test_the_shaped_decode_equals_the_generic_walk(self, case):
        generic, frames = case
        body = frames["json"][4:]
        assert same(wire.decode_json_body(body), generic_json_body(body))
        assert same(wire.decode_json_body(body), generic)

    @given(fast_encoded(), st.data())
    @settings(max_examples=600, deadline=None)
    def test_mutated_bodies_never_diverge_from_the_generic_walk(self, case, data):
        _, frames = case
        body = bytearray(frames["json"][4:])
        position = data.draw(st.integers(0, len(body) - 1))
        mutation = data.draw(st.sampled_from(("flip", "truncate", "splice", "replace")))
        if mutation == "flip":
            body[position] ^= 1 << data.draw(st.integers(0, 7))
        elif mutation == "truncate":
            del body[position:]
        else:
            fragment = data.draw(st.sampled_from(JSON_SPLICES)).encode("utf-8")
            cut = data.draw(st.integers(0, 12)) if mutation == "replace" else 0
            body[position : position + cut] = fragment
        body = bytes(body)
        assert outcome(wire.decode_json_body, body) == outcome(generic_json_body, body)

    @pytest.mark.parametrize(
        "original, lookalike",
        [
            ("null]}", '{"b":"c2ln"}]}'),  # a signed reply
            ("[5,1]", "[true,1]"),  # a bool counter
            ("[5,1]", "[9223372036854775808,1]"),  # a counter beyond int64
            ("[5,1]", "[-5,1]"),  # a negative counter
            ("[5,1]", "[5,1.0]"),  # a float writer id
            ('"ok"', '"err"'),  # a tag other than "ok"
            ('{"b":"dg=="}', '{"b":"dg==","x":1}'),  # a two-key tag object
            ('{"b":"dg=="}', '{"b":"dé=="}'),  # a non-ASCII base64 body
            ('{"b":"dg=="}', '{"b":"dg=\\n="}'),  # a base64 body with a newline
            ('{"t":[0,2]}', '{"t":[true,2]}'),  # a bool server id
            ('{"t":[0,2]}', '{"t":[0,2.0]}'),  # a float server id
            ('"mrsp",4', '"mrsp",true'),  # a bool op id
            ("]}]}]}", "],1]}]}]}"),  # a group of three
            (",77]}", ',{"b":"AA=="}]}'),  # a tagged trace id
            (",77]}", ",true]}"),  # a bool trace id
            ('"write"', '{"t":["write"]}'),  # a tagged method
            ('"k"', '{"b":"AA=="}'),  # a tagged key
        ],
    )
    def test_lookalikes_match_the_generic_walk(self, original, lookalike):
        reply = ("ok", StoredValue(b"v", Timestamp(5, 1), None))
        tail = request_tail("write", ("k", b"v", Timestamp(5, 1), None), "json")
        frames = [
            encode_grouped_response_frames(4, [(0, reply), (2, reply)], "json")[0],
            encode_response_frame(4, reply, "json"),
            encode_vectored_request_frame(4, (0, 2), tail, trace_id=77),
            encode_request_frame(4, 2, tail),
        ]
        texts = [frame[4:].decode("utf-8") for frame in frames]
        assert any(original in text for text in texts)
        for text in texts:
            body = text.replace(original, lookalike, 1).encode("utf-8")
            assert outcome(wire.decode_json_body, body) == outcome(generic_json_body, body)

    @pytest.mark.parametrize(
        "args",
        [
            ("k",),
            ("k", b"v" * 1024, Timestamp(9, 3), None),
            ("k", b"v", Timestamp(9, 3), b"signature"),  # signed: the generic walk
            ("k", Blob(b"v"), Timestamp(9, 3), None),
            ("k", b"v", Timestamp(True, 3), None),
            (1, b"v", Timestamp(9, 3), None),
            ("k", "v"),
            (),
        ],
    )
    def test_request_tails_equal_the_generic_frame(self, args):
        for method in ("write", "read", "méthode"):
            tail = request_tail(method, args, "json")
            frame = encode_vectored_request_frame(3, (1, 2), tail, trace_id=8)
            assert frame == encode_frame(("mreq", 3, (1, 2), method, args, 8), "json")
            req = encode_request_frame(5, 1, tail)
            assert req == encode_frame(("req", 5, 1, method, args), "json")
            for body in (frame[4:], req[4:]):  # a bool counter does not decode on either
                assert outcome(wire.decode_json_body, body) == outcome(generic_json_body, body)

    @pytest.mark.parametrize(
        "reply",
        [
            ("ok", True),
            ("ok", None),
            ("ok", 1),
            ("ok", False),
            ("ok", StoredValue(b"", Timestamp(0, 0), None)),
            ("ok", StoredValue(b"v", Timestamp(2**64, -(2**70)), None)),
            ("ok", StoredValue(b"v", Timestamp(1.5, 2), None)),
            ("ok", StoredValue(b"v", None, None)),
            ("OK", StoredValue(b"v", Timestamp(1, 2), None)),
            ("ok", StoredValue(b"v", Timestamp(1, 2), None), None),
        ],
    )
    def test_replies_equal_the_generic_frame(self, reply):
        rsp = encode_response_frame(True, reply, "json")  # a bool id: the generic frame
        assert rsp == encode_frame(("rsp", True, reply), "json")
        for request_id in (0, 2**70):
            rsp = encode_response_frame(request_id, reply, "json")
            assert rsp == encode_frame(("rsp", request_id, reply), "json")
            (mrsp,) = encode_grouped_response_frames(request_id, [(0, reply)], "json")
            assert mrsp == encode_frame(("mrsp", request_id, (((0,), reply),)), "json")
            for body in (rsp[4:], mrsp[4:]):  # a float counter does not decode on either
                assert outcome(wire.decode_json_body, body) == outcome(generic_json_body, body)

    def test_a_live_json_read_and_write_never_take_the_generic_walk(self, monkeypatch):
        replies = live_read()
        write_args = ("k", bytes(range(256)) * 4, Timestamp(9, 3), None)
        calls = []
        for name in ("pack_value", "unpack_value"):
            generic = getattr(wire, name)

            def counted(*args, _generic=generic, _name=name):
                calls.append(_name)
                return _generic(*args)

            monkeypatch.setattr(wire, name, counted)
        (mrsp,) = encode_grouped_response_frames(4, replies, "json")
        rsp = encode_response_frame(5, replies[0][1], "json")
        quorum = tuple(range(10))
        (ack,) = encode_grouped_response_frames(6, [(server, ("ok", True)) for server in quorum])
        read = encode_vectored_request_frame(7, quorum, request_tail("read", ("k",), "json"))
        write = encode_vectored_request_frame(
            8, quorum, request_tail("write", write_args, "json"), trace_id=11
        )
        decoded = FrameDecoder().feed(mrsp + rsp + ack + read + write)
        assert calls == []
        monkeypatch.undo()
        assert same(expand(decoded[:1]), dict(replies))
        assert same(decoded[1:], [
            ("rsp", 5, replies[0][1]),
            ("mrsp", 6, ((quorum, ("ok", True)),)),
            ("mreq", 7, quorum, "read", ("k",)),
            ("mreq", 8, quorum, "write", write_args, 11),
        ])
        for frame, payload in zip((mrsp, rsp, ack, read, write), decoded):
            assert frame == encode_frame(payload, "json")
            assert same(generic_json_body(frame[4:]), payload)
