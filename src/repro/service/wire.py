"""The socket transport's wire formats: length-prefixed frames, two codecs.

The TCP transport (:mod:`repro.service.net`) moves the *same* RPC payloads
the in-process paths pass by reference — method names, register keys,
arbitrary written values, :class:`~repro.protocol.timestamps.Timestamp`
objects (honest and forged), signature bytes and
:class:`~repro.simulation.server.StoredValue` replies — so a codec must be
a bijection on that whole value space, not just on JSON's native one.  Two
codecs implement that bijection behind one framing:

**json** (the default, and the one readable as text) packs every
container and protocol object behind a one-key tag object before
serialisation:

====  ==========================================================
tag   payload
====  ==========================================================
"b"   bytes, as base64 text
"t"   tuple, as a packed array
"d"   dict, as packed ``[key, value]`` pairs (keys need not be strings)
"ts"  ``Timestamp(counter, writer_id)``
"sv"  ``StoredValue(value, timestamp, signature)``
====  ==========================================================

Plain JSON scalars and lists pass through untouched; plain dicts never
appear raw on the wire (they are always tagged), which is what makes the
tag objects unambiguous.

**binary** is the struct-packed fast path: a body starts with the magic
byte ``0xB1`` (never the first byte of UTF-8 JSON text, so the decoder
distinguishes the codecs per frame), followed by one tag-prefixed value.
Fixed layouts cover the protocol's hot shapes — 64-bit ints (``!q``,
arbitrary-precision fallback), floats (``!d``), length-prefixed UTF-8
strings and *raw* bytes (no base64), counted lists/tuples/dicts, a
two-int64 ``Timestamp`` record and a three-field ``StoredValue`` record —
so RPC request/response tuples cost a handful of ``struct`` packs instead
of a JSON tree walk.

**Codecs are never negotiated.**  Every frame self-identifies via the magic
byte, so a receiver needs no per-connection state to decode: a client sends
every frame in the codec it was built with, and the server answers in the
codec its requests arrive in (:attr:`FrameDecoder.codec`).
``encode(decode(x)) == x`` for every supported payload under **both**
codecs — the hypothesis suite in ``tests/service/test_wire.py`` pins the
round trips down, including adversarially large and empty values, and pins
that the same logical frame decodes identically whichever codec carried it.

**Envelopes.**  Four request/response shapes ride the framing (who sends
which is in :mod:`repro.service.net`), each with a fast encoder::

    ("req", request_id, server_id, method, args)           encode_request_frame
    ("rsp", request_id, reply_envelope)                    encode_response_frame
    ("mreq", op_id, (server_id, ...), method, args)        encode_vectored_request_frame
    ("mrsp", op_id, (((server_id, ...), envelope), ...))   encode_grouped_response_frames

(decoded by :func:`decode_binary_request_body` / :func:`decode_binary_response_body`
and :func:`decode_json_body`).  An ``mreq`` may end in its trace id; the
generic decoder accepts that sixth element on either request.  Both codecs
fix the same inner layouts, the live shapes of a quorum operation:

* **server-id lists.**  Binary: ints inside int64 are one ``!BI`` +
  ``Bq``-per-id struct (:func:`_pack_int64_tuple` /
  :func:`_unpack_int64_tuple`).  JSON: exact ints are joined as decimal
  text (:func:`_json_ids`).  A ``bool``, a non-int or (binary) an id
  outside int64 takes the generic walk.
* **the live read reply** ``("ok", StoredValue(<bytes>, Timestamp, None))``,
  shared by ``rsp`` and every ``mrsp`` group.  Binary: a constant prefix,
  the value's length and bytes, a ``!Bqq`` timestamp record and the
  ``None`` tag (:func:`_pack_reply` / :func:`_unpack_reply`).  JSON: one
  bytes ``%``-format around the value's base64 (:func:`_json_reply`; a
  write's ``("ok", True)`` and an empty read's ``("ok", None)`` are
  constants).
* **JSON request args**: a read's ``(key,)`` and a write's ``(key, <bytes>,
  Timestamp, None)`` (:func:`request_tail`).  A JSON body is parsed by one
  ``json.loads`` and the four envelopes above are read from it in one
  shaped pass (:func:`_shaped_envelope`).

Every fast path is byte-identical to (encoders) or value- and
error-identical with (decoders) the generic :func:`encode_frame` /
:func:`decode_binary_body` / :func:`unpack_value` on the tuple shown, and
falls back to them on anything irregular.  An ``mrsp`` groups replicas by
their reply's **encoded bytes** — never ``==`` (``1 == True == 1.0``) —
and splits into several frames, same ``op_id``, rather than exceed
:data:`MAX_FRAME_BYTES`; ``tests/service/test_wire_vectored.py`` is the
differential fuzz over all four shapes and both codecs.

A frame is a 4-byte big-endian length prefix followed by the body.
:class:`FrameDecoder` is an *incremental* decoder: feed it whatever chunks
the socket produced — single bytes, frame fragments, several frames glued
together — and it yields each complete payload exactly once, holding
partial frames until the rest arrives.  Frames beyond
:data:`MAX_FRAME_BYTES` raise :class:`~repro.exceptions.WireFormatError`
*before* the body is buffered, bounding the memory a malformed (or hostile)
peer can pin.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError, WireFormatError
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue

#: Hard cap on one frame's body size (prefix excluded).  Large enough for
#: any realistic register value, small enough that a corrupt length prefix
#: cannot make the decoder buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Length-prefix width in bytes (big-endian, unsigned).
_PREFIX_BYTES = 4

#: The wire codecs.  ``"json"`` is the default and the text one;
#: ``"binary"`` is struct-packed and carries bytes raw, not as base64.
#: Both have fixed layouts for the live read and write shapes.
WIRE_CODECS = ("json", "binary")

_SCALARS = (bool, int, float, str)
_EXACT_INT = frozenset((int,))


def pack_value(value: Any) -> Any:
    """Lower one payload to JSON-serialisable form (see the tag table)."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, bytes):
        return {"b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"t": [pack_value(item) for item in value]}
    if isinstance(value, list):
        return [pack_value(item) for item in value]
    if isinstance(value, dict):
        return {"d": [[pack_value(key), pack_value(item)] for key, item in value.items()]}
    if isinstance(value, Timestamp):
        return {"ts": [value.counter, value.writer_id]}
    if isinstance(value, StoredValue):
        return {
            "sv": [
                pack_value(value.value),
                pack_value(value.timestamp),
                pack_value(value.signature),
            ]
        }
    raise WireFormatError(
        f"cannot serialise {type(value).__name__!r} for the socket transport"
    )


#: The tags :func:`pack_value` writes, each with the type of its body.
_TAG_BODIES = {"b": str, "t": list, "d": list, "ts": list, "sv": list}


def unpack_value(packed: Any) -> Any:
    """Invert :func:`pack_value`; raise on unknown or malformed tags.

    Only the shapes the encoder writes decode: a ``str`` under ``"b"``, a
    list under every other tag, ``[key, value]`` pairs under ``"d"`` and
    exact ints in a ``"ts"`` record.
    """
    if packed is None or isinstance(packed, _SCALARS):
        return packed
    if isinstance(packed, list):
        return [unpack_value(item) for item in packed]
    if isinstance(packed, dict):
        if len(packed) != 1:
            raise WireFormatError(f"malformed wire tag object: {sorted(packed)!r}")
        tag, body = next(iter(packed.items()))
        try:
            if type(body) is list:
                if tag == "t":
                    return tuple([unpack_value(item) for item in body])
                if tag == "sv":
                    value, timestamp, signature = body
                    return StoredValue(
                        value=unpack_value(value),
                        timestamp=unpack_value(timestamp),
                        signature=unpack_value(signature),
                    )
                if tag == "ts":
                    counter, writer_id = body
                    if type(counter) is not int or type(writer_id) is not int:
                        raise WireFormatError("malformed 'ts' wire payload: a field is not an int")
                    return Timestamp(counter, writer_id)
                if tag == "d":
                    for entry in body:
                        if type(entry) is not list or len(entry) != 2:
                            raise WireFormatError("malformed 'd' wire payload: an entry is not a pair")
                    return {unpack_value(key): unpack_value(item) for key, item in body}
            elif tag == "b" and type(body) is str:
                return base64.b64decode(body.encode("ascii"), validate=True)
        except WireFormatError:
            raise
        except Exception as error:  # malformed body under a known tag
            raise WireFormatError(f"malformed {tag!r} wire payload: {error}") from error
        expected = _TAG_BODIES.get(tag)
        if expected is None:
            raise WireFormatError(f"unknown wire tag {tag!r}")
        raise WireFormatError(
            f"malformed {tag!r} wire payload: a {type(body).__name__}, not a {expected.__name__}"
        )
    raise WireFormatError(f"cannot deserialise wire payload of type {type(packed).__name__!r}")


# -- the JSON codec's fixed layouts ------------------------------------------------


def _json_record(value: Any, timestamp: Any, signature: Any) -> Optional[bytes]:
    """``<bytes>, Timestamp(<int>, <int>), None`` as the JSON array items :func:`pack_value` writes.

    One ``%``-format around the base64 text; ``None`` for any other shape
    (a signature, a ``bytes`` subclass, a non-int timestamp field), which
    the caller then sends through the generic walk.
    """
    if type(value) is bytes and type(timestamp) is Timestamp and signature is None:
        counter, writer_id = timestamp.counter, timestamp.writer_id
        if type(counter) is int and type(writer_id) is int:
            return b'{"b":"%s"},{"ts":[%d,%d]},null' % (
                binascii.b2a_base64(value, newline=False), counter, writer_id
            )
    return None


def _json_reply(reply: Any) -> bytes:
    """One reply envelope's JSON text; byte-identical to ``json.dumps(pack_value(reply))``.

    The JSON mirror of :func:`_pack_reply`: a live read reply ``("ok",
    StoredValue(<bytes>, Timestamp, None))`` is one format around its
    :func:`_json_record`, and a write's ``("ok", True)`` / an empty read's
    ``("ok", None)`` a constant; any other shape takes the generic walk.
    """
    if type(reply) is tuple and len(reply) == 2 and type(reply[0]) is str and reply[0] == "ok":
        stored = reply[1]
        if type(stored) is StoredValue:
            record = _json_record(stored.value, stored.timestamp, stored.signature)
            if record is not None:
                return b'{"t":["ok",{"sv":[%s]}]}' % record
        elif stored is True:
            return b'{"t":["ok",true]}'
        elif stored is None:
            return b'{"t":["ok",null]}'
    return json.dumps(pack_value(reply), separators=(",", ":")).encode("ascii")


def _tag_list(packed: Any, tag: str) -> list:
    """The list body of the tag object ``{tag: [...]}``; raise on any other shape."""
    if type(packed) is dict and len(packed) == 1:
        body = packed.get(tag)
        if type(body) is list:
            return body
    raise ValueError(f"not a {tag!r} list")


def _shaped_ids(packed: Any) -> Tuple[int, ...]:
    """Invert :func:`_json_ids` on exact ints."""
    ids = _tag_list(packed, "t")
    if not _EXACT_INT.issuperset(map(type, ids)):  # a bool, a float, a str ...
        raise ValueError("not a list of exact ints")
    return tuple(ids)


def _shaped_record(value: Any, timestamp: Any) -> Tuple[bytes, Timestamp]:
    """Invert :func:`_json_record`'s value and timestamp; the caller checks the ``None``."""
    if type(value) is dict and len(value) == 1:
        text = value.get("b")
        if type(text) is str:
            fields = _tag_list(timestamp, "ts")
            if len(fields) == 2:
                counter, writer_id = fields
                if type(counter) is int and type(writer_id) is int:
                    data = base64.b64decode(text.encode("ascii"), validate=True)  # as unpack_value
                    return data, Timestamp(counter, writer_id)
    raise ValueError("not an unsigned bytes record")


def _shaped_reply(packed: Any) -> Any:
    """Invert :func:`_json_reply`."""
    body = _tag_list(packed, "t")
    if len(body) == 2 and body[0] == "ok":
        stored = body[1]
        if stored is None or stored is True:
            return ("ok", stored)
        fields = _tag_list(stored, "sv")
        if len(fields) == 3 and fields[2] is None:
            value, timestamp = _shaped_record(fields[0], fields[1])
            return ("ok", StoredValue(value, timestamp, None))
    raise ValueError("not a live reply")


def _shaped_args(packed: Any) -> tuple:
    """Invert :func:`request_tail`'s read ``(key,)`` and write ``(key, <record>)`` args."""
    args = _tag_list(packed, "t")
    if args and type(args[0]) is str:
        if len(args) == 1:
            return (args[0],)
        if len(args) == 4 and args[3] is None:
            value, timestamp = _shaped_record(args[1], args[2])
            return (args[0], value, timestamp, None)
    raise ValueError("not read or write args")


def _shaped_envelope(packed: Any) -> tuple:
    """The canonical envelopes, read in one pass; raise on any other shape.

    ``req``/``mreq`` with int ids, a ``str`` method and :func:`_shaped_args`
    (an ``mreq`` may end in an int trace id); ``rsp``/``mrsp`` with an int
    id and :func:`_shaped_reply` envelopes under :func:`_shaped_ids` groups.
    """
    frame = _tag_list(packed, "t")
    kind = frame[0]
    if kind == "mrsp" and len(frame) == 3 and type(frame[1]) is int:
        groups = []
        for group in _tag_list(frame[2], "t"):
            pair = _tag_list(group, "t")
            if len(pair) != 2:
                raise ValueError("not an (ids, reply) pair")
            groups.append((_shaped_ids(pair[0]), _shaped_reply(pair[1])))
        return ("mrsp", frame[1], tuple(groups))
    if kind == "rsp" and len(frame) == 3 and type(frame[1]) is int:
        return ("rsp", frame[1], _shaped_reply(frame[2]))
    if type(frame[1]) is int and type(frame[3]) is str:
        if kind == "mreq" and (len(frame) == 5 or (len(frame) == 6 and type(frame[5]) is int)):
            ids, args = _shaped_ids(frame[2]), _shaped_args(frame[4])
            return ("mreq", frame[1], ids, frame[3], args, *frame[5:])
        if kind == "req" and len(frame) == 5 and type(frame[2]) is int:
            return ("req", frame[1], frame[2], frame[3], _shaped_args(frame[4]))
    raise ValueError("not a canonical envelope")


def decode_json_body(body: bytes) -> Any:
    """Decode one JSON frame body; raise :class:`WireFormatError` on garbage.

    The body is parsed once; the canonical envelopes (:func:`_shaped_envelope`)
    then decode in one pass, and any other shape — or any exception on the
    way — hands the *same* parsed object to :func:`unpack_value`, so every
    value and every error is the generic path's.
    """
    try:
        packed = json.loads(body.decode("utf-8"))
        try:
            return _shaped_envelope(packed)
        except Exception:
            pass
        return unpack_value(packed)
    except WireFormatError:
        raise
    except (ValueError, RecursionError) as error:
        # RecursionError: a few hundred nested brackets outrun
        # unpack_value's recursion, as a binary body can.
        raise WireFormatError(f"undecodable frame body: {error}") from error


# -- the binary codec --------------------------------------------------------------

#: First body byte of every binary frame.  0xB1 is a UTF-8 continuation
#: byte, so it can never open the UTF-8 text of a JSON body — which is what
#: lets :class:`FrameDecoder` dispatch per frame with no per-connection state.
BINARY_MAGIC = 0xB1

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03  # !q
_T_BIGINT = 0x04  # !I byte length + signed big-endian magnitude
_T_FLOAT = 0x05  # !d
_T_STR = 0x06  # !I byte length + UTF-8
_T_BYTES = 0x07  # !I byte length + raw bytes (no base64)
_T_LIST = 0x08  # !I count + items
_T_TUPLE = 0x09  # !I count + items
_T_DICT = 0x0A  # !I count + key/value pairs
_T_TS = 0x0B  # !qq (counter, writer_id)
_T_TSBIG = 0x0C  # two packed ints (beyond int64; forged timestamps)
_T_SV = 0x0D  # value, timestamp, signature (each packed)

_STRUCT_Q = struct.Struct("!q")
_STRUCT_D = struct.Struct("!d")
_STRUCT_I = struct.Struct("!I")
_STRUCT_QQ = struct.Struct("!qq")
_STRUCT_BQQ = struct.Struct("!Bqq")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _pack_int(value: int, out: bytearray) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_T_INT)
        out += _STRUCT_Q.pack(value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out.append(_T_BIGINT)
        out += _STRUCT_I.pack(len(raw))
        out += raw


def _pack_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    out += _STRUCT_I.pack(len(raw))
    out += raw


def _pack_bytes(value: bytes, out: bytearray) -> None:
    out.append(_T_BYTES)
    out += _STRUCT_I.pack(len(value))
    out += value


def _pack_list(value: list, out: bytearray) -> None:
    out.append(_T_LIST)
    out += _STRUCT_I.pack(len(value))
    for item in value:
        _pack_binary(item, out)


def _pack_tuple(value: tuple, out: bytearray) -> None:
    out.append(_T_TUPLE)
    out += _STRUCT_I.pack(len(value))
    for item in value:
        _pack_binary(item, out)


def _pack_dict(value: dict, out: bytearray) -> None:
    out.append(_T_DICT)
    out += _STRUCT_I.pack(len(value))
    for key, item in value.items():
        _pack_binary(key, out)
        _pack_binary(item, out)


def _pack_timestamp(value: Timestamp, out: bytearray) -> None:
    counter, writer_id = value.counter, value.writer_id
    if _INT64_MIN <= counter <= _INT64_MAX and _INT64_MIN <= writer_id <= _INT64_MAX:
        out.append(_T_TS)
        out += _STRUCT_QQ.pack(counter, writer_id)
    else:  # a forged timestamp may carry arbitrary-precision fields
        out.append(_T_TSBIG)
        _pack_int(counter, out)
        _pack_int(writer_id, out)


def _pack_stored_value(value: StoredValue, out: bytearray) -> None:
    out.append(_T_SV)
    _pack_binary(value.value, out)
    _pack_binary(value.timestamp, out)
    _pack_binary(value.signature, out)


def _pack_none(value: None, out: bytearray) -> None:
    out.append(_T_NONE)


def _pack_bool(value: bool, out: bytearray) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _pack_float(value: float, out: bytearray) -> None:
    out.append(_T_FLOAT)
    out += _STRUCT_D.pack(value)


#: Exact-type dispatch for the hot path (``type(x)`` lookup beats the
#: isinstance chain the JSON codec walks); ``bool`` precedes ``int`` in the
#: subclass fallback below for the same reason it does in ``pack_value``.
_BINARY_PACKERS = {
    type(None): _pack_none,
    bool: _pack_bool,
    int: _pack_int,
    float: _pack_float,
    str: _pack_str,
    bytes: _pack_bytes,
    list: _pack_list,
    tuple: _pack_tuple,
    dict: _pack_dict,
    Timestamp: _pack_timestamp,
    StoredValue: _pack_stored_value,
}

_BINARY_PACKER_FALLBACK = (
    (bool, _pack_bool),
    (int, _pack_int),
    (float, _pack_float),
    (str, _pack_str),
    (bytes, _pack_bytes),
    (list, _pack_list),
    (tuple, _pack_tuple),
    (dict, _pack_dict),
    (Timestamp, _pack_timestamp),
    (StoredValue, _pack_stored_value),
)


def _pack_binary(value: Any, out: bytearray) -> None:
    packer = _BINARY_PACKERS.get(type(value))
    if packer is not None:
        packer(value, out)
        return
    for cls, packer in _BINARY_PACKER_FALLBACK:  # subclasses (rare)
        if isinstance(value, cls):
            packer(value, out)
            return
    raise WireFormatError(
        f"cannot serialise {type(value).__name__!r} for the socket transport"
    )


def _take(body: bytes, offset: int, length: int) -> int:
    end = offset + length
    if end > len(body):
        raise WireFormatError(
            f"truncated binary frame: {length} bytes claimed at offset {offset}, "
            f"{len(body) - offset} available"
        )
    return end


def _unpack_binary(body: bytes, offset: int) -> Tuple[Any, int]:
    tag = body[offset]
    offset += 1
    if tag == _T_TUPLE or tag == _T_LIST:
        (count,) = _STRUCT_I.unpack_from(body, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _unpack_binary(body, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_STR:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return body[offset + 4 : end].decode("utf-8"), end
    if tag == _T_INT:
        return _STRUCT_Q.unpack_from(body, offset)[0], offset + 8
    if tag == _T_TS:
        counter, writer_id = _STRUCT_QQ.unpack_from(body, offset)
        return Timestamp(counter, writer_id), offset + 16
    if tag == _T_SV:
        value, offset = _unpack_binary(body, offset)
        timestamp, offset = _unpack_binary(body, offset)
        signature, offset = _unpack_binary(body, offset)
        return StoredValue(value=value, timestamp=timestamp, signature=signature), offset
    if tag == _T_BYTES:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return body[offset + 4 : end], end
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_FLOAT:
        return _STRUCT_D.unpack_from(body, offset)[0], offset + 8
    if tag == _T_DICT:
        (count,) = _STRUCT_I.unpack_from(body, offset)
        offset += 4
        pairs = {}
        for _ in range(count):
            key, offset = _unpack_binary(body, offset)
            item, offset = _unpack_binary(body, offset)
            pairs[key] = item
        return pairs, offset
    if tag == _T_BIGINT:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return int.from_bytes(body[offset + 4 : end], "big", signed=True), end
    if tag == _T_TSBIG:
        counter, offset = _unpack_binary(body, offset)
        writer_id, offset = _unpack_binary(body, offset)
        if not isinstance(counter, int) or not isinstance(writer_id, int):
            raise WireFormatError("malformed big-timestamp record")
        return Timestamp(counter, writer_id), offset
    raise WireFormatError(f"unknown binary wire tag 0x{tag:02x}")


def decode_binary_body(body: bytes) -> Any:
    """Decode one binary frame body (magic byte included); raise on garbage."""
    try:
        value, offset = _unpack_binary(body, 1)
    except WireFormatError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, OverflowError,
            RecursionError, TypeError, ValueError, ProtocolError) as error:
        # ProtocolError: a forged body can encode field values the protocol
        # types refuse (a negative timestamp counter) — still a wire fault.
        raise WireFormatError(
            f"truncated or malformed binary frame: {error}"
        ) from error
    if offset != len(body):
        raise WireFormatError(
            f"{len(body) - offset} trailing bytes after the binary payload"
        )
    return value


def encode_binary_body(payload: Any) -> bytes:
    """One payload as a binary frame body (magic byte included)."""
    out = bytearray((BINARY_MAGIC,))
    _pack_binary(payload, out)
    return bytes(out)


# -- framing -----------------------------------------------------------------------


def _frame(body: bytes) -> bytes:
    """Length-prefix one encoded body, enforcing the frame cap."""
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return len(body).to_bytes(_PREFIX_BYTES, "big") + body


def encode_frame(payload: Any, codec: str = "json") -> bytes:
    """One payload as a length-prefixed frame, ready for a socket write."""
    if codec == "json":
        body = json.dumps(pack_value(payload), separators=(",", ":")).encode("utf-8")
    elif codec == "binary":
        body = encode_binary_body(payload)
    else:
        raise WireFormatError(
            f"unknown wire codec {codec!r}; choose from {WIRE_CODECS}"
        )
    return _frame(body)


def request_tail(method: str, args: tuple, codec: str = "json"):
    """Pre-serialised ``method, args`` suffix of a request frame.

    The ``(method, args)`` suffix both request envelopes end in, serialised
    apart from the ids in front of it.  Compose with
    :func:`encode_vectored_request_frame` (one frame per quorum operation)
    or :func:`encode_request_frame` (one per RPC); the tail is ``str``
    under the JSON codec and ``bytes`` under the binary one.  Under JSON a
    read's ``(key,)`` and a write's ``(key, <bytes>, Timestamp, None)`` are
    formatted directly (:func:`_json_record`); other args take the generic
    walk.
    """
    if codec == "json":
        args = tuple(args)
        if len(args) == 1 and type(args[0]) is str:  # a read
            return '%s,{"t":[%s]}' % (json.dumps(method), json.dumps(args[0]))
        if len(args) == 4 and type(args[0]) is str:  # a write or repair
            record = _json_record(*args[1:])
            if record is not None:
                return '%s,{"t":[%s,%s]}' % (
                    json.dumps(method), json.dumps(args[0]), record.decode("ascii")
                )
        return json.dumps(method) + "," + json.dumps(pack_value(args), separators=(",", ":"))
    if codec == "binary":
        out = bytearray()
        _pack_str(method, out)
        _pack_tuple(tuple(args), out)
        return bytes(out)
    raise WireFormatError(f"unknown wire codec {codec!r}; choose from {WIRE_CODECS}")


def _envelope_prefix(arity: int, kind: str) -> bytes:
    """Fixed opening of a binary envelope body: magic, tuple header, kind."""
    out = bytearray((BINARY_MAGIC, _T_TUPLE))
    out += _STRUCT_I.pack(arity)
    _pack_str(kind, out)
    return bytes(out)


#: Fixed prefix of every binary request body: magic, 5-tuple header, "req".
_BINARY_REQ_PREFIX = _envelope_prefix(5, "req")
#: The vectored request (one frame per quorum operation) and its traced
#: variant, whose sixth element is the 64-bit id of the client-side trace.
_BINARY_MREQ_PREFIXES = (_envelope_prefix(5, "mreq"), _envelope_prefix(6, "mreq"))


def encode_request_frame(request_id: int, server: int, tail) -> bytes:
    """One request frame from a pre-serialised :func:`request_tail`.

    Byte-identical to ``encode_frame(("req", request_id, server, method,
    args), codec)`` for the codec the tail was built with (the tail's type
    identifies it) — the wire tests pin the equivalence down.
    """
    if isinstance(tail, str):
        return _frame(('{"t":["req",%d,%d,%s]}' % (request_id, server, tail)).encode("utf-8"))
    out = bytearray(_BINARY_REQ_PREFIX)
    _pack_int(request_id, out)
    _pack_int(server, out)
    out += tail
    return _frame(bytes(out))


#: Fixed prefix of every binary response body: magic, 3-tuple header, "rsp".
_BINARY_RSP_PREFIX = _envelope_prefix(3, "rsp")
#: The grouped response to a vectored request, and the 2-tuple header that
#: opens each of its ``(server_ids, reply_envelope)`` groups.
_BINARY_MRSP_PREFIX = _envelope_prefix(3, "mrsp")
_BINARY_PAIR_HEADER = bytes((_T_TUPLE,)) + _STRUCT_I.pack(2)


#: Fixed opening of a live read reply ``("ok", StoredValue(<bytes>, ...))``:
#: 2-tuple header, the ``"ok"`` string, the record tag and the value's bytes
#: tag.  The value's length, the value, a ``!Bqq`` timestamp record and the
#: ``None`` signature's tag follow.
_REPLY_PREFIX = _envelope_prefix(2, "ok")[1:] + bytes((_T_SV, _T_BYTES))
_NONE_TAG = bytes((_T_NONE,))


def _pack_reply(reply: Any) -> bytes:
    """One reply envelope's binary encoding; byte-identical to :func:`_pack_binary`.

    A live read reply — ``("ok", StoredValue(v, ts, None))`` with ``v``
    exactly ``bytes`` and ``ts`` exactly a :class:`Timestamp` inside int64 —
    is one join of fixed pieces; any other shape, a signed reply included,
    takes the generic walk.
    """
    if type(reply) is tuple and len(reply) == 2:
        tag, stored = reply
        if type(stored) is StoredValue and type(tag) is str and tag == "ok":
            value, timestamp = stored.value, stored.timestamp
            if type(value) is bytes and type(timestamp) is Timestamp and stored.signature is None:
                counter, writer_id = timestamp.counter, timestamp.writer_id
                if _INT64_MIN <= counter <= _INT64_MAX and _INT64_MIN <= writer_id <= _INT64_MAX:
                    return b"".join((
                        _REPLY_PREFIX, _STRUCT_I.pack(len(value)), value,
                        _STRUCT_BQQ.pack(_T_TS, counter, writer_id), _NONE_TAG,
                    ))
    out = bytearray()
    _pack_binary(reply, out)
    return bytes(out)


def _unpack_reply(body: bytes, offset: int) -> Tuple[Any, int]:
    """Decode the reply envelope at ``offset``; the mirror of :func:`_pack_reply`.

    A body that opens with :data:`_REPLY_PREFIX` and carries a ``!qq``
    timestamp and a ``None`` signature decodes with one ``unpack_from`` per
    field; anything else goes through :func:`_unpack_binary`.  The
    :class:`Timestamp` is built through its constructor, so a field it
    refuses raises as on the generic path.
    """
    start = offset + len(_REPLY_PREFIX)
    if body[offset:start] == _REPLY_PREFIX:
        (length,) = _STRUCT_I.unpack_from(body, start)
        start += 4
        end = start + length  # the value's end: the timestamp record starts here
        stop = end + _STRUCT_BQQ.size + 1  # past the signature's tag
        if stop <= len(body):
            tag, counter, writer_id = _STRUCT_BQQ.unpack_from(body, end)
            if tag == _T_TS and body[stop - 1] == _T_NONE:
                stored = StoredValue(body[start:end], Timestamp(counter, writer_id), None)
                return ("ok", stored), stop
    return _unpack_binary(body, offset)


def encode_response_frame(request_id: int, payload: Any, codec: str = "json") -> bytes:
    """One response frame; byte-identical to ``encode_frame(("rsp", ...))``.

    The response envelope is as fixed as the request one, so both codecs
    glue a fixed opening instead of packing the outer tuple — this is the
    server's per-request hot path.  The reply goes through
    :func:`_pack_reply` or :func:`_json_reply`, as an ``mrsp`` group's does.
    """
    if codec == "json" and type(request_id) is int:
        return _frame(b'{"t":["rsp",%d,%s]}' % (request_id, _json_reply(payload)))
    if codec != "binary":
        return encode_frame(("rsp", request_id, payload), codec)
    out = bytearray(_BINARY_RSP_PREFIX)
    _pack_int(request_id, out)
    out += _pack_reply(payload)
    return _frame(bytes(out))


def decode_binary_request_body(body: bytes) -> Any:
    """:func:`decode_binary_body`, fast-pathing the canonical request shape.

    Bodies produced by :func:`encode_request_frame` and
    :func:`encode_vectored_request_frame` open with a fixed envelope
    prefix; recognising it skips the generic tag dispatch for the envelope
    (the server decodes one of these per frame).  Anything else — a traced
    ``req``, a malformed lookalike — falls back to the generic decoder, so
    error behaviour is unchanged.
    """
    if body.startswith(_BINARY_REQ_PREFIX):
        try:
            if body[14] == _T_INT and body[23] == _T_INT:
                request_id = _STRUCT_Q.unpack_from(body, 15)[0]
                server = _STRUCT_Q.unpack_from(body, 24)[0]
                method, offset = _unpack_binary(body, 32)
                args, offset = _unpack_binary(body, offset)
                if offset == len(body) and type(method) is str and type(args) is tuple:
                    return ("req", request_id, server, method, args)
        except Exception:
            pass
    elif body.startswith(_BINARY_MREQ_PREFIXES):
        # The vectored envelope: op id at a fixed offset, then the id list
        # as one struct unpack, then the same (method, args[, trace_id]) tail.
        try:
            if body[15] == _T_INT:
                op_id = _STRUCT_Q.unpack_from(body, 16)[0]
                servers, offset = _unpack_int64_tuple(body, 24)
                rest = []
                for _ in range(body[5] - 3):  # body[5]: the envelope's arity
                    item, offset = _unpack_binary(body, offset)
                    rest.append(item)
                if offset == len(body):
                    return ("mreq", op_id, servers, *rest)
        except Exception:
            pass
    return decode_binary_body(body)


def decode_binary_response_body(body: bytes) -> Any:
    """:func:`decode_binary_body`, fast-pathing the canonical response shape.

    The client-side mirror of :func:`decode_binary_request_body`: one
    response envelope per RPC reply.
    """
    if body.startswith(_BINARY_RSP_PREFIX):
        try:
            if body[14] == _T_INT:
                request_id = _STRUCT_Q.unpack_from(body, 15)[0]
                payload, offset = _unpack_reply(body, 23)
                if offset == len(body):
                    return ("rsp", request_id, payload)
        except Exception:
            pass
    elif body.startswith(_BINARY_MRSP_PREFIX):
        try:
            if body[15] == _T_INT and body[24] == _T_TUPLE:
                op_id = _STRUCT_Q.unpack_from(body, 16)[0]
                (count,) = _STRUCT_I.unpack_from(body, 25)
                offset = 29
                groups = []
                for _ in range(count):
                    if body[offset : offset + 5] != _BINARY_PAIR_HEADER:
                        break
                    servers, offset = _unpack_int64_tuple(body, offset + 5)
                    envelope, offset = _unpack_reply(body, offset)
                    groups.append((servers, envelope))
                else:
                    if offset == len(body):
                        return ("mrsp", op_id, tuple(groups))
        except Exception:
            pass
    return decode_binary_body(body)


# -- the vectored envelope: one frame per quorum operation --------------------------

#: Id lists longer than this decode through the generic path: the fast path
#: compiles one struct format per list length, which must stay quorum-sized.
_FAST_ID_COUNT = 1024


def _unpack_int64_tuple(body: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    """A counted tuple of ``!q`` ints in one struct unpack; raise on any other shape."""
    (count,) = _STRUCT_I.unpack_from(body, offset + 1)
    if body[offset] != _T_TUPLE or count > _FAST_ID_COUNT:
        raise ValueError("not a short tuple")
    fields = struct.unpack_from("!" + "Bq" * count, body, offset + 5)
    if fields[0::2].count(_T_INT) != count:
        raise ValueError("not a tuple of int64s")
    return fields[1::2], offset + 5 + 9 * count


def _pack_int64_tuple(values: Sequence[int]) -> bytes:
    """A counted tuple of ``!q`` ints in one struct pack; the mirror of :func:`_unpack_int64_tuple`.

    Byte-identical to :func:`_pack_binary` of ``tuple(values)``: a ``bool``
    id (which ``!q`` would write as an int), an id outside int64 or a
    non-int takes the generic walk.
    """
    if bool not in map(type, values):
        count = len(values)
        fields = [_T_INT] * (2 * count)
        fields[1::2] = values
        try:
            return struct.pack("!BI" + "Bq" * count, _T_TUPLE, count, *fields)
        except struct.error:
            pass
    out = bytearray()
    _pack_tuple(tuple(values), out)
    return bytes(out)


def _json_ids(values: Sequence[int]) -> str:
    """A server-id list as the items of a JSON array, as :func:`pack_value` writes them."""
    if _EXACT_INT.issuperset(map(type, values)):
        return ",".join(map(str, values))
    # str() of True, None, "a" or inf is not the JSON pack_value writes.
    return json.dumps([pack_value(value) for value in values], separators=(",", ":"))[1:-1]


def encode_vectored_request_frame(
    op_id: int, servers: Sequence[int], tail, trace_id: Optional[int] = None
) -> bytes:
    """One ``mreq`` frame from a pre-serialised :func:`request_tail`.

    Byte-identical to ``encode_frame(("mreq", op_id, tuple(servers), method,
    args), codec)`` for the codec the tail was built with, and to the
    6-tuple ending in ``trace_id`` when one is given.
    """
    if isinstance(tail, str):
        ids = _json_ids(servers)
        if trace_id is None:
            text = '{"t":["mreq",%d,{"t":[%s]},%s]}' % (op_id, ids, tail)
        else:
            text = '{"t":["mreq",%d,{"t":[%s]},%s,%d]}' % (op_id, ids, tail, trace_id)
        return _frame(text.encode("utf-8"))
    out = bytearray(_BINARY_MREQ_PREFIXES[trace_id is not None])
    _pack_int(op_id, out)
    out += _pack_int64_tuple(servers)
    out += tail
    if trace_id is not None:
        _pack_int(trace_id, out)
    return _frame(bytes(out))


def _reply_identity(reply: Any) -> tuple:
    """The object identities that determine a reply envelope's encoding.

    Replicas that applied the same write hold the very same value,
    timestamp and signature objects (one decoded request, q ``handle``
    calls), so equal identities mean equal bytes without encoding twice.
    Sound for any reply — the same objects always encode the same — and
    only ever a shortcut: replies of distinct identity still meet in one
    group when their bytes agree.
    """
    if type(reply) is tuple and len(reply) == 2:
        tag, payload = reply
        if type(payload) is StoredValue:
            return (id(tag), id(payload.value), id(payload.timestamp), id(payload.signature))
        return (id(tag), id(payload))
    return (id(reply),)


def encode_grouped_response_frames(
    op_id: int, replies: Sequence[Tuple[int, Any]], codec: str = "json"
) -> List[bytes]:
    """The ``mrsp`` frame(s) answering one ``mreq``; none when nobody replied.

    ``replies`` lists ``(server_id, reply_envelope)`` for every replica
    that answered (a silent one is simply absent).  Replicas are grouped by
    their reply's *encoded bytes* — exact where ``==`` is not (``1 == True
    == 1.0``, and the codec is a bijection) — so a read ships one envelope
    per version (a 10-reply read carries a median of 4), each encoded once
    as the replicas share the writer's objects (:func:`_reply_identity`).  Each
    frame is byte-identical to ``encode_frame(("mrsp", op_id, groups),
    codec)``; a new frame is started whenever the next group would push the
    body past :data:`MAX_FRAME_BYTES`, so q large distinct values that each
    fit an ``rsp`` frame still get through.
    """
    binary = codec == "binary"
    if not binary and codec != "json":
        raise WireFormatError(f"unknown wire codec {codec!r}; choose from {WIRE_CODECS}")
    grouped: dict = {}
    encoded: dict = {}  # reply identity -> its encoding: agreeing replicas encode once
    for server_id, reply in replies:
        identity = _reply_identity(reply)
        key = encoded.get(identity)
        if key is None:
            key = _pack_reply(reply) if binary else _json_reply(reply)
            encoded[identity] = key
        grouped.setdefault(key, []).append(server_id)
    if binary:
        opening = bytearray(_BINARY_MRSP_PREFIX)
        _pack_int(op_id, opening)
        opening.append(_T_TUPLE)
        head, separator, tail = bytes(opening), b"", b""
        groups = [
            b"".join((_BINARY_PAIR_HEADER, _pack_int64_tuple(servers), envelope))
            for envelope, servers in grouped.items()
        ]
    else:
        head = b'{"t":["mrsp",%d,{"t":[' % op_id
        separator, tail = b",", b"]}]}"
        groups = [
            b'{"t":[{"t":[%s]},%s]}' % (_json_ids(servers).encode("ascii"), envelope)
            for envelope, servers in grouped.items()
        ]

    def close(chunk: List[bytes]) -> bytes:
        count = _STRUCT_I.pack(len(chunk)) if binary else b""
        return _frame(head + count + separator.join(chunk) + tail)

    frames: List[bytes] = []
    overhead = len(head) + 4  # the binary group count, or the JSON closing brackets
    start, size = 0, overhead
    for index, group in enumerate(groups):
        if index > start and size + len(group) > MAX_FRAME_BYTES:
            frames.append(close(groups[start:index]))
            start, size = index, overhead
        size += len(group) + 1  # at most one separator byte per group
    if groups:
        frames.append(close(groups[start:]))
    return frames


class FrameDecoder:
    """Incremental frame decoder, resilient to arbitrary chunk boundaries.

    :meth:`feed` accepts whatever the socket read produced and returns the
    payloads of every frame *completed* by that chunk (possibly none,
    possibly several); partial frames stay buffered until their remaining
    bytes arrive.  Each frame self-identifies its codec — a body opening
    with :data:`BINARY_MAGIC` is binary, anything else is JSON — so one
    decoder handles either codec, frame by frame, and :attr:`codec` names
    the codec of the frame it decoded last (the server answers in it).
    The decoder is stateful per connection — use one instance per stream.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        decode_binary: Optional[Callable[[bytes], Any]] = None,
    ) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = int(max_frame_bytes)
        #: How binary bodies decode; callers on a known hot path may install
        #: a specialised decoder (e.g. :func:`decode_binary_request_body`)
        #: that falls back to :func:`decode_binary_body` on anything else.
        self._decode_binary = decode_binary or decode_binary_body
        #: Frames decoded so far (tests and server stats).
        self.frames_decoded = 0
        #: The codec of the last decoded frame (``"json"`` before any).
        self.codec = "json"

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Any]:
        """Buffer ``data``; return the payloads of every completed frame."""
        buffer = self._buffer
        buffer += data
        payloads: List[Any] = []
        # Walk the buffer with an offset and compact once at the end: a
        # chunk carrying many small frames costs one left-shift, not one
        # per frame.
        offset = 0
        available = len(buffer)
        while available - offset >= _PREFIX_BYTES:
            length = int.from_bytes(buffer[offset : offset + _PREFIX_BYTES], "big")
            if length > self._max_frame_bytes:
                raise WireFormatError(
                    f"incoming frame claims {length} bytes, beyond the "
                    f"{self._max_frame_bytes}-byte cap"
                )
            end = offset + _PREFIX_BYTES + length
            if available < end:
                break
            body = bytes(buffer[offset + _PREFIX_BYTES : end])
            offset = end
            if body and body[0] == BINARY_MAGIC:
                self.codec = "binary"
                payloads.append(self._decode_binary(body))
            else:
                self.codec = "json"
                payloads.append(decode_json_body(body))
            self.frames_decoded += 1
        if offset:
            del buffer[:offset]
        return payloads
