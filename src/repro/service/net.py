"""Real socket transport: the service layer over asyncio TCP streams.

Everything above the transport — quorum clients, register frontends, the
load harness, the classifiers — is transport-agnostic: it calls
``transport.call(node, method, *args, timeout=...)`` and reads the
``calls``/``dropped``/``timed_out`` counters.  This module supplies the
wire-level implementation of that same interface:

* :class:`TcpServiceServer` hosts a whole replica group (a list of
  :class:`~repro.service.node.ServiceNode`) behind one listening socket;
  requests carry their destination server ids and are dispatched to each
  node's ordinary ``handle`` method.  A node that answers
  :data:`~repro.service.node.NO_REPLY` (crashed, silent-Byzantine) gets **no
  response** — the caller's deadline expires exactly as it would in
  process, so live fault injection works unchanged over the wire.
* :class:`TcpTransport` is a drop-in :class:`~repro.service.transport.
  AsyncTransport`: per-RPC wall-clock deadlines, the same failure counters,
  and the same client-side drop/latency simulation knobs (a "dropped" RPC is
  never sent and costs the caller its whole deadline, mirroring the
  in-process semantics).  It maintains a small pool of connections, each
  with its own **writer task** draining an outbound queue — concurrent
  fan-outs coalesce into large socket writes — and **reconnects on drop**:
  a broken connection is detected, its in-flight RPCs are left to their
  deadlines (silence semantics), and the next send reopens the socket.

Unlike the simulated transport, deadlines here are *wall-clock*: a timeout
bounds real elapsed time, including event-loop lag and kernel buffering.
The conformance suite (``tests/conformance``) asserts that classification
rates over this path agree with the in-process service and both Monte-Carlo
engines, and that no fabricated value is ever accepted.

Frames are the length-prefixed format of :mod:`repro.service.wire` under
either codec (tagged JSON, or the struct-packed binary fast path).  Four
request/response shapes::

    ("mreq", op_id, (server_id, ...), method, args_tuple)   # TcpDispatcher, per round
    ("mrsp", op_id, (((server_id, ...), reply_envelope), ...))
    ("req", request_id, server_id, method, args_tuple)      # TcpTransport.call, repairs
    ("rsp", request_id, reply_envelope)

A quorum operation is **one frame each way**: every replica of a group
lives behind the same server socket, so a round names its q servers in
one ``mreq``, the server validates the whole id list before touching any
node, calls each node's ``handle`` in process and answers with one
``mrsp``.  Replicas whose replies encode to *identical bytes* share one
envelope (a benign read is one group; a forger or a laggard is its own) —
bytes, never ``==``, because ``1 == True == 1.0`` and the codec is a
bijection.  A silent replica is simply absent from the ``mrsp``; when the
next group would push a frame past ``MAX_FRAME_BYTES`` the server starts
another ``mrsp`` with the same ``op_id``, and the client takes any number
of them per op.  Single RPCs (:meth:`TcpTransport.call`, cluster probes,
fire-and-forget repairs) keep the ``req``/``rsp`` pair.

Nothing is negotiated — both ends of this wire ship together.  A
:class:`TcpTransport` sends every frame in the codec it was built with;
the server accepts either request shape in either codec on any connection
and answers in the codec the request arrived in (every frame
self-identifies by its first byte).  A request may end in the client's
trace id as an optional sixth element.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import RpcTimeoutError, ServiceError, WireFormatError
from repro.obs.metrics import MetricsRegistry
from repro.service.dispatch import QuorumDriver
from repro.service.node import NO_REPLY, ServiceNode
from repro.service.quorum_op import QuorumOp
from repro.service.transport import AsyncTransport
from repro.service.wire import (
    WIRE_CODECS,
    FrameDecoder,
    decode_binary_request_body,
    decode_binary_response_body,
    encode_frame,
    encode_grouped_response_frames,
    encode_request_frame,
    encode_response_frame,
    encode_vectored_request_frame,
    request_tail,
)

#: Socket read size for both the server's and the client's reader loops.
_READ_CHUNK = 64 * 1024

#: Connections a :class:`TcpTransport` stripes its RPCs across by default.
DEFAULT_CONNECTIONS = 2


class RemoteNode:
    """Client-side stub for a replica hosted by a :class:`TcpServiceServer`.

    Carries only the ``server_id`` the quorum client and transport route by;
    the node's storage and behaviour live in the server process.
    """

    __slots__ = ("server_id",)

    def __init__(self, server_id: int) -> None:
        self.server_id = int(server_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"RemoteNode({self.server_id})"


def remote_nodes(n: int) -> List[RemoteNode]:
    """The ``n`` stubs a client passes where in-process code passes nodes."""
    return [RemoteNode(server) for server in range(n)]


async def _drain_queue(
    queue: "asyncio.Queue[bytes]", writer: asyncio.StreamWriter
) -> None:
    """Per-connection writer task: coalesce queued frames into one write.

    Every frame enqueued while the previous ``drain`` was in flight is
    folded into the next socket write, so a burst of concurrent fan-outs
    costs a handful of syscalls instead of one per RPC.
    """
    try:
        while True:
            buffer = bytearray(await queue.get())
            while not queue.empty():
                buffer += queue.get_nowait()
            writer.write(bytes(buffer))
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError, RuntimeError):
        # Peer gone or loop shutting down: the reader side (or the caller's
        # deadline) owns the failure; the writer task just stops.
        pass


class TcpServiceServer:
    """One listening socket hosting a replica group.

    Parameters
    ----------
    nodes:
        The group's replica nodes, indexed by server id (requests name their
        destination).  The caller keeps the references — live fault
        injection crashes/recovers these exact objects.
    host, port:
        Bind address; ``port=0`` (the default) lets the OS pick a free
        ephemeral port, published via :attr:`address` after :meth:`start`.

    The server speaks both wire codecs on every connection and answers each
    chunk of requests in the codec they arrived in.
    """

    def __init__(
        self,
        nodes: Sequence[ServiceNode],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.nodes = list(nodes)
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: "set[asyncio.Task]" = set()
        self._connection_writers: "set[asyncio.StreamWriter]" = set()
        self.connections_accepted = 0
        #: Replica RPCs served (an ``mreq`` naming q replicas counts q) ...
        self.requests_handled = 0
        #: ... and the request frames that carried them.
        self.frames_handled = 0
        #: Requests that arrived with a trace id.
        self.traced_requests = 0
        #: The most recent trace id seen (tests pin cross-process survival).
        self.last_trace_id: Optional[int] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` clients connect to (valid after start)."""
        return (self.host, self.port)

    @property
    def serving(self) -> bool:
        """Whether the listening socket is open."""
        return self._server is not None and self._server.is_serving()

    async def start(self) -> Tuple[str, int]:
        """Open the listening socket; return the bound address."""
        if self._server is not None:
            raise ServiceError("the server is already started")
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def aclose(self) -> None:
        """Stop accepting, drop every open connection, release the socket.

        Connections are closed at the transport level rather than by
        cancelling their handler tasks: each reader loop then sees EOF and
        unwinds cleanly, so shutdown never races a handler mid-dispatch.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        for writer in list(self._connection_writers):
            writer.close()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        self._connection_tasks.add(asyncio.current_task())
        self._connection_writers.add(writer)
        decoder = FrameDecoder(decode_binary=decode_binary_request_body)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                # All of a chunk's responses coalesce into ONE socket write
                # directly from this loop (no queue, no writer task): a
                # burst of q requests costs one write, not 2q task hops.
                # Not reading while ``drain`` applies backpressure is the
                # point — a slow peer throttles itself, nobody else.
                responses: List[bytes] = []
                frames = decoder.feed(chunk)
                codec = decoder.codec  # answer in the codec the requests came in
                for frame in frames:
                    responses.extend(self._handle_request(frame, codec))
                if responses:
                    writer.write(b"".join(responses))
                    await writer.drain()
        except (ConnectionError, WireFormatError):
            # A malformed or vanished peer costs it its connection, nothing
            # more; other connections and the nodes are unaffected.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connection_writers.discard(writer)
            self._connection_tasks.discard(asyncio.current_task())

    def _handle_request(self, frame: Any, codec: str) -> List[bytes]:
        """Serve one ``req`` or ``mreq`` frame; return its reply frames.

        The whole frame is validated before any node is touched, so a
        vectored write naming one bad replica is applied to none.
        """
        nodes = self.nodes
        try:
            kind, request_id, target, method, args, *trace = frame
            if (
                not isinstance(request_id, int)
                or not isinstance(method, str)
                or not isinstance(args, tuple)
                # An optional sixth element is the client's trace id: an
                # exact int, like a server id (``True`` is not a trace id).
                or len(trace) > 1
                or (trace and type(trace[0]) is not int)
            ):
                raise ValueError(frame)
            if kind == "req":
                server_ids: Tuple[int, ...] = (target,)
            elif kind == "mreq" and isinstance(target, tuple) and len(target) <= len(nodes):
                server_ids = target
            else:
                raise ValueError(kind)
            # Exact ints only (``True`` is not replica 1), explicit bounds
            # (Python's negative indexing would otherwise silently route
            # -1 to the last replica), no replica named twice.
            if (
                set(map(type, server_ids)) != {int}
                or min(server_ids) < 0
                or max(server_ids) >= len(nodes)
                or len(set(server_ids)) != len(server_ids)
            ):
                raise ValueError(target)
        except (TypeError, ValueError) as error:
            raise WireFormatError(f"malformed request frame: {frame!r}") from error
        replies = []
        try:
            for server_id in server_ids:
                reply = nodes[server_id].handle(method, *args)
                # Silence stays silence on the wire, per replica: the
                # caller's deadline is the only thing that resolves it, as
                # on the in-process paths.
                if reply is not NO_REPLY:
                    replies.append((server_id, reply))
        except (ServiceError, TypeError, ValueError) as error:
            # Method-level garbage (unknown method, wrong argument shape)
            # gets the same containment as frame-level garbage: this peer
            # loses its connection, nothing more.
            raise WireFormatError(f"unroutable request frame: {error}") from error
        self.frames_handled += 1
        self.requests_handled += len(server_ids)
        if trace:
            self.traced_requests += len(server_ids)
            self.last_trace_id = trace[0]
        if kind == "mreq":
            return encode_grouped_response_frames(request_id, replies, codec)
        return [encode_response_frame(request_id, reply, codec) for _, reply in replies]

    def metrics_snapshot(self, labels: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """This server's metrics as a mergeable registry snapshot.

        Picklable, so a shard-server process can ship it back over the
        cluster's readiness pipe at shutdown.
        """
        base = {"component": "tcp-server", "host": self.host, "port": self.port}
        if labels:
            base.update(labels)
        registry = MetricsRegistry(labels=base)
        registry.counter("server_connections_accepted").inc(self.connections_accepted)
        registry.counter("server_requests_handled").inc(self.requests_handled)
        registry.counter("server_frames_handled").inc(self.frames_handled)
        registry.counter("server_traced_requests").inc(self.traced_requests)
        registry.counter("node_requests").inc(
            sum(node.requests for node in self.nodes)
        )
        registry.gauge("nodes").set(len(self.nodes))
        return registry.to_dict()


class _TcpConnection:
    """One client socket: reader task, writer task, lazy (re)connect."""

    __slots__ = ("transport", "_reader", "_writer", "_queue", "_tasks", "_lock", "_was_connected")

    def __init__(self, transport: "TcpTransport") -> None:
        self.transport = transport
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._queue: Optional["asyncio.Queue[bytes]"] = None
        self._tasks: List[asyncio.Task] = []
        self._lock = asyncio.Lock()
        self._was_connected = False

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def ensure(self, connect_timeout: Optional[float] = None) -> None:
        """(Re)open the socket when needed.

        ``connect_timeout`` bounds the whole connect so a blackholed peer
        costs the caller its RPC deadline, not the OS connect timeout.
        After this returns, :meth:`enqueue` cannot block.
        """
        if self.connected:
            return
        if connect_timeout is None:
            await self._connect()
        else:
            try:
                await asyncio.wait_for(self._connect(), connect_timeout)
            except asyncio.TimeoutError:
                raise ConnectionError(
                    f"connect to {self.transport.address} exceeded the "
                    f"{connect_timeout}s deadline"
                ) from None

    def enqueue(self, frame: bytes) -> None:
        """Queue one already-encoded frame on a connection :meth:`ensure`-d up."""
        self._queue.put_nowait(frame)

    async def _connect(self) -> None:
        async with self._lock:
            if self.connected:
                return
            await self._teardown()
            self._reader, self._writer = await asyncio.open_connection(
                *self.transport.address
            )
            self._queue = asyncio.Queue()
            self._tasks = [
                asyncio.create_task(_drain_queue(self._queue, self._writer)),
                asyncio.create_task(self._read_loop(self._reader)),
            ]
            if self._was_connected:
                self.transport.reconnects += 1
            self._was_connected = True

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder(decode_binary=decode_binary_response_body)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    self.transport._dispatch_response(frame)
        except (ConnectionError, WireFormatError, asyncio.CancelledError):
            pass
        finally:
            # Mark the connection droppable so the next send reconnects;
            # in-flight RPCs resolve through their deadlines (silence).
            if self._writer is not None:
                self._writer.close()

    async def _teardown(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = self._queue = None

    async def aclose(self) -> None:
        async with self._lock:
            await self._teardown()


class TcpTransport(AsyncTransport):
    """The :class:`AsyncTransport` interface over real asyncio TCP streams.

    ``latency``/``jitter``/``drop_probability`` keep their simulation
    meaning — extra client-side delay and injected message loss on top of
    whatever the real network does — so a :class:`~repro.service.load.
    ServiceLoadSpec` moves between ``transport="inproc"`` and
    ``transport="tcp"`` without changing what its knobs mean.  Deadlines are
    enforced in wall-clock time.

    Parameters
    ----------
    address:
        The ``(host, port)`` of the shard's :class:`TcpServiceServer`.
    connections:
        Sockets the transport stripes RPCs across; each has its own writer
        task, so one slow ``drain`` never blocks the others.
    codec:
        The wire codec every request frame is sent in: ``"json"`` (the
        default) or the struct-packed ``"binary"``.  The server answers in
        the same codec.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        seed: int = 0,
        connections: int = DEFAULT_CONNECTIONS,
        codec: str = "json",
    ) -> None:
        super().__init__(
            latency=latency, jitter=jitter, drop_probability=drop_probability, seed=seed
        )
        if connections < 1:
            raise ServiceError(f"need at least one connection, got {connections}")
        if codec not in WIRE_CODECS:
            raise ServiceError(
                f"unknown wire codec {codec!r}; choose from {WIRE_CODECS}"
            )
        #: The codec this transport sends: always the constructor's, never
        #: ``None``.  The name predates the removal of per-connection
        #: negotiation; it stays because ``bench/harness.py`` (run
        #: provenance) and the load report read it.
        self.negotiated_codec = codec
        self.address = (str(address[0]), int(address[1]))
        self._connections = [_TcpConnection(self) for _ in range(connections)]
        #: request_id -> Future (:meth:`call`) or _WireOp (a dispatcher
        #: round): one entry per frame awaiting an answer.
        self._pending: Dict[int, Any] = {}
        self._next_request_id = 0
        #: Times a dropped connection was re-opened by a later send.
        self.reconnects = 0

    async def connect(self) -> None:
        """Eagerly open every pooled connection (optional; sends also do it)."""
        for connection in self._connections:
            if not connection.connected:
                await connection._connect()

    async def aclose(self) -> None:
        """Close every pooled connection and fail nothing (idempotent)."""
        for connection in self._connections:
            await connection.aclose()

    def _dispatch_response(self, frame: Any) -> None:
        """Route one ``rsp``/``mrsp`` frame to whoever awaits its id.

        Unknown and late ids are ignored (the deadline already answered
        for them), as are ``mrsp`` ids the op never asked; an op takes any
        number of ``mrsp`` frames (the server splits oversized answers).
        """
        try:
            kind, request_id, body = frame
            if kind == "mrsp":
                # Strip the ("ok", payload) reply envelope once per group, as
                # the in-process dispatcher does per RPC.
                groups = [(server_ids, envelope[1]) for server_ids, envelope in body]
                if any(set(map(type, server_ids)) != {int} for server_ids, _ in groups):
                    raise ValueError(groups)
            elif kind != "rsp":
                raise ValueError(kind)
            entry = self._pending.get(request_id)
        except (TypeError, ValueError, LookupError) as error:
            raise WireFormatError(f"malformed response frame: {frame!r}") from error
        if kind == "rsp":
            if isinstance(entry, asyncio.Future) and not entry.done():
                entry.set_result(body)
        elif isinstance(entry, _WireOp):
            for server_ids, payload in groups:
                entry.deliver(server_ids, payload)

    async def call(
        self,
        node: Any,
        method: str,
        *args: Any,
        timeout: Optional[float] = None,
        trace_id: Optional[int] = None,
    ) -> Any:
        """One RPC over the wire; mirror the in-process failure semantics.

        ``node`` needs only a ``server_id`` (a :class:`RemoteNode` stub, or
        a real :class:`~repro.service.node.ServiceNode` in tests).  Raises
        :class:`~repro.exceptions.RpcTimeoutError` when the RPC was
        (simulated-)dropped, the reply missed the wall-clock deadline, or
        the connection failed and could not be re-established in time; the
        error carries a ``disposition`` attribute for trace spans.  A
        ``trace_id`` rides the request envelope as its sixth element.
        """
        self.calls += 1
        if self.drop_probability > 0.0 and self.rng.random() < self.drop_probability:
            # Simulated loss: never sent, costs the caller its deadline.
            self.dropped += 1
            await asyncio.sleep(self._delay() if timeout is None else timeout)
            error = RpcTimeoutError(
                f"rpc {method!r} to server {node.server_id} was dropped"
            )
            error.disposition = "dropped"
            raise error
        extra_delay = self._delay()
        if timeout is not None and extra_delay > timeout:
            # As on the in-process transport, the injected delay counts
            # against the deadline: a delay beyond it is a timeout.
            self.timed_out += 1
            await asyncio.sleep(timeout)
            error = RpcTimeoutError(
                f"rpc {method!r} to server {node.server_id} timed out"
            )
            error.disposition = "timeout"
            raise error
        if extra_delay > 0.0:
            await asyncio.sleep(extra_delay)
        if timeout is not None:
            timeout -= extra_delay
        loop = asyncio.get_running_loop()
        self._next_request_id += 1
        request_id = self._next_request_id
        future = loop.create_future()
        self._pending[request_id] = future
        connection = self._connections[request_id % len(self._connections)]
        started = loop.time()
        try:
            try:
                await connection.ensure(connect_timeout=timeout)
                payload = ("req", request_id, node.server_id, method, args)
                if trace_id is not None:
                    payload = payload + (trace_id,)
                connection.enqueue(encode_frame(payload, self.negotiated_codec))
            except (ConnectionError, OSError) as error:
                # Unreachable server: burn (the rest of) the deadline like
                # any silent peer — a failed connect already consumed some.
                self.timed_out += 1
                if timeout is not None:
                    remaining = timeout - (loop.time() - started)
                    if remaining > 0.0:
                        await asyncio.sleep(remaining)
                wrapped = RpcTimeoutError(
                    f"rpc {method!r} to server {node.server_id} failed to send: {error}"
                )
                wrapped.disposition = "unsent"
                raise wrapped from error
            if timeout is None:
                return await future
            try:
                # Connect/queue time counts against the same deadline the
                # reply does: one RPC never waits longer than `timeout`.
                return await asyncio.wait_for(
                    future, max(timeout - (loop.time() - started), 0.001)
                )
            except asyncio.TimeoutError:
                self.timed_out += 1
                error = RpcTimeoutError(
                    f"rpc {method!r} to server {node.server_id} timed out "
                    f"after {timeout}s"
                )
                error.disposition = "timeout"
                raise error from None
        finally:
            self._pending.pop(request_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"TcpTransport({self.address[0]}:{self.address[1]}, "
            f"connections={len(self._connections)}, calls={self.calls})"
        )


class _WireOp:
    """One round of a :class:`~repro.service.quorum_op.QuorumOp` on the wire.

    The replies live in the op; this is the driver's state: the round's
    future, its ``mreq`` id once sent, its start and its deadline timer.  A
    silent remote server produces *no* event at all, so the timer is armed
    eagerly at creation rather than lazily when the last fate comes in.
    """

    __slots__ = ("op", "transport", "future", "op_id", "timer", "start", "trace", "method")

    def __init__(
        self,
        op: QuorumOp,
        transport: "TcpTransport",
        timeout: Optional[float],
        trace: Optional[Any],
        method: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        self.op = op
        self.transport = transport
        self.future = loop.create_future()
        self.op_id: Optional[int] = None  # set when the frame is sent
        self.start = loop.time()
        self.trace = trace
        self.method = method
        self.timer = (
            loop.call_later(timeout, self._deadline) if timeout is not None else None
        )

    def deliver(self, server_ids: Sequence[int], payload: Any) -> None:
        """One reply group: ``payload`` is what every listed server answered."""
        op = self.op
        trace = self.trace
        now = self.future.get_loop().time() if trace is not None else 0.0
        for server in server_ids:
            if op.on_reply(server, payload) and trace is not None:
                trace.record(server, self.method, self.start, now, "ok")
        if not op.pending and (op.misses == 0 or self.timer is None):
            # Every sent server answered: resolve early.  With misses (drops),
            # the deadline timer resolves instead — a partially failed round
            # costs its whole deadline, as on every other path.
            self._resolve()

    def _deadline(self) -> None:
        self.timer = None
        # Only servers the sent frame named can time out; an unsent round is
        # charged by the dispatcher instead.
        silent = self.op.pending if self.op_id is not None else ()
        self.transport.timed_out += len(silent)
        if self.trace is not None:
            now = self.future.get_loop().time()
            for server in silent:
                self.trace.record(server, self.method, self.start, now, "timeout")
        self._resolve()

    def _resolve(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.transport._pending.pop(self.op_id, None)
        if not self.future.done():
            self.future.set_result(None)


class TcpDispatcher(QuorumDriver):
    """The wire-level driver: each round of a quorum op is one ``mreq``.

    Calling :meth:`TcpTransport.call` per RPC costs one future, one
    ``wait_for`` timer and one frame each way per RPC.  This driver runs the
    same :class:`~repro.service.dispatch.QuorumDriver` loop as the
    in-process :class:`~repro.service.dispatch.BatchedDispatcher`, so one
    round is **one** future, **one** deadline timer and **one**
    ``mreq``/``mrsp`` frame pair however many servers it touches (concurrent
    operations still coalesce into few socket writes in the connection's
    writer task).

    Drops are sampled per server from the transport RNG before framing, a
    partially failed round resolves at its deadline with whatever arrived,
    and every unanswered sent server increments ``timed_out`` exactly once.
    """

    def __init__(self, transport: TcpTransport) -> None:
        self.transport = transport
        #: Interface parity with ``BatchedDispatcher``: the wire path has no
        #: (node, tick) delivery events, so this stays 0 in reports.
        self.flushes = 0
        #: Rounds fanned out so far (one ``mreq`` each, when sent).
        self.ops = 0
        #: Read-repair frames piggybacked onto already-open connections.
        self.repairs_piggybacked = 0

    def enqueue_repair(
        self,
        server: int,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
    ) -> None:
        """Fire-and-forget one read-repair frame at ``server``.

        The frame rides an already-open pooled connection's outbound queue,
        coalescing with whatever RPC burst is in flight — no new round, no
        future, no deadline timer, and no ``calls`` accounting (the repair
        is overhead of a read that already completed).  The server's reply,
        if any, carries a request id nothing is waiting on and is silently
        discarded by :meth:`TcpTransport._dispatch_response`.  With no
        connection currently open the repair is skipped outright: opening a
        socket for it would be exactly the extra round piggybacking exists
        to avoid.
        """
        transport = self.transport
        connections = transport._connections
        transport._next_request_id += 1
        request_id = transport._next_request_id
        preferred = connections[request_id % len(connections)]
        connection = preferred if preferred.connected else next(
            (candidate for candidate in connections if candidate.connected), None
        )
        if connection is None:
            return
        tail = request_tail(
            "repair",
            (variable, value, timestamp, signature),
            codec=transport.negotiated_codec,
        )
        connection.enqueue(encode_request_frame(request_id, server, tail))
        self.repairs_piggybacked += 1

    async def _round(self, op, servers, method, args, timeout, trace) -> None:
        self.ops += 1
        transport = self.transport
        transport.calls += len(servers)
        drop_probability = transport.drop_probability
        rng_draw = transport.rng.random
        sent = []
        dropped = []
        for server in servers:
            if drop_probability > 0.0 and rng_draw() < drop_probability:
                transport.dropped += 1
                op.on_miss(server)
                dropped.append(server)
                continue
            sent.append(server)
        # The round (and its deadline timer) starts *before* the injected
        # delay, so simulated latency counts against the deadline exactly
        # as on the in-process path.
        wire = _WireOp(op, transport, timeout, trace, method)
        if trace is not None:
            for server in dropped:
                # Sampled drops never hit the wire: zero-length spans.
                trace.record(server, method, wire.start, wire.start, "dropped")
        if transport.latency > 0.0:
            # One coalesced delay per round, drawn from the transport's
            # stream and distribution.
            await asyncio.sleep(transport.draw_delay())
        if sent and not await self._send(wire, sent, method, args, timeout):
            # Already counted in `calls`: charge the unsent RPCs as timeouts
            # so the drop/timeout columns keep partitioning the failures.
            # Counted as misses too, so the round still resolves at its
            # deadline (never early with partial replies).
            transport.timed_out += len(sent)
            now = wire.future.get_loop().time()
            for server in sent:
                op.on_miss(server)
                if trace is not None:
                    trace.record(server, method, wire.start, now, "unsent")
        if wire.timer is None and not op.pending:
            wire._resolve()
        await wire.future

    async def _send(
        self,
        wire: _WireOp,
        sent: Sequence[Any],
        method: str,
        args: tuple,
        timeout: Optional[float],
    ) -> bool:
        """Queue the round as one ``mreq`` frame; ``False`` if it never hit the wire.

        Every replica of the group lives behind the same server socket, so
        the q questions ride one frame on one striped connection.
        """
        transport = self.transport
        transport._next_request_id += 1
        op_id = transport._next_request_id
        connection = transport._connections[op_id % len(transport._connections)]
        if not connection.connected:
            remaining = (
                None if timeout is None
                else max(wire.start + timeout - wire.future.get_loop().time(), 0.001)
            )
            try:
                await connection.ensure(connect_timeout=remaining)
            except (ConnectionError, OSError):
                return False  # unreachable server: silence
        if wire.future.done():
            # The deadline fired while the caller was suspended (delay sleep
            # or the reconnect): sending now would only leak a pending entry.
            return False
        frame = encode_vectored_request_frame(
            op_id,
            sent,
            request_tail(method, args, codec=transport.negotiated_codec),
            trace_id=wire.trace.trace_id if wire.trace is not None else None,
        )
        wire.op_id = op_id
        transport._pending[op_id] = wire
        connection.enqueue(frame)
        return True
