"""Per-layer microbenchmarks, measured from outside.

Each function calls one layer's public functions on inputs taken from the
workloads (a 16-byte read of ``k03`` at quorum size 10, a 1 KiB write) and
reports the *minimum* over a few batches, scaled to reference speed by a
yardstick reading taken around each group (as the end-to-end timings are):
the layer's own cost with the box's noise taken out.  Layer = module name.
Nothing here is an end-to-end metric and nothing here has a bound; these
rows say which layer a moved end-to-end number came from (README.md,
"Per-layer metrics").
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Awaitable, Callable, Dict, List, Tuple

import yardstick
from harness import Session, median
from workloads import WORKLOADS, make_ops, mc_specs

Metric = Tuple[float, str]

QUORUM = 10
KEY = "k03"
#: The layers are interpreter code on small inputs: the full yardstick mix.
KERNELS = ("loop", "chase", "numpy")


class Timer:
    """Times one call: the minimum over a few batches sized by calibration."""

    def __init__(self, smoke: bool) -> None:
        #: Batches per timing; the minimum batch is reported.
        self.batches = 2 if smoke else 5
        #: Wall time one batch is sized to.
        self.batch_seconds = 0.003 if smoke else 0.02

    def _sized(self, count: int, elapsed: float, scale: float) -> int:
        return max(8, int(count * self.batch_seconds * scale / max(elapsed, 1e-9)))

    def call_us(self, fn: Callable[[], Any]) -> float:
        """Microseconds per call of ``fn``."""

        def elapsed_for(count: int) -> float:
            started = time.perf_counter()
            for _ in range(count):
                fn()
            return time.perf_counter() - started

        count = 8
        while True:
            elapsed = elapsed_for(count)
            if elapsed >= self.batch_seconds / 4 or count >= 1 << 20:
                break
            count *= 4
        count = self._sized(count, elapsed, 1.0)
        return min(elapsed_for(count) for _ in range(self.batches)) / count * 1e6

    async def await_us(self, fn: Callable[[], Awaitable[Any]], scale: float = 1.0) -> float:
        """Microseconds per sequential ``await fn()`` (``scale`` lengthens the batch)."""

        async def elapsed_for(count: int) -> float:
            started = time.perf_counter()
            for _ in range(count):
                await fn()
            return time.perf_counter() - started

        count = 8
        while True:
            elapsed = await elapsed_for(count)
            if elapsed >= self.batch_seconds * scale / 4 or count >= 1 << 20:
                break
            count *= 4
        count = self._sized(count, elapsed, scale)
        return min([await elapsed_for(count) for _ in range(self.batches)]) / count * 1e6


# -- wire ---------------------------------------------------------------------------


def wire_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.timestamps import Timestamp
    from repro.service.wire import (
        FrameDecoder,
        decode_binary_request_body,
        decode_binary_response_body,
        encode_request_frame,
        encode_response_frame,
        request_tail,
    )
    from repro.simulation.server import StoredValue

    rng = random.Random(3)
    timestamp = Timestamp(41, 2)
    small = ("ok", StoredValue(rng.randbytes(16), timestamp, None))
    large_value = rng.randbytes(1024)
    large = ("ok", StoredValue(large_value, timestamp, None))
    request_id, server = 1000, 17  # fixed: JSON frame lengths depend on the digits
    out: Dict[str, Metric] = {}
    sizes: Dict[str, int] = {}
    for codec in ("binary", "json"):
        read_tail = request_tail("read", (KEY,), codec=codec)
        write_tail = request_tail("write", (KEY, large_value, timestamp, None), codec=codec)
        request = encode_request_frame(request_id, server, read_tail)
        response = encode_response_frame(request_id, small, codec)
        ack = encode_response_frame(request_id, ("ok", True), codec)
        server_side = FrameDecoder(decode_binary=decode_binary_request_body)
        client_side = FrameDecoder(decode_binary=decode_binary_response_body)
        assert server_side.feed(request) == [("req", request_id, server, "read", (KEY,))]
        assert client_side.feed(response) == [("rsp", request_id, small)]
        prefix = f"wire.{codec}"
        out[f"{prefix}.enc_req_us"] = (
            timer.call_us(lambda: encode_request_frame(request_id, server, read_tail)), "us")
        out[f"{prefix}.dec_req_us"] = (timer.call_us(lambda: server_side.feed(request)), "us")
        out[f"{prefix}.enc_rsp_us"] = (
            timer.call_us(lambda: encode_response_frame(request_id, small, codec)), "us")
        out[f"{prefix}.dec_rsp_us"] = (timer.call_us(lambda: client_side.feed(response)), "us")
        out[f"{prefix}.rsp_1k_us"] = (
            timer.call_us(
                lambda: client_side.feed(encode_response_frame(request_id, large, codec))
            ),
            "us",
        )
        sizes[f"{codec}.read"] = QUORUM * (len(request) + len(response))
        sizes[f"{codec}.write_1k"] = QUORUM * (
            len(encode_request_frame(request_id, server, write_tail)) + len(ack)
        )
        if codec == "binary":
            chunk = response * 64
            feed_us = timer.call_us(lambda: client_side.feed(chunk))
            out["wire.decoder.frames_per_s"] = (64 / feed_us * 1e6, "1/s")
    out["wire.binary.bytes_per_read"] = (float(sizes["binary.read"]), "count")
    out["wire.json.bytes_per_read"] = (float(sizes["json.read"]), "count")
    out["wire.json.bytes_per_write_1k"] = (float(sizes["json.write_1k"]), "count")

    # Reference row: the naive one-JSON-message-per-send shape (a dict per
    # message, newline-delimited, no framing reuse), request and reply.
    def naive_roundtrip() -> None:
        sent = json.dumps({"type": "read", "id": request_id, "to": server, "key": KEY})
        json.loads((sent + "\n").encode())
        reply = json.dumps(
            {"type": "value", "id": request_id, "value": small[1].value.hex(),
             "ts": [timestamp.counter, timestamp.writer_id]}
        )
        json.loads((reply + "\n").encode())

    out["wire.naive.roundtrip_us"] = (timer.call_us(naive_roundtrip), "us")
    return out


# -- node, selection, classification, strategy -----------------------------------------


def node_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.timestamps import Timestamp
    from repro.service.node import ServiceNode

    node = ServiceNode(0)
    value = b"v" * 16
    node.handle("write", KEY, value, Timestamp(5, 1), None)
    write_args = (KEY, value, Timestamp(6, 1), None)
    return {
        "node.read_us": (timer.call_us(lambda: node.handle("read", KEY)), "us"),
        "node.write_us": (timer.call_us(lambda: node.handle("write", *write_args)), "us"),
        "node.repair_us": (timer.call_us(lambda: node.handle("repair", *write_args)), "us"),
    }


def selection_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.classification import classify_read_outcome
    from repro.protocol.selection import select_credible_value
    from repro.protocol.timestamps import Timestamp
    from repro.protocol.variable import ReadOutcome, WriteOutcome
    from repro.simulation.server import StoredValue

    honest = StoredValue(b"v" * 16, Timestamp(7, 1), None)
    out: Dict[str, Metric] = {}
    for size in (10, 50, 200):
        replies = {server: honest for server in range(size)}
        out[f"selection.q{size}_unanimous_us"] = (
            timer.call_us(lambda: select_credible_value(replies, 2)), "us")
    # Three colluding forgers answer with equal-but-distinct objects, as they
    # do after crossing the wire; the honest seven share one stored pair.
    forged = {
        server: StoredValue(b"never-written", Timestamp.forged_maximum(), b"forged")
        for server in range(3)
    }
    forged.update({server: honest for server in range(3, 10)})
    assert select_credible_value(forged, 4).value == honest.value
    out["selection.q10_forged_us"] = (
        timer.call_us(lambda: select_credible_value(forged, 4)), "us")
    quorum = frozenset(range(10))
    outcome = ReadOutcome(
        value=honest.value, timestamp=honest.timestamp, quorum=quorum,
        reporting_servers=quorum, replies=10,
    )
    last = WriteOutcome(quorum=quorum, timestamp=honest.timestamp, acknowledged=quorum)
    assert classify_read_outcome(outcome, last) == "fresh"
    out["classification.classify_us"] = (
        timer.call_us(lambda: classify_read_outcome(outcome, last)), "us")
    return out


def simulation_metrics(timer: Timer, smoke: bool) -> Dict[str, Metric]:
    import numpy as np

    from repro.core.calibration import minimal_quorum_size_for_masking
    from repro.core.masking import ProbabilisticMaskingSystem
    from repro.simulation.explore import explore_grid, small_config_grid
    from repro.simulation.monte_carlo import (
        estimate_read_consistency,
        estimate_staleness_distribution,
    )

    specs = mc_specs()
    scale = 10 if smoke else 1
    out: Dict[str, Metric] = {}
    for name, trials in (
        ("masking", 20000), ("dissemination", 20000), ("gossiped", 2000),
        ("multiwriter", 20000), ("staleness", 5000),
    ):
        trials //= scale
        best = float("inf")
        for attempt in range(2):
            started = time.perf_counter()
            if name == "staleness":
                estimate_staleness_distribution(
                    specs[name], trials=trials, seed=attempt, engine="batch")
            else:
                estimate_read_consistency(
                    specs[name], trials=trials, seed=attempt, engine="batch")
            best = min(best, time.perf_counter() - started)
        out[f"batch.{name}_trials_per_s"] = (trials / best, "1/s")
    system = ProbabilisticMaskingSystem(25, 10, 3)
    generator = np.random.default_rng(5)
    block_us = timer.call_us(lambda: system.sample_quorum_block(count=32, generator=generator))
    out["strategy.sample_block_quorums_per_s"] = (32 / block_us * 1e6, "1/s")
    oracle_trials = 60 if smoke else 300
    started = time.perf_counter()
    estimate_read_consistency(specs["masking"], trials=oracle_trials, seed=1, engine="sequential")
    out["sequential.trials_per_s"] = (oracle_trials / (time.perf_counter() - started), "1/s")

    started = time.perf_counter()
    results = explore_grid(small_config_grid())
    elapsed = time.perf_counter() - started
    states = sum(result.states_explored for result in results.values())
    if not all(result.safe for result in results.values()):
        raise AssertionError("the pinned explorer grid found a violation")
    out["explore.states_per_s"] = (states / elapsed, "1/s")
    out["explore.grid_states"] = (float(states), "count")

    def calibrate() -> None:
        minimal_quorum_size_for_masking(100, 5, 1e-3)
        ProbabilisticMaskingSystem(25, 10, 3).epsilon

    out["analysis.calibration_ms"] = (timer.call_us(calibrate) / 1e3, "ms")
    return out


# -- dispatch, net, client, gossip, mutex (need a running loop) -------------------------


class _StubNode:
    """Answers every RPC with one canned reply: isolates the dispatcher."""

    def __init__(self, server_id: int, reply: Any) -> None:
        self.server_id = server_id
        self._reply = reply

    def handle(self, method: str, *args: Any) -> Any:
        return self._reply


async def dispatch_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.timestamps import Timestamp
    from repro.service.dispatch import BatchedDispatcher
    from repro.service.transport import AsyncTransport
    from repro.simulation.server import StoredValue

    reply = ("ok", StoredValue(b"v" * 16, Timestamp(7, 1), None))
    dispatcher = BatchedDispatcher(
        [_StubNode(server, reply) for server in range(25)], AsyncTransport(seed=1)
    )
    rng = random.Random(9)
    quorums = [tuple(sorted(rng.sample(range(25), QUORUM))) for _ in range(64)]
    picks = iter(lambda: quorums[rng.randrange(64)], None)

    async def one() -> None:
        replies = await dispatcher.fan_out(next(picks), "read", (KEY,), 0.5)
        assert len(replies) == QUORUM

    solo_us = await timer.await_us(one)

    async def thirty_two() -> None:
        await asyncio.gather(*(one() for _ in range(32)))

    loaded_us = await timer.await_us(thirty_two) / 32
    return {
        "dispatch.fan_out_us_c1": (solo_us, "us"),
        "dispatch.fan_out_us_c32": (loaded_us, "us"),
    }


async def net_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.timestamps import Timestamp
    from repro.service.net import (
        RemoteNode,
        TcpDispatcher,
        TcpServiceServer,
        TcpTransport,
    )
    from repro.service.node import ServiceNode

    nodes = [ServiceNode(server) for server in range(25)]
    for node in nodes:
        node.handle("write", KEY, b"v" * 16, Timestamp(5, 1), None)
    server = TcpServiceServer(nodes)
    await server.start()
    try:
        connects: List[float] = []
        for _ in range(timer.batches):
            probe = TcpTransport(server.address, codec="binary")
            started = time.perf_counter()
            await probe.connect()
            connects.append(time.perf_counter() - started)
            await probe.aclose()
        transport = TcpTransport(server.address, codec="binary")
        await transport.connect()
        try:
            stub = RemoteNode(3)

            async def call() -> None:
                await transport.call(stub, "read", KEY, timeout=0.5)

            rtt_us = await timer.await_us(call, scale=2.0)
            dispatcher = TcpDispatcher(transport)
            quorum = tuple(range(2, 2 + QUORUM))

            async def fan_out() -> None:
                replies = await dispatcher.fan_out(quorum, "read", (KEY,), 0.5)
                assert len(replies) == QUORUM

            fan_out_us = await timer.await_us(fan_out, scale=2.0)
            reconnects = transport.reconnects
        finally:
            await transport.aclose()
    finally:
        await server.aclose()
    return {
        "net.connect_ms": (median(connects) * 1e3, "ms"),
        "net.call_rtt_us": (rtt_us, "us"),
        "net.fan_out_q10_us": (fan_out_us, "us"),
        "net.reconnects": (float(reconnects), "count"),
    }


async def gossip_metrics(timer: Timer) -> Dict[str, Metric]:
    from repro.protocol.timestamps import Timestamp
    from repro.service.gossip import GossipService
    from repro.service.node import ServiceNode
    from repro.simulation.scenario import AntiEntropySpec

    nodes = [ServiceNode(server) for server in range(25)]
    for index in range(16):
        for node in nodes[index % 5 :: 2]:  # every key lags on some replicas
            node.handle("write", f"k{index:02d}", b"v" * 16, Timestamp(5, 1), None)
    service = GossipService(
        nodes, AntiEntropySpec(fanout=2, rounds=1), rng=random.Random(4)
    )
    run_us = timer.call_us(service.run_once)
    return {
        "gossip.run_once_us": (run_us, "us"),
        "gossip.rounds_per_s": (1e6 / run_us, "1/s"),
    }


async def front_door_metrics(timer: Timer, smoke: bool) -> Dict[str, Metric]:
    """Solo reads through the front door on both transports, plus the lock."""
    reads = 200 if smoke else 1000
    out: Dict[str, Metric] = {}
    for name in ("inproc-read", "tcp-read"):
        workload = WORKLOADS[name].smoke()
        session = await Session(workload, seed=7).open()
        try:
            ops = make_ops(workload, 7, "layer-solo", reads, write_share=0.0)
            await session.solo(ops[: reads // 4])
            out[f"_{name.split('-')[0]}_solo_read_us"] = (median(await session.solo(ops)) * 1e6, "us")
            if name == "inproc-read":
                client = session.readers[0].clients[0]
                out["client.sample_quorum_us"] = (timer.call_us(client.sample_quorum), "us")
                lock = session.deployment.lock_client("bench", client_id=1)
                cycles: List[float] = []
                for _ in range(10 if smoke else 40):
                    started = time.perf_counter()
                    await lock.acquire()
                    await lock.release()
                    cycles.append(time.perf_counter() - started)
                out["mutex.solo_acquire_release_ms"] = (median(cycles) * 1e3, "ms")
        finally:
            await session.close()
    return out


def at_reference_speed(metrics: Dict[str, Metric], slow: float) -> Dict[str, Metric]:
    """Scale a group's timings by how slow the box ran while it was measured."""
    scaled: Dict[str, Metric] = {}
    for name, (value, unit) in metrics.items():
        if unit in ("us", "ms", "s"):
            value /= slow
        elif unit == "1/s":
            value *= slow
        scaled[name] = (value, unit)
    return scaled


async def _measure_layers(smoke: bool) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    timer = Timer(smoke)
    kernels = () if smoke else KERNELS  # a smoke run checks names, not timings
    _, before = await yardstick.sample(kernels)
    for group in (
        wire_metrics,
        node_metrics,
        selection_metrics,
        lambda timer: simulation_metrics(timer, smoke),
        dispatch_metrics,
        net_metrics,
        gossip_metrics,
        lambda timer: front_door_metrics(timer, smoke),
    ):
        metrics = group(timer)
        if asyncio.iscoroutine(metrics):
            metrics = await metrics
        _, after = await yardstick.sample(kernels)
        out.update(at_reference_speed(metrics, (before + after) / 2))
        before = after
    return out


def measure_layers(smoke: bool) -> Dict[str, Metric]:
    """Every workload-independent per-layer metric, plus the two derived shares."""
    out = asyncio.run(_measure_layers(smoke))
    inproc_us = out.pop("_inproc_solo_read_us")[0]
    tcp_us = out.pop("_tcp_solo_read_us")[0]
    wire_per_rpc = sum(
        out[f"wire.binary.{part}_us"][0] for part in ("enc_req", "dec_req", "enc_rsp", "dec_rsp")
    )
    # What is left of a TCP solo read once the in-process read and the
    # codec's q request/response pairs are taken out: sockets and the loop.
    out["net.socket_share"] = ((tcp_us - inproc_us - QUORUM * wire_per_rpc) / tcp_us, "share")
    out["client.self_us"] = (
        inproc_us
        - QUORUM * out["node.read_us"][0]
        - out["dispatch.fan_out_us_c1"][0]
        - out["selection.q10_unanimous_us"][0],
        "us",
    )
    return out


if __name__ == "__main__":  # pragma: no cover - manual inspection
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for name, (value, unit) in sorted(measure_layers("--smoke" in sys.argv).items()):
        print(f"{name:<40} {value:>14.4f} {unit}")
