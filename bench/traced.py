"""The traced run: per-layer metrics, spans, and the per-op latency budget.

End-to-end metrics are always measured with tracing off.  This separate run
repeats a few iterations (solo chunk + half-size load round) twice —
untraced, then with the public ``trace_sample(1.0)`` knob and benchmark-side
spans — and adds the workload-independent microbenchmarks of ``layers.py``.

Spans are recorded from the benchmark's own files, around the calls into
the program: ``op`` (one ``read``/``write`` call) > ``fan_out`` (the
``QuorumTrace`` interval) > ``rpc`` (each ``RpcSpan``).  A span's self time
is its duration minus the part of it its children cover; the budget's
latency rows use the solo ops only (no queueing behind 31 other clients).
Spans are kept in memory and written to ``bench/out/trace-<workload>.json``
at exit.  In-process ``rpc`` spans are in the dispatcher's *simulated* time
(scheduled flush minus op start) and can be empty for an RPC that rode an
already-armed delivery; over TCP they are wall-clock.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import harness
from harness import Session, iqr_share, median, percentile
from layers import QUORUM, Metric, measure_layers
from workloads import Workload, mc_specs

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Iterations of each half of a traced run (fixed, not timed: counts must
#: repeat exactly for a seed).
ROUNDS = 6
ROUNDS_TIMER_BOUND = 4
#: Ops whose spans are written out in full (aggregates cover every op).
KEEP_OPS = 2000

#: Per-layer metrics that come from a workload's own counters and traces;
#: a workload without that layer (``mc-batch``) reports them as 0.
WORKLOAD_METRICS = {
    "dispatch.rpcs_per_flush": "count",
    "dispatch.flushes_per_op": "count",
    "client.rpcs_per_op": "count",
    "client.fallbacks_per_kop": "count",
    "client.timeouts_per_kop": "count",
    "client.repairs_per_kop": "count",
    "client.fan_out_p50_us": "us",
    "obs.trace_overhead_share": "share",
    "obs.spans_per_op": "count",
    "harness.warmup_s": "s",
    "harness.round_iqr_share": "share",
    "harness.stale_share": "share",
    "harness.budget_unattributed_share": "share",
    "harness.load_read_p99_ms": "ms",
}


def trace_shape(workload: Workload) -> Workload:
    """The workload with half-size rounds, so both halves and the layers fit one run."""
    if workload.kind == "mc":
        return workload
    return replace(workload, round_ops=max(64, workload.round_ops // 2))


def rounds_for(workload: Workload, smoke: bool) -> int:
    if smoke:
        return 2
    return ROUNDS_TIMER_BOUND if workload.timer_bound else ROUNDS


class SpanSink:
    """Collects op > fan_out > rpc spans and their self-time aggregates."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.op_self: List[float] = []
        self.fan_out: List[float] = []
        self.fan_out_self: List[float] = []
        self.rpc: List[float] = []
        self.ops = 0
        self.span_count = 0

    def __call__(
        self, name: str, started: float, ended: float, op_id: int, trace: Any, solo: bool
    ) -> None:
        self.ops += 1
        self.span_count += 1
        keep = self.ops <= KEEP_OPS
        if keep:
            self.spans.append(
                {"name": name, "start": started, "end": ended, "parent": None,
                 "op_id": op_id, "solo": solo}
            )
        if trace is None or trace.finished_at is None:
            return
        fan_started, fan_ended = trace.started_at, trace.finished_at
        self.span_count += 1 + len(trace.spans)
        if solo:
            self.fan_out.append(fan_ended - fan_started)
            self.op_self.append((ended - started) - (fan_ended - fan_started))
            self.fan_out_self.append((fan_ended - fan_started) - _covered(trace.spans))
            self.rpc.extend(max(0.0, span.ended_at - span.started_at) for span in trace.spans)
        if keep:
            self.spans.append(
                {"name": "fan_out", "start": fan_started, "end": fan_ended,
                 "parent": f"{name}:{op_id}", "op_id": op_id}
            )
            self.spans.extend(
                {"name": f"rpc:{span.method}", "start": span.started_at, "end": span.ended_at,
                 "parent": f"fan_out:{op_id}", "op_id": op_id,
                 "server": span.server_id, "disposition": span.disposition}
                for span in trace.spans
            )


def _covered(spans: List[Any]) -> float:
    """Length of the union of the child spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for started, ended in sorted((span.started_at, span.ended_at) for span in spans):
        if ended <= max(started, reach):
            continue
        total += ended - max(started, reach)
        reach = ended
    return total


async def _half(workload: Workload, seed: int, traced: bool, sink: Any, smoke: bool) -> Dict[str, Any]:
    session = await Session(workload, seed, trace_sample=1.0 if traced else 0.0).open()
    session.on_op = sink
    latencies: List[float] = []
    try:
        rounds = rounds_for(workload, smoke)
        raw = await harness.measure_service(
            session, 0.0, min_rounds=rounds, max_rounds=rounds, read_latencies=latencies
        )
        raw["verdict"] = harness.service_verdict(session, raw["counters"])
        raw["provenance"] = session.provenance()
    finally:
        await session.close()
    raw["load_read_lat"] = latencies
    raw["cpu_us_per_op"] = median([r["cpu_us_per_op"] for r in raw["rounds"]])
    return raw


def budget_rows(
    workload: Workload, layers: Dict[str, Metric], rpcs_per_op: float, gossip_per_op: float
) -> List[Tuple[str, float]]:
    """Calls-per-op x per-call cost for each layer, in CPU microseconds per op."""
    write_share = workload.write_share
    node = rpcs_per_op * (
        (1 - write_share) * layers["node.read_us"][0] + write_share * layers["node.write_us"][0]
    )
    selection = "selection.q10_forged_us" if workload.forgers else "selection.q10_unanimous_us"
    rows = [
        ("node", node),
        ("selection", (1 - write_share) * layers[selection][0]),
        ("client", layers["client.self_us"][0]),
    ]
    if gossip_per_op:
        rows.append(("gossip", gossip_per_op * layers["gossip.run_once_us"][0]))
    if workload.transport == "tcp":
        codec = f"wire.{workload.codec}"
        # A 1 KiB payload rides the response of a read and the request of a
        # write; the 1k row (encode + decode) stands in for either direction.
        payload = (
            layers[f"{codec}.rsp_1k_us"][0]
            if workload.value_bytes >= 1024
            else layers[f"{codec}.enc_rsp_us"][0] + layers[f"{codec}.dec_rsp_us"][0]
        )
        per_rpc = layers[f"{codec}.enc_req_us"][0] + layers[f"{codec}.dec_req_us"][0] + payload
        rows.append(("wire", rpcs_per_op * per_rpc))
    else:
        rows.append(("dispatch", layers["dispatch.fan_out_us_c32"][0] * rpcs_per_op / QUORUM))
    return rows


def run_service(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    shaped = trace_shape(workload)
    untraced = asyncio.run(_half(shaped, seed, False, None, smoke))
    sink = SpanSink()
    traced = asyncio.run(_half(shaped, seed, True, sink, smoke))
    layers = measure_layers(smoke)

    ops = untraced["attempted"]
    counters = untraced["counters"]
    flushes = counters.get("dispatch_flushes", 0)
    rpcs_per_op = counters["rpc_calls"] / ops
    cpu = untraced["cpu_us_per_op"]
    # Gossip ticks on its own clock, through solo chunks and yardstick
    # readings too: charge a round's ops with the ticks of a round's time.
    round_s = median([r["wall_s"] for r in untraced["rounds"]])
    gossip_per_op = (
        counters.get("gossip_rounds", 0) / untraced["measured_s"] * round_s / shaped.round_ops
    )
    rows = budget_rows(shaped, layers, rpcs_per_op, gossip_per_op)
    attributed = sum(cost for _, cost in rows)
    unattributed = (cpu - attributed) / cpu
    # The budget's identity: attributed rows + the unattributed remainder
    # reconcile with the untraced cpu_us_per_op.
    assert abs(attributed + unattributed * cpu - cpu) < 1e-6 * cpu

    metrics: Dict[str, Metric] = dict(layers)
    metrics.update(
        {
            "dispatch.rpcs_per_flush": (counters["rpc_calls"] / flushes if flushes else 0.0, "count"),
            "dispatch.flushes_per_op": (flushes / ops, "count"),
            "client.rpcs_per_op": (rpcs_per_op, "count"),
            "client.fallbacks_per_kop": (counters["probe_fallbacks"] / ops * 1e3, "count"),
            "client.timeouts_per_kop": (counters["rpc_timeouts"] / ops * 1e3, "count"),
            "client.repairs_per_kop": (counters["repairs_piggybacked"] / ops * 1e3, "count"),
            "client.fan_out_p50_us": (median(sink.fan_out) * 1e6, "us"),
            "obs.trace_overhead_share": ((traced["cpu_us_per_op"] - cpu) / cpu, "share"),
            "obs.spans_per_op": (sink.span_count / max(1, sink.ops), "count"),
            "harness.warmup_s": (untraced["warmup_s"], "s"),
            "harness.round_iqr_share": (
                iqr_share([r["ops_per_s"] for r in untraced["rounds"]]), "share"),
            "harness.stale_share": (untraced["verdict"]["stale_share"], "share"),
            "harness.budget_unattributed_share": (unattributed, "share"),
            "harness.load_read_p99_ms": (percentile(untraced["load_read_lat"], 0.99) * 1e3, "ms"),
        }
    )

    report = [
        f"latency budget, {workload.name} (us per op at reference speed; "
        f"{len(untraced['rounds'])} rounds of {shaped.round_ops} ops)",
        f"  op self p50            {median(sink.op_self) * 1e6:10.2f}   (benchmark + register frontend)",
        f"  fan_out self p50       {median(sink.fan_out_self) * 1e6:10.2f}   (QuorumTrace minus its rpc spans)",
        f"  rpc p50                {median(sink.rpc) * 1e6:10.2f}   (n={len(sink.rpc)})",
        f"  untraced cpu_us_per_op {cpu:10.2f}   = attributed + unattributed:",
    ]
    report += [f"    {name:<20} {cost:10.2f}   ({cost / cpu:6.1%} of cpu)" for name, cost in rows]
    report.append(f"    {'unattributed':<20} {unattributed * cpu:10.2f}   ({unattributed:6.1%} of cpu)")
    report.append(
        f"  traced cpu_us_per_op   {traced['cpu_us_per_op']:10.2f}   "
        f"(obs.trace_overhead_share {metrics['obs.trace_overhead_share'][0]:+.1%})"
    )

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload.name}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "kept_ops": KEEP_OPS,
                    "ops": sink.ops, "spans": sink.spans})
    )
    problems = untraced["verdict"]["problems"] + traced["verdict"]["problems"]
    return {
        "metrics": metrics,
        "attempted": ops + traced["attempted"],
        "verdict": {
            "correct": not problems,
            "problems": problems,
            "failed": untraced["verdict"]["failed"] + traced["verdict"]["failed"],
            "outcomes": untraced["verdict"]["outcomes"],
        },
        "report": report,
        "info": {
            **untraced["provenance"],
            "rounds": len(untraced["rounds"]),
            "round_ops": shaped.round_ops,
            "solo_reads": shaped.solo_reads,
            "solo_writes": shaped.solo_writes,
            "counters": counters,
            "budget": dict(rows),
        },
    }


def run_mc(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """``mc-batch`` has no service layer: its rows are the batch kernels'."""
    specs = mc_specs()
    tally = {name: [0, 0] for name in harness.MC_ROUND_SHARES}
    started = time.perf_counter()
    harness.mc_round(workload, specs, seed, {name: [0, 0] for name in harness.MC_ROUND_SHARES})
    warmup_s = time.perf_counter() - started
    rounds = [harness.mc_round(workload, specs, seed + index, tally) for index in range(ROUNDS)]
    verdict = harness.mc_verdict(specs, tally, seed, smoke)
    metrics: Dict[str, Metric] = dict(measure_layers(smoke))
    metrics.update({name: (0.0, unit) for name, unit in WORKLOAD_METRICS.items()})
    metrics["harness.warmup_s"] = (warmup_s, "s")
    metrics["harness.round_iqr_share"] = (iqr_share([r["ops_per_s"] for r in rounds]), "share")
    metrics["harness.stale_share"] = (verdict["estimates"]["masking"], "share")
    return {
        "metrics": metrics,
        "attempted": sum(int(r["ops"]) for r in rounds),
        "verdict": verdict,
        "report": [],
        "info": {"loop_driver": "none", "transport": "none", "codec": None, "rounds": ROUNDS,
                 "round_ops": int(rounds[0]["ops"]), "counters": {}},
    }


def run(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    """One ``--trace 1`` run: every per-layer metric, for any workload."""
    result = run_mc(workload, seed, smoke) if workload.kind == "mc" else run_service(workload, seed, smoke)
    missing = set(WORKLOAD_METRICS) - set(result["metrics"])
    assert not missing, f"per-layer metrics not produced: {sorted(missing)}"
    return result
