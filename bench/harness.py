"""Run shapes: set-up, warm-up, solo phase, load phase, and the safety gate.

A service run is: several timed bring-ups (``setup_s`` is their median plus
the one import) -> one untimed warm-up round -> iterations of [**solo
chunk** (one client, sequential reads then writes: the unloaded cost of one
quorum op) -> **load round** (32 closed-loop client coroutines over a shared
cursor, a fixed op count) -> yardstick reading]; the *median* chunk and the
*median* round are reported.  Closed loop is the stated model: a register's
callers each wait for their reply.  Iterations repeat until ``--seconds`` of
measurement have elapsed, so a run measures for the time the driver asks
while every iteration does identical work.

Timings are reported *at reference speed*: a yardstick (``yardstick.py``) is
read next to every round and every solo chunk, and each measured time is
scaled by how slow the box was just then.

The benchmark keeps its own issued history ``{(key, timestamp): crc}`` and
fails the run on any read returning a pair never written.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import resource
import statistics
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import yardstick
from workloads import (
    CHURN_CRASHES,
    CHURN_INTERVAL,
    CLIENTS,
    KEYS,
    WRITERS,
    Op,
    Workload,
    build_deployment,
    key_name,
    make_ops,
    mc_specs,
)

#: Bring-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Load rounds per run: at least MIN (whatever ``--seconds`` says), at most MAX.
MIN_ROUNDS = 9
MAX_ROUNDS = 40
#: Normal quantile of the staleness and Monte-Carlo gates.  Wider than the
#: 99.9% a single run would want: the driver makes >100 runs on fresh seeds
#: and one false alarm rejects the benchmark.
GATE_Z = 5.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class Yard:
    """The yardstick readings of one run: how slow the box was, and when."""

    def __init__(self, kernels: Tuple[str, ...]) -> None:
        self.kernels = kernels
        self.wall: List[float] = []
        self.cpu: List[float] = []

    async def read(self) -> None:
        wall, cpu = await yardstick.sample(self.kernels)
        self.wall.append(wall)
        self.cpu.append(cpu)

    def around(self) -> Tuple[float, float]:
        """(wall, cpu) slowness over whatever ran between the last two readings."""
        return (self.wall[-2] + self.wall[-1]) / 2, (self.cpu[-2] + self.cpu[-1]) / 2


class History:
    """The benchmark's own record of what was written, and what reads saw."""

    def __init__(self) -> None:
        self.issued: Dict[Any, int] = {}
        self.settled: Dict[str, Any] = {}
        self.outcomes = {"fresh": 0, "stale": 0, "empty": 0, "fabricated": 0}
        self.writes = 0
        self.failed = 0
        #: Flipped only by the smoke test's seeded fault: a checker that
        #: expects the wrong values must make the run exit non-zero.
        self.expect_flipped = False

    def on_issued(self, key: str, timestamp: Any, value: Any) -> None:
        # Recorded the moment the pair can first reach a server: a
        # concurrent reader may legitimately see it before the write returns.
        self.issued[(key, timestamp)] = zlib.crc32(value)

    def settle(self, key: str, timestamp: Any) -> None:
        current = self.settled.get(key)
        if current is None or current < timestamp:
            self.settled[key] = timestamp

    def classify(self, key: str, snapshot: Any, outcome: Any) -> str:
        """Label one read against the highest write completed before it began."""
        if outcome.value is None:
            label = "empty"
        else:
            try:
                crc = self.issued.get((key, outcome.timestamp))
                written = crc is not None and crc == zlib.crc32(outcome.value)
            except TypeError:  # a forged value or timestamp of a foreign type
                written = False
            if written == self.expect_flipped:
                label = "fabricated"
            elif snapshot is not None and outcome.timestamp < snapshot:
                label = "stale"
            else:
                label = "fresh"
        self.outcomes[label] += 1
        return label

    @property
    def reads(self) -> int:
        return sum(self.outcomes.values())


class Session:
    """One brought-up deployment with its clients, driven by the run phases."""

    def __init__(self, workload: Workload, seed: int, trace_sample: float = 0.0) -> None:
        # Imported here, not at module level: the program's imports belong
        # inside the set-up clock, which starts after this module is loaded.
        from repro.exceptions import QuorumUnavailableError

        self._unavailable = QuorumUnavailableError
        self.workload = workload
        self.seed = seed
        self.trace_sample = trace_sample
        self.history = History()
        self.deployment: Any = None
        self.readers: List[Any] = []
        self.writers: List[Any] = []
        self._churn: Optional[asyncio.Task] = None
        self.churn_counters = {"injected": 0}
        #: Optional span sink ``(name, started, ended, op_id, trace, solo)`` of
        #: the traced run; ``None`` keeps the per-op path free of it.
        self.on_op = None
        self._op_seq = 0
        self._solo = False

    async def open(self) -> "Session":
        """Deployment started, all clients connected, every key preloaded."""
        self.deployment = build_deployment(self.workload, self.seed, self.trace_sample)
        await self.deployment.start()
        for index in range(WRITERS):
            writer = self.deployment.connect(writer_id=index + 1)
            writer.on_issued = self.history.on_issued
            self.writers.append(writer)
        self.readers = [self.deployment.connect() for _ in range(CLIENTS)]
        preload = make_ops(self.workload, self.seed, "preload", KEYS, write_share=1.0)
        await asyncio.gather(
            *(
                self._write(self.writers[index % WRITERS], key_name(index), op[2])
                for index, op in enumerate(preload)
            )
        )
        return self

    async def close(self) -> None:
        await self.stop_churn()
        await self.deployment.aclose()

    # -- fault injection ----------------------------------------------------------

    def start_churn(self) -> None:
        if not self.workload.churn or self._churn is not None:
            return
        from repro.service.load import FaultInjectionSpec, inject_faults

        self._churn = asyncio.ensure_future(
            inject_faults(
                self.deployment.sharded,
                FaultInjectionSpec(crash_count=CHURN_CRASHES, interval=CHURN_INTERVAL),
                random.Random(f"churn:{self.seed}"),
                self.churn_counters,
            )
        )

    async def stop_churn(self) -> None:
        task, self._churn = self._churn, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- single operations --------------------------------------------------------

    async def _write(self, writer: Any, key: str, value: bytes) -> bool:
        history = self.history
        on_op = self.on_op
        started = time.monotonic() if on_op is not None else 0.0
        try:
            outcome = await writer.write(key, value)
        except self._unavailable:
            history.failed += 1
            return False
        if on_op is not None:
            self._op_seq += 1
            on_op("write", started, time.monotonic(), self._op_seq, writer.last_trace, self._solo)
        history.settle(key, outcome.timestamp)
        history.writes += 1
        return True

    async def _read(self, reader: Any, key: str) -> None:
        history = self.history
        on_op = self.on_op
        snapshot = history.settled.get(key)
        started = time.monotonic() if on_op is not None else 0.0
        outcome = await reader.read(key)
        if on_op is not None:
            self._op_seq += 1
            on_op("read", started, time.monotonic(), self._op_seq, reader.last_trace, self._solo)
        history.classify(key, snapshot, outcome)

    # -- phases -------------------------------------------------------------------

    async def solo(self, ops: Sequence[Op]) -> List[float]:
        """One client, sequential: per-op latencies in seconds (failures excluded)."""
        reader, writer = self.readers[0], self.writers[0]
        latencies: List[float] = []
        clock = time.perf_counter
        self._solo = True
        for is_write, key, value in ops:
            started = clock()
            if is_write:
                if not await self._write(writer, key, value):
                    continue
            else:
                await self._read(reader, key)
            latencies.append(clock() - started)
        self._solo = False
        return latencies

    async def load_round(
        self, ops: Sequence[Op], read_latencies: Optional[List[float]] = None
    ) -> Dict[str, float]:
        """32 closed-loop clients draining ``ops`` through one shared cursor."""
        cursor = iter(enumerate(ops))
        writers = self.writers
        clock = time.perf_counter

        async def client(reader: Any) -> None:
            for index, (is_write, key, value) in cursor:
                if is_write:
                    await self._write(writers[index % WRITERS], key, value)
                elif read_latencies is None:
                    await self._read(reader, key)
                else:
                    started = clock()
                    await self._read(reader, key)
                    read_latencies.append(clock() - started)

        cpu_started = time.process_time()
        started = clock()
        await asyncio.gather(*(client(reader) for reader in self.readers))
        wall = clock() - started
        cpu = time.process_time() - cpu_started
        return {
            "wall_s": wall,
            "ops_per_s": len(ops) / wall,
            "cpu_us_per_op": cpu / len(ops) * 1e6,
        }

    # -- counters -----------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Cumulative client-side counters from the public metrics snapshot."""
        merged = dict(self.deployment.metrics()["counters"])
        merged["probe_fallbacks"] = sum(
            client.probe_fallbacks for client in self.readers + self.writers
        )
        return merged

    def provenance(self) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        shard = self.deployment.sharded.shards[0]
        return {
            "loop_driver": type(loop).__module__.split(".")[0],
            "transport": self.deployment.transport,
            "codec": getattr(shard.transport, "negotiated_codec", None),
        }


async def bring_up(workload: Workload, seed: int, repeats: int) -> "tuple[Session, List[float]]":
    """Bring the deployment up ``repeats`` times; keep the last one running.

    The rehearsals run on seeds of their own: on a lossy deployment the
    seed decides which preload writes wait out a deadline, and five
    bring-ups on one seed would all time the same draw.
    """
    durations: List[float] = []
    session: Optional[Session] = None
    for index in reversed(range(repeats)):
        if session is not None:
            await session.close()
        started = time.perf_counter()
        session = await Session(workload, seed + 7919 * index).open()
        durations.append(time.perf_counter() - started)
    assert session is not None
    return session, durations


async def measure_service(
    session: Session,
    seconds: float,
    min_rounds: int = MIN_ROUNDS,
    max_rounds: int = MAX_ROUNDS,
    read_latencies: Optional[List[float]] = None,
) -> Dict[str, Any]:
    """Warm-up, solo phase, load rounds; returns raw samples and counters."""
    workload, seed = session.workload, session.seed
    session.start_churn()
    warm_started = time.perf_counter()
    await session.load_round(
        make_ops(workload, seed, "warmup", max(CLIENTS, workload.round_ops // 2))
    )
    warmup_s = time.perf_counter() - warm_started
    # The warm-up traffic is not part of the verdict or the counters.
    session.history.outcomes = dict.fromkeys(session.history.outcomes, 0)
    session.history.failed = session.history.writes = 0
    before = session.counters()
    gc.collect()
    gc.freeze()
    yard = Yard(workload.yardstick)
    await yard.read()
    measured = time.perf_counter()
    read_lat: List[float] = []
    write_lat: List[float] = []
    rounds: List[Dict[str, float]] = []
    while len(rounds) < max_rounds:
        # One iteration: a solo chunk (one client, sequential reads then
        # writes), a load round, a yardstick reading.  Interleaving spreads
        # the solo samples over the whole run, so a slow stretch of the box
        # colours a few chunks, not the whole phase.
        tag = len(rounds)
        reads = await session.solo(make_ops(workload, seed, f"solo-read-{tag}", workload.solo_reads, 0.0))
        writes = await session.solo(make_ops(workload, seed, f"solo-write-{tag}", workload.solo_writes, 1.0))
        ops = make_ops(workload, seed, f"round-{tag}", workload.round_ops)
        one = await session.load_round(ops, read_latencies)
        await yard.read()
        rounds.append(at_reference_speed(one, reads, writes, yard))
        read_lat += reads
        write_lat += writes
        if len(rounds) >= min_rounds and time.perf_counter() - measured >= seconds:
            break
    measured_s = time.perf_counter() - measured
    await session.stop_churn()
    after = session.counters()
    per_round = workload.solo_reads + workload.solo_writes + workload.round_ops
    return {
        "warmup_s": warmup_s,
        "measured_s": measured_s,
        "read_lat": read_lat,
        "write_lat": write_lat,
        "rounds": rounds,
        "yard": yard,
        "counters": {name: after[name] - before.get(name, 0) for name in after},
        "attempted": len(rounds) * per_round,
    }


def at_reference_speed(
    one: Dict[str, float], solo_reads: Sequence[float], solo_writes: Sequence[float], yard: Yard
) -> Dict[str, float]:
    """One iteration's numbers; the round scaled by the readings on either side of it."""
    wall_slow, cpu_slow = yard.around()
    return {
        **one,
        "raw_ops_per_s": one["ops_per_s"],
        "raw_cpu_us_per_op": one["cpu_us_per_op"],
        "raw_read_p50_s": median(solo_reads),
        "raw_write_p50_s": median(solo_writes),
        "ops_per_s": one["ops_per_s"] * wall_slow,
        "cpu_us_per_op": one["cpu_us_per_op"] / cpu_slow,
        "read_mean_s": sum(solo_reads) / len(solo_reads) / wall_slow,
        "write_mean_s": sum(solo_writes) / len(solo_writes) / wall_slow,
    }


def solo_p50(workload: Workload, rounds: Sequence[Dict[str, float]], kind: str) -> float:
    """The unloaded latency of one op at reference speed: the median solo chunk.

    A solo op is short and sleeps between its messages, so on a shared box
    its latencies fall into a tight fast mode and a slow one whose share
    swings with the host; a chunk's *p50* flips between the two as that
    share crosses a half (median chunk p50, scaled: 4-27% IQR over ten runs
    of one commit, depending on the hour).  A chunk's *mean* moves in
    proportion, as the yardstick does, so it scales the way a load round
    does: each chunk's mean latency over the readings around it, and the
    median over chunks.  A timer-bound workload's latencies are set by
    deadlines, not by the box: the median chunk p50, as measured.
    """
    if workload.timer_bound:
        return median([one[f"raw_{kind}_p50_s"] for one in rounds])
    return median([one[f"{kind}_mean_s"] for one in rounds])


def service_verdict(session: Session, counters: Dict[str, int]) -> Dict[str, Any]:
    """The safety gate of a service run: what must hold for ``correct``."""
    history = session.history
    system = session.deployment.scenario.system
    reads = max(1, history.reads)
    epsilon = float(system.epsilon)
    slack = GATE_Z * math.sqrt(epsilon * (1.0 - epsilon) / reads)
    stale_share = (history.outcomes["stale"] + history.outcomes["empty"]) / reads
    problems: List[str] = []
    if history.outcomes["fabricated"]:
        problems.append(f"{history.outcomes['fabricated']} reads returned a pair never written")
    if stale_share > epsilon + slack:
        problems.append(
            f"stale+empty share {stale_share:.4f} exceeds epsilon {epsilon:.4f} + slack"
        )
    if session.workload.benign:
        for name in ("rpc_timeouts", "rpc_dropped", "probe_fallbacks"):
            if counters.get(name, 0):
                problems.append(f"benign workload reported {counters[name]} {name}")
        if history.failed:
            problems.append(f"benign workload reported {history.failed} failed ops")
    return {
        "correct": not problems,
        "problems": problems,
        "failed": history.failed,
        "outcomes": dict(history.outcomes),
        "stale_share": stale_share,
        "epsilon": epsilon,
    }


def run_sizes(smoke: bool) -> Tuple[int, int, int]:
    """(bring-ups, fewest rounds, most rounds) of one end-to-end run."""
    return (2, 2, 2) if smoke else (SETUP_REPEATS, MIN_ROUNDS, MAX_ROUNDS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_result(
    workload: Workload,
    raw: Dict[str, Any],
    verdict: Dict[str, Any],
    import_s: float,
    bringups: List[float],
    setup_slow: float,
    info: Dict[str, Any],
) -> Dict[str, Any]:
    """The six end-to-end metrics of one run, plus what the run was made of."""
    rounds = raw["rounds"]
    yard: Yard = raw["yard"]
    metrics = {
        "ops_per_s": (median([r["ops_per_s"] for r in rounds]), "1/s"),
        "cpu_us_per_op": (median([r["cpu_us_per_op"] for r in rounds]), "us"),
        "read_p50_ms": (solo_p50(workload, rounds, "read") * 1e3, "ms"),
        "write_p50_ms": (solo_p50(workload, rounds, "write") * 1e3, "ms"),
        "setup_s": ((import_s + median(bringups)) / setup_slow, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": raw["attempted"],
        "verdict": verdict,
        "info": {
            **info,
            "rounds": len(rounds),
            "round_ops": workload.round_ops or int(rounds[0]["ops"]),
            "solo_reads": len(raw["read_lat"]),
            "solo_writes": len(raw["write_lat"]),
            "round_iqr_share": iqr_share([r["ops_per_s"] for r in rounds]),
            "import_s": import_s,
            "bringup_s": bringups,
            "warmup_s": raw["warmup_s"],
            # How slow the box ran against the yardstick's nominal speed;
            # measured = reported * (these) for times, / for rates.
            "yardstick_wall": median(yard.wall),
            "yardstick_cpu": median(yard.cpu),
            "raw": {
                "ops_per_s": median([r["raw_ops_per_s"] for r in rounds]),
                "cpu_us_per_op": median([r["raw_cpu_us_per_op"] for r in rounds]),
                "read_p50_ms": median(raw["read_lat"]) * 1e3,
                "write_p50_ms": median(raw["write_lat"]) * 1e3,
                "setup_s": import_s + median(bringups),
            },
            "counters": raw["counters"],
            "samples": {
                "yardstick_wall": yard.wall,
                "yardstick_cpu": yard.cpu,
                "raw_ops_per_s": [r["raw_ops_per_s"] for r in rounds],
                "raw_cpu_us_per_op": [r["raw_cpu_us_per_op"] for r in rounds],
                "raw_read_p50_s": [r["raw_read_p50_s"] for r in rounds],
                "raw_write_p50_s": [r["raw_write_p50_s"] for r in rounds],
                "read_mean_s": [r["read_mean_s"] for r in rounds],
                "write_mean_s": [r["write_mean_s"] for r in rounds],
            },
        },
    }


async def stdlib_reading() -> float:
    """Wall slowness from the kernels that need no imports (mean of two readings)."""
    readings = [(await yardstick.sample(yardstick.STDLIB))[0] for _ in range(2)]
    return sum(readings) / 2


async def setup_slowness(before_import: float) -> float:
    """How slow the box was over set-up: readings before the imports and now."""
    return (before_import + await stdlib_reading()) / 2


async def run_service_e2e(
    workload: Workload, seed: int, seconds: float, import_s: float, before_import: float,
    smoke: bool, flip_history: bool = False,
) -> Dict[str, Any]:
    """One end-to-end run of a service workload (tracing off)."""
    repeats, min_rounds, max_rounds = run_sizes(smoke)
    session, bringups = await bring_up(workload, seed, repeats)
    setup_slow = await setup_slowness(before_import)
    session.history.expect_flipped = flip_history
    try:
        raw = await measure_service(session, seconds, min_rounds, max_rounds)
        verdict = service_verdict(session, raw["counters"])
        info = session.provenance()
    finally:
        await session.close()
    info["churn_crashes_injected"] = session.churn_counters["injected"]
    return e2e_result(workload, raw, verdict, import_s, bringups, setup_slow, info)


# -- the Monte-Carlo workload -------------------------------------------------------

#: Trials per estimator call inside a load round, as a share of
#: ``workload.trials`` (the gossiped and staleness kernels cost ~10x a plain
#: trial, so they get fewer; the mix is frozen, the op is one trial).
MC_ROUND_SHARES = {
    "masking": 1.0,
    "dissemination": 1.0,
    "gossiped": 0.1,
    "multiwriter": 1.0,
    "staleness": 0.25,
}
#: Passes over that mix per load round (sizes a round to ~1.5 s).
MC_ROUND_PASSES = 1
#: Trials of the sequential oracle each batch estimate is compared against.
MC_ORACLE_TRIALS = {
    "masking": 500,
    "dissemination": 500,
    "gossiped": 200,
    "multiwriter": 500,
    "staleness": 100,
}


def _mc_call(name: str, spec: Any, trials: int, seed: int, engine: str = "batch") -> "tuple[int, int]":
    """Run one estimator call; return ``(trials, errors)``."""
    from repro.simulation.monte_carlo import (
        estimate_read_consistency,
        estimate_staleness_distribution,
    )

    if name == "staleness":
        report = estimate_staleness_distribution(spec, trials=trials, seed=seed, engine=engine)
        return trials, sum(1 for lag in report.versions_behind if lag > 0)
    report = estimate_read_consistency(spec, trials=trials, seed=seed, engine=engine)
    if report.fabricated:
        raise AssertionError(f"{name}: {report.fabricated} fabricated reads accepted")
    return trials, report.stale + report.empty


def mc_round(workload: Workload, specs: Dict[str, Any], seed: int, tally: Dict[str, List[int]]) -> Dict[str, float]:
    cpu_started = time.process_time()
    started = time.perf_counter()
    ops = 0
    for index in range(MC_ROUND_PASSES):
        for name, share in MC_ROUND_SHARES.items():
            trials, errors = _mc_call(
                name, specs[name], max(1, int(workload.trials * share)), seed * 100 + index
            )
            tally[name][0] += trials
            tally[name][1] += errors
            ops += trials
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return {"wall_s": wall, "ops_per_s": ops / wall, "cpu_us_per_op": cpu / ops * 1e6, "ops": ops}


def mc_verdict(specs: Dict[str, Any], tally: Dict[str, List[int]], seed: int, smoke: bool) -> Dict[str, Any]:
    """Batch estimates against the analytical epsilon and the sequential oracle."""
    problems: List[str] = []
    estimates: Dict[str, float] = {}
    for name, (trials, errors) in tally.items():
        spec = specs[name]
        rate = errors / trials
        estimates[name] = rate
        epsilon = float(spec.system.epsilon)
        # Crashes sit outside the epsilon model, so the analytical bound
        # gates only the scenarios the theorems cover.
        if name != "dissemination":
            bound = epsilon + GATE_Z * math.sqrt(epsilon * (1 - epsilon) / trials)
            if rate > bound:
                problems.append(f"{name}: batch error {rate:.5f} above epsilon {epsilon:.5f}")
        oracle_trials = MC_ORACLE_TRIALS[name] // (4 if smoke else 1)
        _, oracle_errors = _mc_call(name, spec, oracle_trials, seed, engine="sequential")
        pooled = (errors + oracle_errors) / (trials + oracle_trials)
        spread = math.sqrt(max(pooled * (1 - pooled), 1e-9) * (1 / trials + 1 / oracle_trials))
        if abs(rate - oracle_errors / oracle_trials) > GATE_Z * spread + 1.0 / oracle_trials:
            problems.append(
                f"{name}: batch {rate:.5f} vs sequential {oracle_errors / oracle_trials:.5f}"
            )
    return {"correct": not problems, "problems": problems, "failed": 0, "estimates": estimates}


def run_mc_e2e(
    workload: Workload, seed: int, seconds: float, import_s: float, before_import: float, smoke: bool
) -> Dict[str, Any]:
    """One end-to-end run of ``mc-batch``: an op is one trial.

    ``read_p50_ms`` is one ``workload.trials``-trial read-consistency call,
    ``write_p50_ms`` one multi-write staleness call of the same size; the
    load phase is the frozen mix of estimator calls, one pass per round.
    """
    return asyncio.run(_run_mc_e2e(workload, seed, seconds, import_s, before_import, smoke))


async def _run_mc_e2e(
    workload: Workload, seed: int, seconds: float, import_s: float, before_import: float, smoke: bool
) -> Dict[str, Any]:
    repeats, min_rounds, max_rounds = run_sizes(smoke)
    bringups: List[float] = []
    specs: Dict[str, Any] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        specs = mc_specs()
        # Set-up is "ready to estimate": systems calibrated, engines built.
        for name, spec in specs.items():
            _mc_call(name, spec, 64, seed)
        bringups.append(time.perf_counter() - started)
    setup_slow = await setup_slowness(before_import)
    tally = {name: [0, 0] for name in MC_ROUND_SHARES}
    warm_started = time.perf_counter()
    mc_round(workload, specs, seed, {name: [0, 0] for name in MC_ROUND_SHARES})
    warmup_s = time.perf_counter() - warm_started
    gc.collect()
    gc.freeze()
    yard = Yard(workload.yardstick)
    await yard.read()
    measured = time.perf_counter()
    attempted = 0
    solo: Dict[str, List[float]] = {"masking": [], "staleness": []}
    rounds: List[Dict[str, float]] = []
    while len(rounds) < max_rounds:
        # One iteration, as for the service workloads: the two solo calls,
        # a load round (one pass over the frozen mix), a yardstick reading.
        for name in solo:
            started = time.perf_counter()
            trials, errors = _mc_call(name, specs[name], workload.trials, seed + 1000 + len(rounds))
            solo[name].append(time.perf_counter() - started)
            tally[name][0] += trials
            tally[name][1] += errors
            attempted += trials
        one = mc_round(workload, specs, seed + len(rounds), tally)
        await yard.read()
        rounds.append(
            at_reference_speed(one, solo["masking"][-1:], solo["staleness"][-1:], yard)
        )
        attempted += int(one["ops"])
        if len(rounds) >= min_rounds and time.perf_counter() - measured >= seconds:
            break
    raw = {
        "rounds": rounds,
        "yard": yard,
        "read_lat": solo["masking"],
        "write_lat": solo["staleness"],
        "attempted": attempted,
        "warmup_s": warmup_s,
        "counters": {},
    }
    info = {"loop_driver": "none", "transport": "none", "codec": None}
    return e2e_result(
        workload, raw, mc_verdict(specs, tally, seed, smoke), import_s, bringups, setup_slow, info
    )
