"""A yardstick for the box: fixed reference kernels timed between the rounds.

The boxes this benchmark runs on are shared: the same code measured minutes
apart differs by 20-50% in CPU time per op (see README.md, "Why a
yardstick"), far more than any bound worth gating on, and no statistic
taken inside one run removes a slow minute.  So every run also times, right
next to each measured round, a few kernels that never change — they import
nothing from the program — and reports its timings *at reference speed*:

    reported time = measured time * NOMINAL / yardstick time measured alongside

Wall-clock metrics are scaled by the yardstick's wall time (which also sees
the process being descheduled), CPU metrics by its CPU time.

A box running 30% slow stretches the yardstick and the workload alike and
the reported number stays put; a change to the program moves only the
workload.  The kernels are chosen to lean on the same resources as the
workloads: interpreter + asyncio machinery (``loop``), cache and memory
(``chase``), NumPy kernels (``numpy``).
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Dict, Tuple

#: Seconds each kernel takes on the reference box when it is quiet.  They
#: only fix the scale of the reported numbers (so units stay s, ms, us).
NOMINAL = {"loop": 0.020, "chase": 0.025, "numpy": 0.023}


class _Stored:
    __slots__ = ("value", "timestamp")

    def __init__(self, value: bytes, timestamp: tuple) -> None:
        self.value = value
        self.timestamp = timestamp


_TABLE = [_Stored(b"x" * 16, (5, 1)) for _ in range(25)]
_QUORUMS = [tuple(sorted(random.Random(i).sample(range(25), 10))) for i in range(64)]
_BIG = {index: (index, str(index)) for index in range(60_000)}
_ORDER = list(_BIG)
random.Random(1).shuffle(_ORDER)


class _Clock:
    """Wall and CPU time of one kernel run, as ``(wall_s, cpu_s)``."""

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def stop(self) -> Tuple[float, float]:
        return time.perf_counter() - self._wall, time.process_time() - self._cpu


async def loop_kernel(ops: int = 1400, clients: int = 32) -> Tuple[float, float]:
    """A synthetic quorum read on bare asyncio: futures, call_soon, dicts."""
    loop = asyncio.get_running_loop()
    clock = _Clock()
    counter = iter(range(ops))

    async def client() -> None:
        for index in counter:
            future = loop.create_future()
            replies: Dict[int, _Stored] = {}

            def deliver(server: int, replies=replies, future=future) -> None:
                replies[server] = _TABLE[server]
                if len(replies) == 10:
                    future.set_result(replies)

            for server in _QUORUMS[index & 63]:
                loop.call_soon(deliver, server)
            got = await future
            groups: Dict[tuple, list] = {}
            for server in sorted(got):
                stored = got[server]
                groups.setdefault((id(stored.timestamp), id(stored.value)), []).append(server)
            frozenset(next(iter(groups.values())))

    await asyncio.gather(*(client() for _ in range(clients)))
    return clock.stop()


def chase_kernel(count: int = 20_000) -> Tuple[float, float]:
    """Random walks over a 60k-entry dict: cache- and memory-bound."""
    clock = _Clock()
    total = 0
    out = []
    big = _BIG
    for key in _ORDER[:count]:
        entry = big[key]
        out.append((entry[0], entry[1], total))
        total += len(entry[1])
    out.sort(key=lambda item: item[1])
    return clock.stop()


def numpy_kernel() -> Tuple[float, float]:
    """The shapes the batch engine works in: draws, partitions, boolean sums."""
    import numpy as np

    generator = np.random.default_rng(7)
    clock = _Clock()
    for _ in range(3):
        ranks = generator.random((4096, 100))
        picks = np.argpartition(ranks, 29, axis=1)[:, :30]
        member = np.zeros((4096, 100), dtype=bool)
        np.put_along_axis(member, picks, True, axis=1)
        other = generator.random((4096, 100)) < 0.3
        (member & other).sum(axis=1)
    return clock.stop()


#: What can run before the program (and NumPy with it) is imported: set-up
#: is bracketed by readings of these.
STDLIB = ("loop", "chase")
#: Readings are sized alike whatever the mix: three kernel runs each.
RUNS_PER_READING = 3


async def sample(kernels: Tuple[str, ...]) -> Tuple[float, float]:
    """One reading: how slow the box is now, as ``(wall, cpu)``; 1.0 = nominal.

    Each is the geometric mean over ``kernels`` of time / NOMINAL; a mix of
    fewer kernels runs each more often and takes its median.  An empty mix
    reads 1.0: the workload is reported as measured.
    """
    if not kernels:
        return 1.0, 1.0
    wall = cpu = 1.0
    for name in kernels:
        runs = []
        for _ in range(RUNS_PER_READING // len(kernels)):
            if name == "loop":
                runs.append(await loop_kernel())
            elif name == "chase":
                runs.append(chase_kernel())
            else:
                runs.append(numpy_kernel())
        wall *= statistics.median(run[0] for run in runs) / NOMINAL[name]
        cpu *= statistics.median(run[1] for run in runs) / NOMINAL[name]
    root = 1.0 / len(kernels)
    return wall**root, cpu**root
