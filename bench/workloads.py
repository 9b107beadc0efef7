"""The five named workloads: what is deployed, what is sent, and how much.

Every count a run depends on is frozen here, so two commits measured with
this benchmark do identical work: the op schedule (read/write flag, key,
payload) is generated from ``--seed`` *by the benchmark*; the program under
test sees only the generated ops.  Importing this module imports nothing
from ``repro`` — the program is imported inside the builder functions, after
the harness has started its set-up clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

#: Register keys every service workload spreads over (uniformly).
KEYS = 16
#: Closed-loop client coroutines of the load phase; each waits for its reply.
CLIENTS = 32
#: Writer identities shared by those coroutines (distinct timestamps).
WRITERS = 4
#: The value colluding forgers vouch for; no schedule ever writes it.
FORGED_VALUE = b"never-written"

#: One generated operation: (is_write, key, payload-or-None).
Op = Tuple[bool, str, Optional[bytes]]


@dataclass(frozen=True)
class Workload:
    """One named workload: the deployment, the traffic mix and the op counts."""

    name: str
    why: str
    kind: str = "service"  # "service" (front-door reads/writes) or "mc"
    transport: str = "inproc"
    codec: str = "json"
    system: Tuple[int, int, int] = (25, 10, 3)  # masking (n, q, b)
    write_share: float = 0.05
    value_bytes: int = 16
    deadline: float = 0.5
    forgers: int = 0
    churn: bool = False
    #: Ops wait out deadlines rather than the CPU: its numbers are set by
    #: timers and by work done on an otherwise idle loop.
    timer_bound: bool = False
    #: The yardstick kernels that lean on the same resources as the workload
    #: (see yardstick.py); empty = reported as measured.
    yardstick: Tuple[str, ...] = ("loop", "chase", "numpy")
    #: Solo chunk of every iteration: one client, sequential reads then
    #: writes; the unloaded cost of one quorum op (~30 iterations per run
    #: give ~3,000 reads and ~1,500 writes).
    solo_reads: int = 100
    solo_writes: int = 50
    #: Ops per load round (32 closed-loop clients), sized to ~0.5 s.
    round_ops: int = 0
    #: Monte-Carlo workload only: trials per estimator call.
    trials: int = 0

    @property
    def benign(self) -> bool:
        """No faults, no message loss: any timeout or fallback is a bug."""
        return self.forgers == 0 and not self.churn

    def smoke(self) -> "Workload":
        """The same workload with tiny op counts (``--smoke``, the tests)."""
        if self.kind == "mc":
            return replace(self, trials=2000)
        slow = self.timer_bound  # tens of ms per op
        return replace(
            self,
            solo_reads=4 if slow else 40,
            solo_writes=2 if slow else 20,
            round_ops=96 if slow else 400,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="inproc-read",
            why="client+dispatch+node+selection do all the work, wire/net none: "
            "the bypass workload for every socket/codec change",
            solo_reads=600,
            solo_writes=300,
            round_ops=8000,
        ),
        Workload(
            name="tcp-read",
            why="binary wire codec + localhost sockets dominate: where buffer "
            "joins, pipelining, TCP_NODELAY and server-loop work must show",
            transport="tcp",
            codec="binary",
            solo_reads=200,
            solo_writes=100,
            round_ops=2000,
        ),
        Workload(
            name="tcp-write-1k",
            why="same wire/net layers the other way: 50% writes of 1 KiB bytes "
            "over the default JSON codec (base64, write fan-out)",
            transport="tcp",
            codec="json",
            write_share=0.5,
            value_bytes=1024,
            round_ops=800,
        ),
        Workload(
            name="byz-churn",
            why="the paper's claim under fire: 3 colluding forgers, rolling "
            "crashes, 2% loss, 50 ms deadlines, probe fallback, repair, gossip",
            # q=14 gives k=4 votes per accepted pair, strictly more than the
            # 3 forgers, so zero fabricated reads is structural (at the
            # default q=10, k=2 and two forgers in one quorum out-vote it).
            system=(25, 14, 3),
            write_share=0.2,
            deadline=0.05,
            forgers=3,
            churn=True,
            timer_bound=True,
            # Scaling made it worse (CPU IQR 8% against 5% raw): bursts of
            # gossip on a mostly idle loop slow down unlike any busy kernel.
            yardstick=(),
            solo_reads=6,
            solo_writes=3,
            round_ops=600,
        ),
        Workload(
            name="mc-batch",
            why="the other user population (validating epsilon): batch "
            "Monte-Carlo kernels do everything, the service layer nothing",
            kind="mc",
            trials=20000,
            # Vectorised NumPy loops shrug off interference that slows the
            # interpreter kernels by a fifth: scaled by them, its spread grew.
            yardstick=("numpy",),
        ),
    )
}

#: Rolling crashes of ``byz-churn``: at most this many alive, one per interval.
CHURN_CRASHES = 3
CHURN_INTERVAL = 0.005


def key_name(index: int) -> str:
    return f"k{index:02d}"


def make_ops(workload: Workload, seed: int, phase: str, count: int,
             write_share: Optional[float] = None) -> List[Op]:
    """``count`` ops of one phase, a pure function of ``(seed, phase)``."""
    rng = random.Random(f"{workload.name}:{seed}:{phase}")
    share = workload.write_share if write_share is None else write_share
    ops: List[Op] = []
    for _ in range(count):
        key = key_name(rng.randrange(KEYS))
        if rng.random() < share:
            ops.append((True, key, rng.randbytes(workload.value_bytes)))
        else:
            ops.append((False, key, None))
    return ops


def build_scenario(workload: Workload):
    """The declarative scenario a service workload deploys."""
    from repro.core.masking import ProbabilisticMaskingSystem
    from repro.protocol.timestamps import Timestamp
    from repro.simulation.failures import FailureModel
    from repro.simulation.scenario import ScenarioSpec

    n, quorum_size, b = workload.system
    model = (
        FailureModel.colluding_forgers(
            workload.forgers, FORGED_VALUE, Timestamp.forged_maximum()
        )
        if workload.forgers
        else FailureModel.none()
    )
    return ScenarioSpec(
        system=ProbabilisticMaskingSystem(n, quorum_size, b), failure_model=model
    )


def build_deployment(workload: Workload, seed: int, trace_sample: float = 0.0):
    """The workload's deployment, through the public front door only."""
    from repro.api import Deployment

    builder = (
        Deployment.builder(build_scenario(workload))
        .transport(workload.transport)
        .deadline(workload.deadline)
        .seed(seed)
    )
    if workload.transport == "tcp":
        builder = builder.codec(workload.codec)
    if workload.churn:
        builder = builder.conditions(
            latency=0.001, jitter=0.0005, drop_probability=0.02
        ).anti_entropy(fanout=2, repair_budget=2)
    if trace_sample > 0.0:
        builder = builder.trace_sample(trace_sample)
    return builder.build()


def mc_specs() -> Dict[str, Any]:
    """The four read-consistency scenarios and the staleness scenario (n=100)."""
    from repro.core.dissemination import ProbabilisticDisseminationSystem
    from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
    from repro.core.masking import ProbabilisticMaskingSystem
    from repro.protocol.timestamps import Timestamp
    from repro.simulation.failures import FailureModel
    from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec

    plain = UniformEpsilonIntersectingSystem(100, 15)
    return {
        "masking": ScenarioSpec(
            system=ProbabilisticMaskingSystem(100, 30, 4),
            failure_model=FailureModel.colluding_forgers(
                4, "forged", Timestamp.forged_maximum()
            ),
        ),
        "dissemination": ScenarioSpec(
            system=ProbabilisticDisseminationSystem(100, 20, 5),
            failure_model=FailureModel.random_crashes(5),
        ),
        "gossiped": ScenarioSpec(
            system=plain, anti_entropy=AntiEntropySpec(fanout=2, rounds=1)
        ),
        "multiwriter": ScenarioSpec(system=plain, writers=3),
        "staleness": ScenarioSpec(
            system=plain,
            workload=WorkloadSpec(writes=5, gossip_rounds_between_writes=1),
        ),
    }
