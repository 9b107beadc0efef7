"""Example: a multi-process cluster serving the replicated register.

The other service examples run every replica inside one event loop.  This
one crosses real process boundaries: ``Deployment.builder().processes(...)``
deploys each shard's ``TcpServiceServer`` in its own spawned process
(readiness handshake, health probes, escalating teardown), and the clients
talk to them over localhost sockets on the binary wire codec.

The smoke itself is the operational contract of the PODC '97 protocols:

* a **mixed read/write load** — concurrent readers and two writers spread
  over 4 register keys on 2 shards, with three colluding Byzantine forgers
  per shard answering reads.  The masking threshold ``k = 8 > b = 3``
  makes zero fabricated-accepted reads a theorem, and the example counts
  them to prove it held;
* **lock contention** — three clients cycling over one quorum-backed lock,
  with a live count of simultaneous holders: more than one at any instant
  would be a double grant.  The smoke deliberately runs a quorum size
  with **ε = 0 exactly** (24-of-36: any two quorums share ≥ 12 servers,
  more than the 3 Byzantine ones, and every replica's arbiter grants one
  client at a time), so mutual exclusion is structural here too — a CI
  gate must not flake on the paper's ε allowance;
* **teardown** — after the ``async with`` block, every shard server
  process must be gone (asserted), whether the run succeeded or threw.

Run with::

    python examples/cluster_service.py

Pass ``--trace-sample 1.0`` to trace every quorum operation end to end
(quorum sampled, per-RPC spans, selection verdict), and ``--trace-out
traces.jsonl`` to dump the sampled traces as JSON lines after teardown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random

from repro import ProbabilisticMaskingSystem
from repro.api import Deployment
from repro.protocol.timestamps import Timestamp
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec

SYSTEM = ProbabilisticMaskingSystem(36, 24, 3)  # k = 8 > b = 3, epsilon = 0

SCENARIO = ScenarioSpec(
    system=SYSTEM,
    failure_model=FailureModel.colluding_forgers(
        3, "FORGED", Timestamp.forged_maximum()
    ),
    workload=WorkloadSpec(writes=1),
)

KEYS = ["k0", "k1", "k2", "k3"]
READERS = 6
READS_PER_READER = 10
WRITES_PER_WRITER = 8


async def mixed_load(deployment: Deployment) -> None:
    print("--- mixed read/write load under colluding forgers ---")
    fabricated = 0
    fresh = 0
    empty = 0

    async def writer(writer_id: int) -> None:
        client = deployment.connect(writer_id=writer_id)
        for version in range(WRITES_PER_WRITER):
            key = KEYS[(writer_id + version) % len(KEYS)]
            await client.write(key, (f"w{writer_id}", version))

    async def reader(index: int) -> None:
        nonlocal fabricated, fresh, empty
        client = deployment.connect()
        rng = random.Random(1000 + index)
        for _ in range(READS_PER_READER):
            outcome = await client.read(rng.choice(KEYS))
            if outcome.value == "FORGED":
                fabricated += 1
            elif outcome.value is None:
                empty += 1
            else:
                fresh += 1

    await asyncio.gather(
        writer(1), writer(2), *(reader(index) for index in range(READERS))
    )
    total = READERS * READS_PER_READER
    print(f"{total} reads against {2 * WRITES_PER_WRITER} concurrent writes: "
          f"{fresh} real values, {empty} not-yet-written, "
          f"{fabricated} fabricated accepted")
    assert fabricated == 0, "a forged value crossed the masking threshold!"


async def lock_contention(deployment: Deployment) -> None:
    print("--- three contenders, one quorum-backed lock ---")
    holders = 0
    most_at_once = 0
    grants = 0

    async def contender(client_id: int) -> None:
        nonlocal holders, most_at_once, grants
        lock = deployment.lock_client("leader", client_id=client_id)
        for _ in range(3):
            await lock.acquire()
            holders += 1
            most_at_once = max(most_at_once, holders)
            grants += 1
            await asyncio.sleep(0.002)  # hold it long enough to collide
            holders -= 1
            await lock.release()

    await asyncio.gather(*(contender(client_id) for client_id in (1, 2, 3)))
    print(f"{grants} grants, at most {most_at_once} simultaneous holder(s)")
    assert most_at_once == 1, "double grant: two clients held the lock at once!"


async def main(trace_sample: float = 0.0, trace_out: str = None) -> None:
    deployment = (
        Deployment.builder(SCENARIO)
        .processes(2)
        .codec("binary")
        .shards(2)
        .deadline(2.0)  # wall-clock: generous, so scheduler noise cannot
        .seed(42)       # starve a quorum read below its threshold
        .trace_sample(trace_sample)
        .build()
    )
    print(f"deploying {deployment!r}")
    async with deployment:
        cluster = deployment.sharded
        print(f"2 shard server processes up, pids {cluster.pids}, "
              f"probes {await cluster.probe()}")
        await mixed_load(deployment)
        await lock_contention(deployment)
    assert deployment.sharded.processes_alive == 0
    print("teardown complete: no shard server process left running")
    if trace_sample > 0.0:
        traces = deployment.traces()
        print(f"collected {len(traces)} quorum traces at rate {trace_sample}")
        if trace_out is not None:
            with open(trace_out, "w", encoding="utf-8") as handle:
                for trace in traces:
                    handle.write(json.dumps(trace, sort_keys=True) + "\n")
            print(f"wrote them to {trace_out} (one JSON object per line)")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of quorum operations to trace end to end (default: 0)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="dump sampled traces to FILE as JSON lines (implies "
        "--trace-sample 1.0 when no rate is given)",
    )
    args = parser.parse_args()
    if args.trace_out is not None and args.trace_sample <= 0.0:
        args.trace_sample = 1.0
    return args


if __name__ == "__main__":
    cli = parse_args()
    asyncio.run(main(trace_sample=cli.trace_sample, trace_out=cli.trace_out))
