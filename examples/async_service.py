"""Example: the replicated register as a live asyncio service.

Everything else in this repo measures the paper's protocols with offline
Monte-Carlo trials.  This example deploys them through the ``repro.api``
facade: one builder wires up replica nodes, transports, dispatchers and
quorum clients, and hands back register and lock handles that run the
exact code paths the conformance suite pins down.

Four acts (in-process transport, the default):

1. a single client against a healthy masking deployment — write, read,
   inspect where the value landed;
2. a crash-heavy deployment — watch the client top its quorum up from
   servers it has not asked yet, routing around dead ones;
3. two clients contending for a quorum-backed distributed lock — every
   replica arbitrates, granting one request at a time;
4. the full soak of the ``serve`` experiment — colluding Byzantine forgers
   at the system's declared tolerance, dropped messages, live crash churn —
   with the safety verdict that no fabricated value was ever accepted.

With ``--transport tcp`` the same protocol runs over *real localhost
sockets*: act one crosses the wire frame by frame, and the closing load
spreads a multi-register workload over a sharded TCP deployment —
per-shard throughput, wall-clock deadlines, and the same
zero-fabrication verdict.

Run with::

    python examples/async_service.py
    python examples/async_service.py --transport tcp
"""

from __future__ import annotations

import argparse
import asyncio
import random

from repro import ProbabilisticMaskingSystem
from repro.api import Deployment
from repro.experiments.serve import render_serve, serve_load_spec
from repro.protocol.timestamps import Timestamp
from repro.service import run_service_load
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec

SYSTEM = ProbabilisticMaskingSystem(100, 30, 3)  # k = 5 > b = 3

SCENARIO = ScenarioSpec(
    system=SYSTEM,
    failure_model=FailureModel.none(),
    workload=WorkloadSpec(writes=1),
)


async def act_one_healthy() -> None:
    print("=== 1. One client, healthy deployment " + "=" * 30)
    deployment = (
        Deployment.builder(SCENARIO)
        .conditions(latency=0.0005, jitter=0.0002)
        .deadline(0.05)
        .seed(1)
        .build()
    )
    async with deployment:
        client = deployment.connect()
        write = await client.write("x", "hello, PODC")
        print(f"write touched a quorum of {len(write.quorum)}; "
              f"{len(write.acknowledged)} servers acknowledged")
        outcome = await client.read("x")
        register = client.register_for("x")
        print(f"read -> {outcome.value!r} with {outcome.votes} vouching votes "
              f"(threshold k={outcome.threshold}); label: {register.classify_read(outcome)}")
        nodes = deployment.sharded.shards[0].nodes
        holders = sum(1 for node in nodes if node.stored("x") is not None)
        print(f"{holders} of {SYSTEM.n} replicas hold the value\n")


async def act_two_crashes() -> None:
    print("=== 2. Degraded-quorum top-up under crashes " + "=" * 24)
    deployment = Deployment.builder(SCENARIO).deadline(0.005).seed(2).build()
    async with deployment:
        client = deployment.connect()
        await client.write("x", "durable")

        nodes = deployment.sharded.shards[0].nodes
        rng = random.Random(7)
        for victim in rng.sample(range(SYSTEM.n), 40):
            nodes[victim].crash()
        print("crashed 40 of 100 servers mid-flight")

        outcome = await client.read("x")
        register = client.register_for("x")
        print(f"read -> {outcome.value!r}; label: {register.classify_read(outcome)}; "
              f"{client.probe_fallbacks} degraded op(s) topped up from spare servers\n")


async def act_three_lock() -> None:
    print("=== 3. A quorum-backed distributed lock " + "=" * 28)
    deployment = Deployment.builder(SCENARIO).deadline(0.05).seed(3).build()
    async with deployment:
        alice = deployment.lock_client("leader", client_id=1)
        bob = deployment.lock_client("leader", client_id=2)

        grant = await alice.acquire()
        print(f"client 1 acquired 'leader' at {grant.timestamp!r} "
              f"after {alice.requests} request round(s)")
        attempt = await bob.request()
        print(f"client 2's request was refused: its arbiters named "
              f"holder {attempt.holder_seen}")
        await alice.release()
        grant = await bob.acquire()
        print(f"client 1 released; client 2 then acquired at {grant.timestamp!r}")
        await bob.release()
        print("each replica grants one request at a time — mutual "
              "exclusion holds up to the quorums' intersection probability\n")


def act_four_soak() -> None:
    print("=== 4. The serve soak: forgers + drops + live churn " + "=" * 16)
    spec = serve_load_spec(clients=150, reads_per_client=4, writes=15, seed=9)
    b = spec.scenario.failure_model.count
    k = spec.scenario.system.read_threshold
    print(f"{b} colluding forgers answer every read with a maximal forged "
          f"timestamp; the read threshold k={k} out-votes them\n")
    report = run_service_load(spec)
    print(render_serve(report))


async def act_one_tcp() -> None:
    print("=== 1 (tcp). One client over real localhost sockets " + "=" * 16)
    deployment = (
        Deployment.builder(SCENARIO).transport("tcp").deadline(1.0).seed(1).build()
    )
    async with deployment:
        server = deployment.sharded.shards[0].server
        host, port = server.address
        print(f"replica group of {SYSTEM.n} nodes listening on {host}:{port}")
        client = deployment.connect()
        write = await client.write("x", "hello over TCP")
        print(f"write crossed the wire to a quorum of {len(write.quorum)}; "
              f"{len(write.acknowledged)} acknowledgements came back")
        outcome = await client.read("x")
        register = client.register_for("x")
        print(f"read -> {outcome.value!r} with {outcome.votes} vouching votes; "
              f"label: {register.classify_read(outcome)}")
        transport = deployment.sharded.shards[0].transport
        print(f"transport counters: {transport.calls} rpcs, "
              f"{transport.timed_out} timed out\n")


def act_two_tcp_sharded_load() -> None:
    print("=== 2 (tcp). Sharded multi-register load over sockets " + "=" * 14)
    spec = serve_load_spec(
        clients=60,
        reads_per_client=4,
        writes=16,
        seed=9,
        transport="tcp",
        shards=4,
        keys=8,
        key_skew=0.8,
    )
    print(f"4 shards x 8 zipf-skewed keys, {spec.clients} clients, "
          f"forgers + drops + churn, wall-clock deadlines\n")
    report = run_service_load(spec)
    print(render_serve(report))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--transport",
        default="inproc",
        choices=("inproc", "tcp"),
        help="run the acts over simulated in-process messaging (default) "
        "or real localhost TCP sockets",
    )
    args = parser.parse_args()
    if args.transport == "tcp":
        asyncio.run(act_one_tcp())
        act_two_tcp_sharded_load()
        print("\n(simulated-time guarantees - deterministic seeds, exact "
              "deadline accounting - hold in-process; over TCP the deadlines "
              "are wall-clock and only the protocol's guarantees persist: "
              "zero fabricated reads accepted)")
        return
    asyncio.run(act_one_healthy())
    asyncio.run(act_two_crashes())
    asyncio.run(act_three_lock())
    act_four_soak()
    # The masking read is what kept the forgery out; show the contrast.
    print("\n(for contrast: a forged pair carries "
          f"{Timestamp.forged_maximum()!r}, outranking every honest write — "
          "only the >=k vote rule, not the timestamp order, rejects it)")


if __name__ == "__main__":
    main()
