"""Process-per-shard serving: real OS processes behind the sharded client API.

:class:`~repro.service.sharding.ShardedDeployment` hosts every shard's
socket server on the *caller's* event loop — fine for conformance runs, but
the whole deployment then shares one core with the load that drives it.
This module moves each shard into its own OS process; everything on the
client side of the sockets (seed derivation, transports, dispatchers, the
client API) is the shared :class:`~repro.service.sharding.ShardedClientAPI`
spine, unchanged:

* :class:`ShardServerConfig` — the picklable description one shard server
  needs (scenario, sampled failure plan, bind host); it crosses the
  ``multiprocessing`` *spawn* boundary, so child processes never inherit
  the parent's interpreter state.
* :func:`_shard_server_main` — the child entry point: build the replica
  group with its static failure plan, serve one
  :class:`~repro.service.net.TcpServiceServer` until SIGTERM/SIGINT.
* :class:`ClusterDeployment` — spawn one server process per shard, wait
  for the readiness handshake (each child reports its ephemeral port on a
  queue), connect the spine to those addresses, probe shard health, and
  tear everything down without orphans (terminate → join → kill) —
  including when :meth:`~ClusterDeployment.start` itself fails half way.
* :func:`deploy` — the one factory that picks the shape from a process
  count: ``0`` keeps the replica groups on this loop, any positive count
  builds the cluster.

The load itself is always driven from the caller's process, by the one
load driver in :mod:`repro.service.load`, against the cluster's own client
surface: the server processes are a lifecycle and isolation feature, not a
throughput one.  Live fault injection aside (it needs in-process node
objects), the cluster path runs the same scenario semantics as every other
layer — the conformance suite holds its classification rates against the
Monte-Carlo engines and the in-loop services.
"""

from __future__ import annotations

import asyncio
import queue as queue_module
import random
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.net import TcpServiceServer
from repro.service.sharding import (
    ShardedClientAPI,
    ShardedDeployment,
    arm_gossip,
    build_nodes,
)
from repro.simulation.failures import FailurePlan
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: How long :meth:`ClusterDeployment.start` waits for every shard process
#: to report readiness before tearing the partial cluster down.
DEFAULT_START_TIMEOUT = 30.0

#: Patience per process during teardown before escalating SIGTERM → SIGKILL.
_JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ShardServerConfig:
    """Everything one shard server process needs; crosses the spawn boundary."""

    index: int
    scenario: ScenarioSpec
    plan: FailurePlan
    host: str = "127.0.0.1"
    #: A gossiping spec arms a background gossip task next to the server,
    #: its peer-selection stream derived from the shard's transport seed.
    anti_entropy: Optional[AntiEntropySpec] = None
    transport_seed: int = 0


async def _serve_shard(config: ShardServerConfig, ready) -> None:
    nodes = build_nodes(config.scenario.n, config.plan)
    server = TcpServiceServer(nodes, host=config.host)
    address = await server.start()
    gossip = arm_gossip(
        nodes, config.scenario, config.anti_entropy, config.transport_seed
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            signal.signal(signum, lambda *_args: stop.set())
    # The readiness handshake: the parent learns the ephemeral port (and
    # that the interpreter, imports and bind all succeeded) from this one
    # message — only then does it build transports.
    ready.put((config.index, address))
    await stop.wait()
    if gossip is not None:
        await gossip.aclose()
    # Server-side metrics ride the same pipe home at shutdown: put before
    # closing the server (counters are final once stop is signalled) and
    # tagged so the parent's readiness loop can never confuse the shapes.
    labels = {"shard": config.index, "role": "shard-server"}
    ready.put(("metrics", config.index, server.metrics_snapshot(labels)))
    if gossip is not None:
        ready.put(("metrics", config.index, gossip.metrics_snapshot(labels)))
    await server.aclose()


def _shard_server_main(config: ShardServerConfig, ready) -> None:
    """Child-process entry point: serve one shard until told to stop."""
    try:
        asyncio.run(_serve_shard(config, ready))
    except KeyboardInterrupt:  # SIGINT before/while the loop winds down
        pass


class ClusterDeployment(ShardedClientAPI):
    """``shards`` independent replica-group *processes*, routed by key.

    Everything client-facing — per-shard failure plans, transport seeds and
    pool generators sampled from ``rng`` in shard order (so one seed
    describes the same cluster as the in-loop deployment), the TCP client
    wiring, ``client_for_shard`` / ``new_register_client``, the counters —
    is the shared :class:`~repro.service.sharding.ShardedClientAPI`; what
    differs from :class:`~repro.service.sharding.ShardedDeployment` is only
    where the servers live.

    Parameters mirror ``ShardedDeployment`` (transport is always TCP here)
    plus ``codec`` — the wire codec client transports send (the shard
    servers answer in whichever codec a request arrives in).  A gossiping
    ``anti_entropy`` spec (explicit, or inherited from the scenario) arms a
    background gossip task *inside each shard server process*; its counters
    ride the readiness pipe home at shutdown as extra metric snapshots.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        shards: int = 1,
        codec: str = "json",
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        host: str = "127.0.0.1",
        start_timeout: float = DEFAULT_START_TIMEOUT,
        anti_entropy: Optional[AntiEntropySpec] = None,
    ) -> None:
        super().__init__(
            scenario,
            shards,
            "tcp",
            codec=codec,
            latency=latency,
            jitter=jitter,
            drop_probability=drop_probability,
            rng=rng,
            anti_entropy=anti_entropy,
        )
        self._host = host
        self._start_timeout = float(start_timeout)
        self._processes: List[Any] = []
        self._ready_queue: Optional[Any] = None

    # -- lifecycle ----------------------------------------------------------------

    @property
    def processes_alive(self) -> int:
        """Shard server processes currently running."""
        return sum(1 for process in self._processes if process.is_alive())

    @property
    def pids(self) -> List[int]:
        """OS pids of the shard server processes, in shard order."""
        return [process.pid for process in self._processes]

    def process_health(self) -> List[bool]:
        """Liveness of each shard's server process, in shard order."""
        return [process.is_alive() for process in self._processes]

    async def start(self) -> None:
        """Spawn the shard servers, await every readiness report, connect.

        Any failure on the way — a child dying, the readiness timeout, a
        client-side connect error — reaps every process already spawned
        before it propagates.
        """
        if self._started:
            return
        # Imported where processes are spawned, not with the module: every
        # deployment shape imports this module, and merely having it loaded
        # measured ~2.5 % on the in-loop `tcp-read` benchmark.
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        self._ready_queue = context.Queue()
        try:
            for shard in self.shards:
                config = ShardServerConfig(
                    index=shard.index,
                    scenario=self.scenario,
                    plan=shard.plan,
                    host=self._host,
                    anti_entropy=self.anti_entropy,
                    transport_seed=shard.transport_seed,
                )
                process = context.Process(
                    target=_shard_server_main,
                    args=(config, self._ready_queue),
                    name=f"repro-shard-{shard.index}",
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
            addresses = await self._await_ready()
            await self._connect([addresses[shard.index] for shard in self.shards])
        except BaseException:
            await self.aclose()
            raise

    async def _await_ready(self) -> Dict[int, Tuple[str, int]]:
        loop = asyncio.get_running_loop()
        addresses: Dict[int, Tuple[str, int]] = {}
        deadline = time.monotonic() + self._start_timeout
        while len(addresses) < len(self.shards):
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {self._start_timeout}s waiting for "
                    f"{len(self.shards) - len(addresses)} shard server(s) to start"
                )
            for index, process in enumerate(self._processes):
                # A child that died before reporting will never report.
                if process.exitcode is not None and index not in addresses:
                    raise ServiceError(
                        f"shard server {process.name} exited with code "
                        f"{process.exitcode} before reporting readiness"
                    )
            try:
                index, address = await loop.run_in_executor(
                    None, self._ready_queue.get, True, 0.25
                )
            except queue_module.Empty:
                continue
            addresses[index] = address
        return addresses

    async def aclose(self) -> None:
        """Close transports and reap every shard process (idempotent).

        Escalates per process: SIGTERM (the child closes its server and
        exits its loop), then SIGKILL after :data:`_JOIN_TIMEOUT`.  After
        this returns no child of the deployment is left running.
        """
        await super().aclose()
        loop = asyncio.get_running_loop()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            await loop.run_in_executor(None, process.join, _JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - SIGTERM is normally enough
                process.kill()
                await loop.run_in_executor(None, process.join, _JOIN_TIMEOUT)
        for process in self._processes:
            try:
                process.close()
            except ValueError:  # pragma: no cover - still-running after SIGKILL
                pass
        self._processes = []
        if self._ready_queue is not None:
            # Every child reported its server metrics on this pipe right
            # after SIGTERM; with all processes joined, whatever is queued
            # is all there will ever be.
            while True:
                try:
                    message = self._ready_queue.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
                if (
                    isinstance(message, tuple)
                    and len(message) == 3
                    and message[0] == "metrics"
                ):
                    self.server_metrics.append(message[2])
            self._ready_queue.close()
            self._ready_queue.cancel_join_thread()
            self._ready_queue = None

    # -- health -------------------------------------------------------------------

    async def probe(self, timeout: float = 1.0) -> List[bool]:
        """Ping one correct replica per shard; ``True`` where the shard serves.

        Complements :meth:`process_health` (a live process whose server
        wedged still fails the probe).  Probes a replica the failure plan
        left correct — a statically crashed replica is *supposed* to stay
        silent and would fail the probe of a perfectly healthy shard.
        """
        results = []
        for shard in self.shards:
            target = next(
                (
                    node
                    for node in shard.client_nodes
                    if node.server_id not in shard.plan.faulty_servers
                ),
                shard.client_nodes[0],
            )
            try:
                reply = await shard.transport.call(target, "ping", timeout=timeout)
                results.append(isinstance(reply, tuple) and reply[0] == "ok")
            except Exception:
                results.append(False)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ClusterDeployment({self.scenario.describe()}, "
            f"shards={len(self.shards)}, codec={self.codec!r}, "
            f"alive={self.processes_alive})"
        )


def deploy(
    scenario: ScenarioSpec,
    processes: int = 0,
    transport: str = "inproc",
    **options: Any,
) -> ShardedClientAPI:
    """Where the replica groups run, decided once for every caller.

    ``processes == 0`` hosts them on the caller's event loop
    (:class:`~repro.service.sharding.ShardedDeployment`); ``processes > 0``
    gives every shard its own server process (:class:`ClusterDeployment`,
    always over TCP — ``transport`` describes the in-loop shape only).
    ``options`` are what the two shapes share: ``shards``, ``codec``,
    ``latency``, ``jitter``, ``drop_probability``, ``rng``,
    ``anti_entropy`` and the bind address ``host``.
    """
    if processes > 0:
        return ClusterDeployment(scenario, **options)
    return ShardedDeployment(scenario, transport=transport, **options)
