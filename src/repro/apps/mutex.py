"""Quorum locks over the live service layer.

:class:`AsyncQuorumMutex` is the service twin of
:class:`~repro.protocol.lock.QuorumLock`: a thin driver sending the
protocol of :mod:`repro.protocol.arbiter` to the arbiters the replica nodes
host, through :class:`~repro.service.client.AsyncQuorumClient` RPCs, in
process or over TCP.  Its :meth:`~AsyncQuorumMutex.acquire` waits in the
arbiters' queues; exclusion is the arbiter's ε, 0 on the example shape that
``tests/apps/test_lock_double_grant.py`` replays.

:func:`run_lock_load` is the matching load harness: ``clients`` contenders
acquire/hold/release over shared lock names under live crash churn, on
whatever deployment its :class:`LockLoadSpec` (a
:class:`~repro.service.sharding.DeploymentSpec`) describes, and the
report carries throughput, wait-time percentiles, a Jain fairness index,
a starvation count and two safety counters: ``double_grants`` (a grant
while another client holds the same lock; every holder reads
:meth:`AsyncQuorumMutex.holder` before letting go, so the window spans at
least a quorum round) and ``fabricated_records`` (holder claims the read
rule accepted that name no lock client).
"""

from __future__ import annotations

import asyncio
import random
import time

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import ConfigurationError, ProtocolError, QuorumUnavailableError
from repro.protocol.arbiter import (  # noqa: F401 - lock_variable is re-exported
    HOLDER,
    REQUEST,
    YIELD,
    LockAttempt,
    LockClient,
    LockOp,
    lock_variable,
)
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.selection import ReadRule
from repro.rngs import fresh_rng
from repro.service.client import AsyncQuorumClient
from repro.service.cluster import deploy
from repro.service.load import (
    FaultInjectionSpec,
    _percentile,
    inject_faults,
    refuse_remote_churn,
)
from repro.service.sharding import DeploymentSpec
from repro.simulation.scenario import ScenarioSpec
from repro.types import ServerId


class AsyncQuorumMutex(LockClient):
    """One client's handle on a named distributed lock.

    ``client`` carries the lock messages; ``client_id`` is this client's
    identity at the arbiters (contending handles need distinct ids);
    :meth:`holder` reads through ``rule``, under which requests are signed;
    ``rng`` draws this handle's quorums.
    """

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str,
        client_id: int,
        rule: ReadRule = ReadRule(),
        rng: Optional[random.Random] = None,
    ) -> None:
        if client_id < 0:
            raise ProtocolError("client ids must be non-negative")
        super().__init__(name, rule)
        self.client = client
        self.client_id = int(client_id)
        self.rng = rng or fresh_rng()
        self._held: Optional[LockOp] = None
        #: Request rounds sent, and the grants they ended in.
        self.requests = 0
        self.grants = 0

    @property
    def held(self) -> bool:
        """Whether this client currently holds the lock."""
        return self._held is not None

    async def _run(self, rounds: Iterable[Tuple[QuorumOp, tuple]]) -> None:
        """Run each ``(op, message)`` in turn; a sampled trace is tagged
        with the message kind."""
        for op, message in rounds:
            self.requests += message[0] == REQUEST
            trace = await self.client.run(op, "lock", message[1], message)
            if trace is not None:
                trace.context = {"lock": self.name, "step": message[0]}

    async def holder(self) -> Any:
        """The client a fresh quorum of arbiters reports as holding the lock."""
        system = self.client.system
        op = QuorumOp(system.sample_quorum(self.rng), system, self.client.rng, repair=True)
        await self._run([(op, (HOLDER, self.variable))])
        return self.holder_of(op.replies)

    def _begin(self) -> LockOp:
        if self._held is not None:
            raise ProtocolError(f"client {self.client_id} already holds lock {self.name!r}")
        return self.begin(self.client_id, self.client.system.sample_quorum(self.rng))

    async def _try(self, lock: LockOp) -> bool:
        """One try; whether it ended in the lock."""
        await self._run(self.try_rounds(lock, self.client.system, self.client.rng))
        if lock.held:
            self._held = lock
            self.grants += 1
        return lock.held

    async def _release(self, lock: LockOp) -> FrozenSet[ServerId]:
        await self._run(self.release_rounds(lock))
        return frozenset(lock.unreleased)

    async def request(self) -> LockAttempt:
        """One try: granted when the whole quorum grants at once.  A refused
        try releases whatever it was granted, leaving no state behind."""
        lock = self._begin()
        if not await self._try(lock):
            await self._release(lock)
        return lock.attempt(self.name)

    async def acquire(
        self, retry_interval: float = 0.001, max_requests: Optional[int] = None
    ) -> LockAttempt:
        """Wait in the arbiters' queues until a whole quorum grants.

        Tries again every ``retry_interval`` seconds, yielding the grants
        its replies flag.  After ``max_requests`` refused request rounds
        (``None`` waits forever) it releases everything and raises
        :class:`ProtocolError`.
        """
        lock = self._begin()
        first = self.requests
        while not await self._try(lock):
            if max_requests is not None and self.requests - first >= max_requests:
                await self._release(lock)
                raise ProtocolError(
                    f"client {self.client_id} gave up on lock {self.name!r} "
                    f"after {self.requests - first} refused requests"
                )
            if lock.inquired:
                await self._run([(QuorumOp(sorted(lock.inquired)), self.message(lock, YIELD))])
            await asyncio.sleep(retry_interval)
        return lock.attempt(self.name)

    async def release(self) -> FrozenSet[ServerId]:
        """Release the held lock; return the arbiters that never acknowledged.
        :class:`QuorumUnavailableError` when none did."""
        lock, self._held = self._held, None
        if lock is None:
            raise ProtocolError(f"client {self.client_id} does not hold lock {self.name!r}")
        unreleased = await self._release(lock)
        if unreleased == lock.contacted:
            raise QuorumUnavailableError(f"release of lock {self.name!r}: no arbiter answered")
        return unreleased


def mutex_for(
    spec: ScenarioSpec,
    client: Any,
    name: str = "lock",
    client_id: int = 0,
    rng: Optional[random.Random] = None,
) -> AsyncQuorumMutex:
    """A lock handle on ``client`` (a per-client
    :class:`~repro.service.client.AsyncQuorumClient`) reading through the
    scenario's :meth:`~repro.simulation.scenario.ScenarioSpec.read_rule`."""
    return AsyncQuorumMutex(client, name, client_id, rule=spec.read_rule(), rng=rng)


# -- the lock load harness --------------------------------------------------------


@dataclass(frozen=True)
class LockLoadSpec(DeploymentSpec):
    """One lock-service load experiment: a deployment plus its contenders.

    ``clients`` contenders each perform ``acquisitions_per_client``
    acquire → hold → release cycles over ``locks`` shared lock names
    (round-robin per attempt), with live crash churn from
    ``fault_injection`` on top of the scenario's static failures — the
    lock-service analogue of :class:`~repro.service.load.ServiceLoadSpec`.
    Every deployment field is :class:`~repro.service.sharding.DeploymentSpec`'s
    and is honoured (``seed`` defaults to 0 here): each lock lives on the
    shard owning its variable, and live churn is refused with
    ``processes > 0``.
    """

    clients: int = 8
    acquisitions_per_client: int = 3
    locks: int = 1
    hold_time: float = 0.0
    retry_interval: float = 0.001
    #: Rounds before giving up.  A waiting round costs one ``retry_interval``,
    #: a fifth of the register lock's jittered pause, which had 400; under
    #: fast crash churn 400 rounds run out before the lock comes free.
    max_requests: int = 2000
    fault_injection: FaultInjectionSpec = field(default_factory=FaultInjectionSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.clients}")
        if self.acquisitions_per_client < 1:
            raise ConfigurationError(
                f"each client needs at least one acquisition, "
                f"got {self.acquisitions_per_client}"
            )
        if self.locks < 1:
            raise ConfigurationError(f"need at least one lock, got {self.locks}")
        if self.hold_time < 0.0:
            raise ConfigurationError(f"the hold time must be non-negative, got {self.hold_time}")
        if self.retry_interval <= 0.0:
            raise ConfigurationError(
                f"the retry interval must be positive, got {self.retry_interval}"
            )
        if self.max_requests < 1:
            raise ConfigurationError(
                f"need at least one request per acquisition, got {self.max_requests}"
            )
        refuse_remote_churn(self)

    def lock_names(self) -> List[str]:
        """The shared lock names the contenders cycle over."""
        if self.locks == 1:
            return ["lock"]
        return [f"lock{index}" for index in range(self.locks)]

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"LockLoadSpec({self.scenario.describe()}, clients={self.clients}, "
            f"acquisitions/client={self.acquisitions_per_client}, "
            f"locks={self.locks}, transport={self.transport}, "
            + (f"shards={self.shards}, " if self.shards > 1 else "")
            + (f"processes={self.processes}, " if self.processes else "")
            + f"injected_crashes={self.fault_injection.crash_count})"
        )


def jain_fairness(counts: List[int]) -> float:
    """Jain's fairness index over per-client grant counts (1.0 = perfectly fair)."""
    total = sum(counts)
    if total == 0:
        return 1.0
    squares = sum(count * count for count in counts)
    return (total * total) / (len(counts) * squares)


@dataclass
class LockLoadReport:
    """What the lock harness measured: liveness, fairness and safety."""

    spec: LockLoadSpec
    elapsed: float
    grants: int
    releases: int
    refused_requests: int
    give_ups: int
    rpc_failures: int
    #: Simultaneous grants on one lock name, incremented whenever a grant
    #: lands while another client's grant on the same lock is unreleased.
    double_grants: int
    #: Holder claims the read rule accepted that name no lock client
    #: (fabricated grants).  The CI coordination-safety gate pins this at 0.
    fabricated_records: int
    wait_times: List[float]
    grants_per_client: List[int]
    injected_crashes: int
    #: Grants per shard, in shard order: a lock lives on the shard its
    #: variable routes to, so a few lock names can leave a shard idle.
    shard_grants: List[int] = field(default_factory=list)
    #: Sampled lock-step traces (empty unless ``spec.trace_sample > 0``).
    traces: List[dict] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Granted acquisitions per wall-clock second."""
        return self.grants / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def fairness(self) -> float:
        """Jain's index over per-client grants (1.0 = perfectly fair)."""
        return jain_fairness(self.grants_per_client)

    @property
    def starved_clients(self) -> int:
        """Clients that finished the run without a single grant."""
        return sum(1 for count in self.grants_per_client if count == 0)

    def render(self) -> str:
        """Plain-text report block."""
        waits = sorted(self.wait_times)
        per_shard = []
        if len(self.shard_grants) > 1:
            idle = [f"s{index}" for index, grants in enumerate(self.shard_grants) if not grants]
            per_shard.append(
                "  per-shard grants  "
                + "  ".join(f"s{index}={grants}" for index, grants in enumerate(self.shard_grants))
                + (f"  (idle: {', '.join(idle)})" if idle else "")
            )
        return "\n".join(
            [
                "Lock service report",
                f"  {self.spec.describe()}",
                f"  elapsed           {self.elapsed:.3f} s",
                f"  grants            {self.grants} "
                f"({self.throughput:,.0f} grants/s), {self.releases} releases",
                *per_shard,
                "  wait time         "
                + "  ".join(
                    f"p{int(fraction * 100)}={_percentile(waits, fraction) * 1e3:.2f}ms"
                    for fraction in (0.50, 0.90, 0.99)
                ),
                f"  contention        {self.refused_requests} refused requests, "
                f"{self.give_ups} give-ups, {self.rpc_failures} rpc failures",
                f"  fairness          Jain={self.fairness:.3f}, "
                f"{self.starved_clients} starved clients",
                f"  safety violations {self.double_grants} double grants, "
                f"{self.fabricated_records} fabricated records",
                f"  resilience        {self.injected_crashes} live crashes injected",
            ]
        )


async def lock_load(spec: LockLoadSpec) -> LockLoadReport:
    """Run one lock-service load experiment on the current event loop."""
    rng = random.Random(spec.seed)
    scenario = spec.scenario
    deployment = deploy(spec, rng)
    try:
        await deployment.start()
        names = spec.lock_names()
        # A lock lives where its variable routes, as with Deployment.lock_client.
        shard_of = {name: deployment.shard_for(lock_variable(name)) for name in names}
        client_ids = [scenario.writer_id + index for index in range(spec.clients)]
        mutexes: List[Dict[str, AsyncQuorumMutex]] = []
        for client_id in client_ids:
            clients = [
                deployment.client_for_shard(shard, rng=random.Random(rng.randrange(2**63)))
                for shard in range(deployment.shard_count)
            ]
            mutexes.append({
                name: mutex_for(
                    scenario,
                    clients[shard_of[name]],
                    name,
                    client_id,
                    random.Random(rng.randrange(2**63)),
                )
                for name in names
            })

        # -- shared safety accounting: who holds what, right now ------------------
        holders: Dict[str, set] = {name: set() for name in names}
        counters = {
            "grants": 0,
            "releases": 0,
            "give_ups": 0,
            "rpc_failures": 0,
            "double_grants": 0,
            "fabricated": 0,
            "injected": 0,
        }
        wait_times: List[float] = []
        grants_per_client = [0] * spec.clients
        shard_grants = [0] * deployment.shard_count

        async def run_client(client_index: int) -> None:
            for round_index in range(spec.acquisitions_per_client):
                name = names[(client_index + round_index) % len(names)]
                mutex = mutexes[client_index][name]
                started = time.perf_counter()
                try:
                    await mutex.acquire(
                        retry_interval=spec.retry_interval,
                        max_requests=spec.max_requests,
                    )
                except ProtocolError:
                    counters["give_ups"] += 1
                    continue
                wait_times.append(time.perf_counter() - started)
                if holders[name]:
                    counters["double_grants"] += 1
                holders[name].add(client_index)
                counters["grants"] += 1
                grants_per_client[client_index] += 1
                shard_grants[shard_of[name]] += 1
                claim = await mutex.holder()
                if claim is not None and claim not in client_ids:
                    counters["fabricated"] += 1
                if spec.hold_time:
                    await asyncio.sleep(spec.hold_time)
                # The exclusion window ends when the holder *decides* to
                # release: a competitor granted while the release is in
                # flight saw an issued release, not a simultaneous hold.
                holders[name].discard(client_index)
                try:
                    await mutex.release()
                except QuorumUnavailableError:
                    counters["rpc_failures"] += 1
                finally:
                    counters["releases"] += 1

        injector = asyncio.ensure_future(
            inject_faults(deployment, spec.fault_injection, rng, counters)
        )
        started = time.perf_counter()
        try:
            await asyncio.gather(
                *(run_client(index) for index in range(spec.clients))
            )
        finally:
            injector.cancel()
            try:
                await injector
            except asyncio.CancelledError:
                pass
        elapsed = time.perf_counter() - started

        return LockLoadReport(
            spec=spec,
            elapsed=elapsed,
            grants=counters["grants"],
            releases=counters["releases"],
            refused_requests=sum(
                mutex.requests - mutex.grants for each in mutexes for mutex in each.values()
            ),
            give_ups=counters["give_ups"],
            rpc_failures=counters["rpc_failures"],
            double_grants=counters["double_grants"],
            fabricated_records=counters["fabricated"],
            wait_times=wait_times,
            grants_per_client=grants_per_client,
            injected_crashes=counters["injected"],
            shard_grants=shard_grants,
            traces=[] if deployment.tracer is None else deployment.tracer.to_dicts(),
        )
    finally:
        await deployment.aclose()


def run_lock_load(spec: LockLoadSpec) -> LockLoadReport:
    """Run one lock-service load experiment (sync entry point)."""
    return asyncio.run(lock_load(spec))
