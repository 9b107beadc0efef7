"""Quorum-backed distributed locks over the live service layer.

:mod:`repro.protocol.lock` builds the paper's §1.1 lock directly on a
simulated :class:`~repro.simulation.cluster.Cluster`; this module is the
same protocol *as a service*: lock clients speak REQUEST / GRANT / RELEASE
through :class:`~repro.service.client.AsyncQuorumClient` RPCs against a
:class:`~repro.service.sharding.ShardedDeployment` — in-process or over
TCP — with the register frontend of the scenario's protocol (plain, signed
dissemination, or masking-threshold) carrying the lock records.

The lock variable is an ordinary replicated register holding
``{"state": "held" | "released", "holder": client_id}`` records; highest
timestamp wins through the shared selection rule, with client ids breaking
ties exactly as concurrent register writers do.  Two refinements guard
the advisory lock:

* **Release-staleness fencing** (shared with the simulation lock): a held
  record older than a release this client *knows* about — from its own
  release or one observed at any read quorum — is provably superseded and
  never reported as a live holder, however lagging the read quorum.
* **Verify-after-write**: after writing its held record, an acquirer
  re-reads with a *fresh* quorum and backs off if a competing newer held
  record is visible.

These do not make the lock exclusive.  A replica keeps one record per
variable, so other clients' newer records (a back-off "released" record,
the next acquirer's "held" write) overwrite a holder's record while it
holds, until fewer than ``k`` replicas vouch for it and a second client is
granted.  ``tests/apps/test_lock_double_grant.py`` reproduces this as a
seeded run on the ε = 0 example shape (a strict xfail).

:func:`run_lock_load` is the matching load harness: ``clients`` contenders
acquire/hold/release over shared lock names under live crash churn, and the
report carries throughput, wait-time percentiles, a Jain fairness index over
per-client grants and a starvation count — plus the ``double_grants``
safety counter.  A holder counts only while it holds across an ``await``:
with ``hold_time=0`` it is added and discarded in one step, so the counter
cannot be nonzero.
"""

from __future__ import annotations

import asyncio
import random
import time

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ConfigurationError, ProtocolError, QuorumUnavailableError
from repro.protocol.timestamps import Timestamp
from repro.rngs import fresh_rng
from repro.protocol.variable import ReadOutcome
from repro.service.cluster import deploy
from repro.service.load import FaultInjectionSpec, _percentile, inject_faults
from repro.service.register import AsyncRegister, async_register_for
from repro.service.sharding import check_deadline, validate_deployment
from repro.simulation.scenario import ScenarioSpec

#: Independent verify reads after the held-record write.  When two clients
#: grab a *free* lock simultaneously, these reads are the only guard: the
#: later writer double-holds only if every read misses the earlier record,
#: so each read multiplies the double-grant probability by the per-read
#: visibility miss rate (ε, or the masking threshold's under-``k``-votes
#: probability — the dominant term for small quorums).
VERIFY_ROUNDS = 2


def lock_variable(name: str) -> str:
    """The register key a lock's records live under."""
    return f"quorum-lock:{name}"


@dataclass(frozen=True)
class LockAttempt:
    """One REQUEST round-trip: what the client saw and whether it was granted."""

    lock_name: str
    client_id: int
    granted: bool
    holder_seen: Optional[int]
    #: The granted record's timestamp (``None`` when not granted).
    timestamp: Optional[Timestamp]
    #: True when the grant was withdrawn by the verify read (a competing
    #: newer holder became visible after our write).
    backed_off: bool = False


class AsyncQuorumMutex:
    """One client's handle on a named distributed lock.

    Parameters
    ----------
    register:
        The register frontend carrying this lock's records.  Must write
        under this client's own writer identity — concurrent acquirers with
        one shared id would alias each other's timestamps.
    name:
        The lock name (many locks can share a deployment).
    client_id:
        This client's identity in lock records *and* timestamp tie-breaks.
    verify_delay:
        Wall-clock pause before each of the :data:`VERIFY_ROUNDS` verify
        reads (default 0: a bare event-loop yield).  On a single event
        loop the yield suffices — a
        competitor's in-flight write is fully applied by the servers
        during any ``await``.  Across *real process boundaries*
        (:class:`~repro.service.cluster.ClusterDeployment`) it does not:
        the competitor's newer write can land *after* our verify reads
        returned but *before* its own verify read, where it has already
        overwritten our record on its write quorum and sees nothing to
        concede to.  A delay exceeding the in-flight write landing time
        (a few localhost RTTs) closes that window: the earlier writer's
        last verify then always starts after the later writer's racing
        write has landed, so one of the two must concede.
    rng:
        Randomness for the retry jitter (a fresh generator by default;
        harnesses pass seeded ones for reproducibility).
    """

    def __init__(
        self,
        register: AsyncRegister,
        name: str,
        client_id: int,
        verify_delay: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if client_id < 0:
            raise ProtocolError("client ids must be non-negative")
        if not name:
            raise ConfigurationError("lock names must be non-empty")
        if verify_delay < 0.0:
            raise ConfigurationError(
                f"verify_delay must be non-negative, got {verify_delay}"
            )
        self.register = register
        self.name = str(name)
        self.client_id = int(client_id)
        self.verify_delay = float(verify_delay)
        self.rng = rng or fresh_rng()
        self._held: Optional[Timestamp] = None
        # Per-holder release fence: the newest released record known from
        # each client, fencing only *that client's* older held records.  A
        # release provably supersedes the same holder's earlier grant; it
        # says nothing about another client's record, so a global fence
        # could annul a live holder this client simply hadn't seen yet.
        self._release_fence: Dict[int, Timestamp] = {}
        self.requests = 0
        self.grants = 0
        self.releases = 0
        self.back_offs = 0
        #: Credible records that are not lock records at all.  Honest
        #: clients only ever write held/released dicts, so on a Byzantine
        #: deployment every alien record is a fabricated value that made it
        #: past the register frontend — the coordination-safety gate pins
        #: this at zero.
        self.alien_records = 0

    # -- record interpretation ----------------------------------------------------

    def _fence(self, holder: int, timestamp: Timestamp) -> None:
        current = self._release_fence.get(holder)
        if current is None or current < timestamp:
            self._release_fence[holder] = timestamp

    def _note_records(self, records: List[Any]) -> None:
        """Lamport bookkeeping for one read: clock + release fencing."""
        for record in records:
            if not isinstance(record.timestamp, Timestamp):
                continue
            self.register.observe_timestamp(record.timestamp)
            value = record.value
            if value is not None and not (
                isinstance(value, dict)
                and value.get("state") in ("held", "released")
            ):
                self.alien_records += 1
                continue
            if isinstance(value, dict) and value.get("state") == "released":
                try:
                    holder = int(value["holder"])
                except (KeyError, TypeError, ValueError):
                    continue
                self._fence(holder, record.timestamp)

    def _live_holders(self, records: List[Any]) -> List[int]:
        """Every holder the credible records evidence, after release fencing."""
        holders = []
        for record in records:
            value = record.value
            if not isinstance(value, dict) or value.get("state") != "held":
                continue
            if not isinstance(record.timestamp, Timestamp):
                continue  # unforgeable honest order is what the fence compares
            try:
                holder = int(value["holder"])
            except (KeyError, TypeError, ValueError):
                continue
            fence = self._release_fence.get(holder)
            if fence is not None and record.timestamp < fence:
                continue  # provably superseded by that holder's own release
            holders.append(holder)
        return holders

    @property
    def held(self) -> bool:
        """Whether this client currently believes it holds the lock."""
        return self._held is not None

    def _tag_trace(self, step: str) -> None:
        """Label the last sampled quorum trace with the protocol step.

        Each lock operation is carried by a register read or write; when the
        client samples traces, tagging the trace with the lock round it
        served (``request-scan``, ``hold-write``, ``verify``, ``back-off``,
        ``release``, ``holder-read``) lets a trace dump reconstruct the
        REQUEST/RELEASE state machine, not just the register traffic.
        """
        trace = self.register.last_trace
        if trace is not None:
            trace.context = {"lock": self.name, "step": step}

    # -- operations ---------------------------------------------------------------

    async def holder(self) -> Optional[int]:
        """The client a fresh quorum read believes holds the lock.

        With contending acquirers mid-flight more than one live held record
        can be visible; the highest-ranked one is the holder every reader's
        selection rule would prefer, so that is the answer.
        """
        outcome = await self.register.read()
        self._tag_trace("holder-read")
        self._note_records(
            [outcome] if isinstance(outcome.timestamp, Timestamp) else []
        )
        holders = self._live_holders(
            [outcome] if isinstance(outcome.timestamp, Timestamp) else []
        )
        return holders[0] if holders else None

    async def request(self) -> LockAttempt:
        """One REQUEST: read for live holders, write a held record, verify."""
        if self._held is not None:
            raise ProtocolError(
                f"client {self.client_id} already holds lock {self.name!r}"
            )
        self.requests += 1
        records = await self.register.read_credible()
        self._tag_trace("request-scan")
        self._note_records(records)
        competitors = [
            holder
            for holder in self._live_holders(records)
            if holder != self.client_id
        ]
        if competitors:
            return LockAttempt(
                lock_name=self.name,
                client_id=self.client_id,
                granted=False,
                holder_seen=competitors[0],
                timestamp=None,
            )
        written = await self.register.write(
            {"state": "held", "holder": self.client_id}
        )
        self._tag_trace("hold-write")
        for _ in range(VERIFY_ROUNDS):
            # Yield (or wait verify_delay) so a competitor's concurrent
            # write RPCs can land before this verify quorum is read — the
            # check should race as little as possible.  Cross-process
            # deployments need the real delay; see the class docstring.
            await asyncio.sleep(self.verify_delay)
            check = await self.register.read_credible()
            self._tag_trace("verify")
            self._note_records(check)
            competitors = [
                holder
                for holder in self._live_holders(check)
                if holder != self.client_id
            ]
            if competitors:
                # Any competing held record — newer (it outranks ours) or
                # older (its writer may not have seen ours and may believe
                # it holds) — means concede rather than risk a double hold
                # (this does not exclude one: see the module docstring).
                # Conceding annuls our own record with a released write (fencing only
                # *our* grants, never the competitor's), so a backed-off
                # record cannot linger as a phantom holder blocking others.
                self.back_offs += 1
                annulment = await self.register.write(
                    {"state": "released", "holder": self.client_id}
                )
                self._tag_trace("back-off")
                self._fence(self.client_id, annulment.timestamp)
                return LockAttempt(
                    lock_name=self.name,
                    client_id=self.client_id,
                    granted=False,
                    holder_seen=competitors[0],
                    timestamp=None,
                    backed_off=True,
                )
        self._held = written.timestamp
        self.grants += 1
        return LockAttempt(
            lock_name=self.name,
            client_id=self.client_id,
            granted=True,
            holder_seen=None,
            timestamp=written.timestamp,
        )

    async def acquire(
        self,
        retry_interval: float = 0.001,
        max_requests: Optional[int] = None,
    ) -> LockAttempt:
        """REQUEST until granted (advisory spin with an event-loop pause).

        The pause between refused requests is jittered (up to 8× the base
        interval, growing with the attempt count) so symmetric contenders
        that conceded to each other do not retry in lockstep forever.
        Raises :class:`ProtocolError` after ``max_requests`` refused
        attempts (``None`` retries forever).
        """
        attempts = 0
        while True:
            attempt = await self.request()
            if attempt.granted:
                return attempt
            attempts += 1
            if max_requests is not None and attempts >= max_requests:
                raise ProtocolError(
                    f"client {self.client_id} gave up on lock {self.name!r} "
                    f"after {attempts} refused requests"
                )
            await asyncio.sleep(
                retry_interval * (1.0 + self.rng.random() * min(attempts, 8))
            )

    async def release(self) -> None:
        """RELEASE the held lock (a newer-timestamped released record)."""
        if self._held is None:
            raise ProtocolError(
                f"client {self.client_id} does not hold lock {self.name!r}"
            )
        written = await self.register.write(
            {"state": "released", "holder": self.client_id}
        )
        self._tag_trace("release")
        self._fence(self.client_id, written.timestamp)
        self._held = None
        self.releases += 1


def mutex_for(
    spec: ScenarioSpec,
    client: Any,
    name: str = "lock",
    client_id: int = 0,
    verify_delay: float = 0.0,
    rng: Optional[random.Random] = None,
) -> AsyncQuorumMutex:
    """Build a lock handle with the scenario's register protocol.

    ``client`` is a per-client :class:`~repro.service.client.AsyncQuorumClient`;
    the lock's records are carried by the frontend
    :func:`~repro.service.register.async_register_for` resolves (signed in
    dissemination mode, ``k``-vouched in masking mode), writing under
    ``client_id`` as the writer identity.
    """
    register = async_register_for(
        spec, client, name=lock_variable(name), writer_id=client_id
    )
    return AsyncQuorumMutex(
        register, name, client_id, verify_delay=verify_delay, rng=rng
    )


# -- the lock load harness --------------------------------------------------------


@dataclass(frozen=True)
class LockLoadSpec:
    """One lock-service load experiment, described declaratively.

    ``clients`` contenders each perform ``acquisitions_per_client``
    acquire → hold → release cycles over ``locks`` shared lock names
    (round-robin per attempt), with live crash churn from
    ``fault_injection`` on top of the scenario's static failures — the
    lock-service analogue of
    :class:`~repro.service.load.ServiceLoadSpec`, sharing its kwarg
    spellings (``deadline``, ``seed``) and its deployment checks.
    """

    scenario: ScenarioSpec
    clients: int = 8
    acquisitions_per_client: int = 3
    locks: int = 1
    hold_time: float = 0.0
    retry_interval: float = 0.001
    max_requests: int = 400
    latency: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    deadline: Optional[float] = 0.05
    fault_injection: FaultInjectionSpec = field(default_factory=FaultInjectionSpec)
    transport: str = "inproc"
    seed: int = 0

    def __post_init__(self) -> None:
        # One shard, the default codec, the scenario's own anti-entropy:
        # what lock_load deploys.
        validate_deployment(
            self.scenario, 1, self.transport, "json", None,
            self.latency, self.jitter, self.drop_probability,
        )
        check_deadline(self.transport, self.deadline)
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
            raise ConfigurationError(
                f"the hold time must be non-negative, got {self.hold_time}"
            )
        if self.retry_interval <= 0.0:
            raise ConfigurationError(
                f"the retry interval must be positive, got {self.retry_interval}"
            )
        if self.max_requests < 1:
            raise ConfigurationError(
                f"need at least one request per acquisition, got {self.max_requests}"
            )

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
            f"injected_crashes={self.fault_injection.crash_count})"
        )


def jain_fairness(counts: List[int]) -> float:
    """Jain's fairness index over per-client grant counts (1.0 = perfectly fair)."""
    if not counts:
        return 1.0
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
    back_offs: int
    give_ups: int
    rpc_failures: int
    #: Simultaneous grants on one lock name — the harness's safety counter,
    #: incremented whenever a grant lands while another client's grant on
    #: the same lock is still unreleased (never, with ``hold_time=0``).
    double_grants: int
    #: Credible records that were not lock records (fabricated values the
    #: register frontend accepted).  The CI coordination-safety gate pins
    #: this at zero.
    fabricated_records: int
    wait_times: List[float]
    grants_per_client: List[int]
    injected_crashes: int

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

    def wait_time(self, fraction: float) -> float:
        """A grant wait-time percentile in seconds (nearest rank)."""
        return _percentile(sorted(self.wait_times), fraction)

    def render(self) -> str:
        """Plain-text report block."""
        waits = sorted(self.wait_times)
        return "\n".join(
            [
                "Lock service report",
                f"  {self.spec.describe()}",
                f"  elapsed           {self.elapsed:.3f} s",
                f"  grants            {self.grants} "
                f"({self.throughput:,.0f} grants/s), {self.releases} releases",
                "  wait time         "
                + "  ".join(
                    f"p{int(fraction * 100)}={_percentile(waits, fraction) * 1e3:.2f}ms"
                    for fraction in (0.50, 0.90, 0.99)
                ),
                f"  contention        {self.refused_requests} refused requests, "
                f"{self.back_offs} verify back-offs, {self.give_ups} give-ups, "
                f"{self.rpc_failures} rpc failures",
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
    deployment = deploy(
        scenario,
        transport=spec.transport,
        shards=1,
        latency=spec.latency,
        jitter=spec.jitter,
        drop_probability=spec.drop_probability,
        rng=rng,
    )
    try:
        await deployment.start()
        names = spec.lock_names()
        mutexes: List[Dict[str, AsyncQuorumMutex]] = []
        for client_id in range(spec.clients):
            client = deployment.client_for_shard(
                0,
                rng=random.Random(rng.randrange(2**63)),
                deadline=spec.deadline,
            )
            mutexes.append(
                {
                    name: mutex_for(
                        scenario,
                        client,
                        name=name,
                        client_id=scenario.writer_id + client_id,
                        rng=random.Random(rng.randrange(2**63)),
                    )
                    for name in names
                }
            )

        # -- shared safety accounting: who holds what, right now ------------------
        holders: Dict[str, set] = {name: set() for name in names}
        counters = {
            "grants": 0,
            "releases": 0,
            "give_ups": 0,
            "rpc_failures": 0,
            "double_grants": 0,
            "injected": 0,
        }
        wait_times: List[float] = []
        grants_per_client = [0] * spec.clients

        async def run_client(client_index: int) -> None:
            for round_index in range(spec.acquisitions_per_client):
                name = names[(client_index + round_index) % len(names)]
                mutex = mutexes[client_index][name]
                started = time.perf_counter()
                try:
                    attempt = await mutex.acquire(
                        retry_interval=spec.retry_interval,
                        max_requests=spec.max_requests,
                    )
                except ProtocolError:
                    counters["give_ups"] += 1
                    continue
                except QuorumUnavailableError:
                    counters["rpc_failures"] += 1
                    continue
                wait_times.append(time.perf_counter() - started)
                if holders[name]:
                    counters["double_grants"] += 1
                holders[name].add(client_index)
                counters["grants"] += 1
                grants_per_client[client_index] += 1
                if spec.hold_time:
                    await asyncio.sleep(spec.hold_time)
                # The exclusion window ends when the holder *decides* to
                # release: a competitor granted while the released record's
                # RPCs are in flight saw an issued release, which is not a
                # simultaneous hold.
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

        refused = sum(
            mutex.requests - mutex.grants - mutex.back_offs
            for per_client in mutexes
            for mutex in per_client.values()
        )
        back_offs = sum(
            mutex.back_offs for per_client in mutexes for mutex in per_client.values()
        )
        fabricated = sum(
            mutex.alien_records
            for per_client in mutexes
            for mutex in per_client.values()
        )
        return LockLoadReport(
            spec=spec,
            elapsed=elapsed,
            grants=counters["grants"],
            releases=counters["releases"],
            refused_requests=refused,
            back_offs=back_offs,
            give_ups=counters["give_ups"],
            rpc_failures=counters["rpc_failures"],
            double_grants=counters["double_grants"],
            fabricated_records=fabricated,
            wait_times=wait_times,
            grants_per_client=grants_per_client,
            injected_crashes=counters["injected"],
        )
    finally:
        await deployment.aclose()


def run_lock_load(spec: LockLoadSpec) -> LockLoadReport:
    """Run one lock-service load experiment (sync entry point)."""
    return asyncio.run(lock_load(spec))
