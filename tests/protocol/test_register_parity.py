"""Seeded parity pins for the register layer and the lock built on it.

Each case runs one seeded call end to end and hashes its output:

* the read outcomes of a sequential register and of an async register
  frontend, for every register kind (plain, dissemination, masking, a plain
  reader forced onto a masking system, write-back) under crashing, forging
  and timestamp-tying servers.  Only the outcome fields every reader of
  the kind has always reported are hashed: ``value``, ``timestamp``,
  ``quorum``, ``reporting_servers`` and ``replies``, plus ``votes`` and
  ``threshold`` for the masking kind;
* the counters of a seeded lock load (:func:`repro.apps.mutex.lock_load`)
  under rolling crash injection, for the plain, dissemination and masking
  scenarios — the lock's arbiters and its holder reads through the
  scenario's rule;
* the outcome and RPC counters of an in-process service run of a plain
  reader forced onto a masking system.

The runs with a clock (the async frontends, the lock and the service) run
under :class:`tests.service.test_load.VirtualTimeLoop`, so each is a pure
function of its seed.  A changed pin is a changed read, not a stale pin.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

import pytest

from repro.apps.mutex import LockLoadSpec, lock_load
from repro.protocol.timestamps import Timestamp
from repro.service.client import AsyncQuorumClient
from repro.service.load import FaultInjectionSpec
from repro.service.register import async_register_for
from repro.service.sharding import build_nodes
from repro.service.transport import AsyncTransport
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec
from tests.protocol.test_read_rule_parity import SYSTEMS, digest, service_case
from tests.service.test_load import VirtualTimeLoop

KINDS = ("plain", "dissemination", "masking", "forced-plain", "write-back")

#: Outcome fields hashed per kind: the ones its readers have always reported.
BASE_FIELDS = ("value", "timestamp", "quorum", "reporting_servers", "replies")
FIELDS = {kind: BASE_FIELDS for kind in KINDS}
FIELDS["masking"] = BASE_FIELDS + ("votes", "threshold")

FAILURES: Dict[str, FailureModel] = {
    "crashes": FailureModel.random_crashes(3),
    # Timestamp(1, 0) is the first honest write's own timestamp: a tie.
    "clique": FailureModel.timestamp_forging_clique(3, "F", Timestamp(1, 0)),
    "forgers": FailureModel.colluding_forgers(3, "F", Timestamp.forged_maximum()),
}

#: Lazy reads are pinned for the kinds whose read threshold is their
#: system's own; a forced-plain reader reads with threshold 1 over a
#: masking system.
LAZY_KINDS = ("plain", "dissemination", "masking", "write-back")


def run_in_virtual_time(coroutine):
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def outcome_row(kind: str, outcome) -> list:
    row = []
    for name in FIELDS[kind]:
        value = getattr(outcome, name)
        row.append(sorted(value) if isinstance(value, frozenset) else value)
    return row


def workload(write, read):
    """Eight writes with three reads after each, as (op, index) steps."""
    for version in range(8):
        yield write, f"v{version}"
        for _ in range(3):
            yield read, None


def sync_outcome_case(kind: str, failure: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = ScenarioSpec(failure_model=FAILURES[failure], **SYSTEMS[kind])
        plan = spec.failure_model.sample_plan_for(spec.n, random.Random(seed))
        register = spec.register_factory()(
            Cluster(spec.n, failure_plan=plan, seed=seed), random.Random(seed + 1)
        )
        rows = []
        for op, value in workload(register.write, register.read):
            if value is None:
                outcome = op()
                rows.append(outcome_row(kind, outcome) + [register.classify_read(outcome)])
            else:
                op(value)
        return digest(rows, register.forged_replies_rejected)

    return run


def async_outcome_case(kind: str, failure: str, seed: int, lazy: bool) -> Callable[[], str]:
    async def scenario() -> str:
        spec = ScenarioSpec(failure_model=FAILURES[failure], **SYSTEMS[kind])
        plan = spec.failure_model.sample_plan_for(spec.n, random.Random(seed))
        client = AsyncQuorumClient(
            spec.system,
            build_nodes(spec.n, plan),
            AsyncTransport(seed=seed),
            deadline=0.01,
            rng=random.Random(seed + 1),
            lazy_fallback=lazy,
        )
        register = async_register_for(spec, client)
        rows = []
        for op, value in workload(register.write, register.read):
            if value is None:
                outcome = await op()
                rows.append(outcome_row(kind, outcome) + [register.classify_read(outcome)])
            else:
                await op(value)
        return digest(rows, register.forged_replies_rejected, client.probe_fallbacks)

    return lambda: run_in_virtual_time(scenario())


def lock_load_case(kind: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = LockLoadSpec(
            scenario=ScenarioSpec(**SYSTEMS[kind]),
            clients=4,
            acquisitions_per_client=3,
            locks=1,
            deadline=0.05,
            fault_injection=FaultInjectionSpec(crash_count=2, interval=0.002),
            seed=seed,
        )
        report = run_in_virtual_time(lock_load(spec))
        return digest(
            report.grants,
            report.releases,
            report.refused_requests,
            report.give_ups,
            report.rpc_failures,
            report.double_grants,
            report.fabricated_records,
            report.grants_per_client,
            report.injected_crashes,
        )

    return run


CASES: Dict[str, Callable[[], str]] = {}
for _kind in KINDS:
    for _failure in FAILURES:
        CASES[f"sync-{_kind}-{_failure}"] = sync_outcome_case(_kind, _failure, seed=21)
        CASES[f"async-{_kind}-{_failure}"] = async_outcome_case(
            _kind, _failure, seed=22, lazy=False
        )
        if _kind in LAZY_KINDS:
            CASES[f"async-lazy-{_kind}-{_failure}"] = async_outcome_case(
                _kind, _failure, seed=23, lazy=True
            )
for _kind in ("plain", "dissemination", "masking"):
    CASES[f"lock-load-{_kind}"] = lock_load_case(_kind, seed=24)
CASES["service-forced-plain"] = service_case("forced-plain", seed=7)

PINS: Dict[str, str] = {
    "async-dissemination-clique": "9088d214fd51006c",
    "async-dissemination-crashes": "3bade0dd120088f1",
    "async-dissemination-forgers": "9088d214fd51006c",
    "async-forced-plain-clique": "5cd5827e16d48b3c",
    "async-forced-plain-crashes": "a2339af901588820",
    "async-forced-plain-forgers": "6cf2ef6d0b9612ab",
    "async-lazy-dissemination-clique": "352e966207e5599b",
    "async-lazy-dissemination-crashes": "ea71e94dcd91feb7",
    "async-lazy-dissemination-forgers": "352e966207e5599b",
    "async-lazy-masking-clique": "965c1d2fcbd10298",
    "async-lazy-masking-crashes": "a5e4be717c2bcadb",
    "async-lazy-masking-forgers": "4318091e33765f18",
    "async-lazy-plain-clique": "ddcae8323ef91a55",
    "async-lazy-plain-crashes": "5187c4690afd1777",
    "async-lazy-plain-forgers": "a78bfa4738629940",
    "async-lazy-write-back-clique": "ddcae8323ef91a55",
    "async-lazy-write-back-crashes": "5187c4690afd1777",
    "async-lazy-write-back-forgers": "a78bfa4738629940",
    "async-masking-clique": "736285fa7762afe0",
    "async-masking-crashes": "4effcd9a8f78b3f5",
    "async-masking-forgers": "76131bb64aa7c8bf",
    "async-plain-clique": "6155c9babf0a05d9",
    "async-plain-crashes": "23295f93b502e265",
    "async-plain-forgers": "db10bffa504c0837",
    "async-write-back-clique": "6155c9babf0a05d9",
    "async-write-back-crashes": "23295f93b502e265",
    "async-write-back-forgers": "db10bffa504c0837",
    "lock-load-dissemination": "93464b890f53b5ce",
    "lock-load-masking": "bd5e240d66c6435a",
    "lock-load-plain": "5d101a502daef6f9",
    "service-forced-plain": "874a25c9f44528e1",
    "sync-dissemination-clique": "19590a006132bc96",
    "sync-dissemination-crashes": "2b8d5acf88b71e0b",
    "sync-dissemination-forgers": "19590a006132bc96",
    "sync-forced-plain-clique": "51b385c7add2ea33",
    "sync-forced-plain-crashes": "c3dbc663e1c1bf1c",
    "sync-forced-plain-forgers": "1b91f338d3feaba6",
    "sync-masking-clique": "44559d1a4dcd6496",
    "sync-masking-crashes": "f141600e48139174",
    "sync-masking-forgers": "ef67025644b47ba6",
    "sync-plain-clique": "836dd5bad8154fab",
    "sync-plain-crashes": "7a0224085e2fc257",
    "sync-plain-forgers": "ae3d41c6e6317286",
    "sync-write-back-clique": "1615aafed3bf217e",
    "sync-write-back-crashes": "02700ebb11c33b7f",
    "sync-write-back-forgers": "9eb71e7e5dcc0018",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_pin(case):
    assert CASES[case]() == PINS[case]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
