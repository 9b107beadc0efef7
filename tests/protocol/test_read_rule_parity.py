"""Seeded parity pins for every reader of the shared read rule.

Each case runs one seeded call end to end and hashes its complete output:
the outcome counts of a sequential consistency estimate, the per-trial
lags of a staleness estimate, the outcome and RPC counters of an in-process
service run under a virtual clock, or the audit of a ballot stream.  The
cases cover every read protocol (plain, signed dissemination, threshold
masking, a plain reader forced onto a masking system, write-back) under
benign, crash, forging, timestamp-tying, replaying and silent servers, with
one and with three concurrent writers, with and without anti-entropy.

The digests were recorded before the registers, the async frontends, the
gossip verifiers and the voting service were moved onto one read rule, and
must hold unedited: the rule changes who spells out the filter and the
selection, not which draws are made or which pair wins.  A changed pin is a
changed read, not a stale pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Callable, Dict

import pytest

from repro.apps.voting import VotingService
from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.service.load import ServiceLoadSpec
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    estimate_staleness_distribution,
)
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec
from tests.service.test_load import run_in_virtual_time

TRIALS = 300
PLAIN = UniformEpsilonIntersectingSystem(25, 8)
DISSEMINATION = ProbabilisticDisseminationSystem(25, 7, 3)
#: k = 2 < 3 forgers: a forgery can clear the threshold, so the selection
#: rule (not the threshold alone) decides which pair a read returns.
MASKING = ProbabilisticMaskingSystem(25, 10, 3)

SYSTEMS: Dict[str, dict] = {
    "plain": dict(system=PLAIN),
    "dissemination": dict(system=DISSEMINATION),
    "masking": dict(system=MASKING),
    "forced-plain": dict(system=MASKING, register_kind="plain"),
    "write-back": dict(system=PLAIN, register_kind="write-back"),
}

FAILURES: Dict[str, FailureModel] = {
    "none": FailureModel.none(),
    "crashes": FailureModel.random_crashes(3),
    "forgers": FailureModel.colluding_forgers(3, "F", Timestamp.forged_maximum()),
    # Timestamp(1, 0) is the first honest write's own timestamp: a tie.
    "clique": FailureModel.timestamp_forging_clique(3, "F", Timestamp(1, 0)),
    "replay": FailureModel.replay_attack(3),
    "silent": FailureModel.random_byzantine(3),
}


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of ``parts`` dumped as JSON."""
    payload = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def consistency_digest(report) -> str:
    return digest(report.trials, report.fresh, report.stale, report.empty, report.fabricated)


def consistency_case(system: str, failure: str, writers: int, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = ScenarioSpec(
            failure_model=FAILURES[failure], writers=writers, **SYSTEMS[system]
        )
        return consistency_digest(estimate_read_consistency(spec, trials=TRIALS, seed=seed))

    return run


def anti_entropy_case(system: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = ScenarioSpec(
            failure_model=FAILURES["forgers"],
            anti_entropy=AntiEntropySpec(fanout=2, rounds=1),
            **SYSTEMS[system],
        )
        return consistency_digest(estimate_read_consistency(spec, trials=TRIALS, seed=seed))

    return run


def staleness_case(system: str, failure: str, gossip: int, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = ScenarioSpec(
            failure_model=FAILURES[failure],
            workload=WorkloadSpec(writes=4, gossip_rounds_between_writes=gossip),
            **SYSTEMS[system],
        )
        report = estimate_staleness_distribution(spec, trials=TRIALS, seed=seed)
        return digest(report.trials, report.versions_behind)

    return run


def legacy_factory_case() -> str:
    spec = ScenarioSpec(
        system=DISSEMINATION,
        failure_model=FailureModel.colluding_forgers(3, "F", Timestamp(1, 0)),
        signing_key=b"legacy",
    )
    report = estimate_read_consistency(spec, trials=TRIALS, seed=5)
    return consistency_digest(report)


def service_case(system: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = ServiceLoadSpec(
            scenario=ScenarioSpec(
                failure_model=FailureModel.colluding_forgers(
                    3, "FORGED", Timestamp.forged_maximum()
                ),
                **SYSTEMS[system],
            ),
            clients=20,
            reads_per_client=3,
            writes=5,
            seed=seed,
        )
        report = run_in_virtual_time(spec)
        return digest(
            report.outcomes,
            report.rpc_calls,
            report.rpc_dropped,
            report.rpc_timeouts,
            report.probe_fallbacks,
            report.dispatch_flushes,
            report.repairs_piggybacked,
        )

    return run


def voting_case(mode: str) -> Callable[[], str]:
    def run() -> str:
        system = MASKING if mode == "masking" else PLAIN
        plan = FailureModel.colluding_forgers(
            3, {"station": 9, "voter": "?"}, Timestamp(1, 9)
        ).sample_plan_for(25, random.Random(3))
        service = VotingService(
            system,
            Cluster(25, failure_plan=plan, seed=3),
            signatures=SignatureScheme(b"authority") if mode == "signed" else None,
            rng=random.Random(4),
        )
        ballots = random.Random(17)
        for _ in range(200):
            service.cast_vote(f"voter-{ballots.randrange(80)}", ballots.randrange(10))
        return digest(dataclasses.asdict(service.audit()), sorted(service.double_voters()))

    return run


CASES: Dict[str, Callable[[], str]] = {}
for _system in SYSTEMS:
    for _failure in FAILURES:
        for _writers in (1, 3):
            CASES[f"consistency-{_system}-{_failure}-w{_writers}"] = consistency_case(
                _system, _failure, _writers, seed=11
            )
    CASES[f"anti-entropy-{_system}"] = anti_entropy_case(_system, seed=12)
for _system, _failure, _gossip in (
    ("plain", "crashes", 0),
    ("plain", "crashes", 1),
    ("dissemination", "replay", 0),
    ("masking", "forgers", 0),
    ("forced-plain", "clique", 0),
    ("write-back", "none", 0),
):
    CASES[f"staleness-{_system}-{_failure}-g{_gossip}"] = staleness_case(
        _system, _failure, _gossip, seed=13
    )
CASES["legacy-factory"] = legacy_factory_case
for _system in ("plain", "dissemination", "masking"):
    CASES[f"service-{_system}"] = service_case(_system, seed=7)
for _mode in ("plain", "signed", "masking"):
    CASES[f"voting-{_mode}"] = voting_case(_mode)

PINS: Dict[str, str] = {
    "anti-entropy-dissemination": "c60e0b831664a510",
    "anti-entropy-forced-plain": "dcd79cd6ef0ad3f1",
    "anti-entropy-masking": "4303501c6e6f0c7d",
    "anti-entropy-plain": "e32e710e6ed2f3e9",
    "anti-entropy-write-back": "e32e710e6ed2f3e9",
    "consistency-dissemination-clique-w1": "31a5fb0d729eb963",
    "consistency-dissemination-clique-w3": "e9618f1f5c2c7f38",
    "consistency-dissemination-crashes-w1": "31a5fb0d729eb963",
    "consistency-dissemination-crashes-w3": "e9618f1f5c2c7f38",
    "consistency-dissemination-forgers-w1": "31a5fb0d729eb963",
    "consistency-dissemination-forgers-w3": "e9618f1f5c2c7f38",
    "consistency-dissemination-none-w1": "813e579225211887",
    "consistency-dissemination-none-w3": "30cd2634042689d3",
    "consistency-dissemination-replay-w1": "f929ae176a63492b",
    "consistency-dissemination-replay-w3": "e94a7a7c8f1f7633",
    "consistency-dissemination-silent-w1": "31a5fb0d729eb963",
    "consistency-dissemination-silent-w3": "e9618f1f5c2c7f38",
    "consistency-forced-plain-clique-w1": "9d77b60076e3a225",
    "consistency-forced-plain-clique-w3": "442bb3ed8d1f74bd",
    "consistency-forced-plain-crashes-w1": "facf88b215512a5c",
    "consistency-forced-plain-crashes-w3": "442bb3ed8d1f74bd",
    "consistency-forced-plain-forgers-w1": "0ff49b2f39492fc7",
    "consistency-forced-plain-forgers-w3": "163e26eec2b9c60c",
    "consistency-forced-plain-none-w1": "c60e0b831664a510",
    "consistency-forced-plain-none-w3": "c60e0b831664a510",
    "consistency-forced-plain-replay-w1": "facf88b215512a5c",
    "consistency-forced-plain-replay-w3": "442bb3ed8d1f74bd",
    "consistency-forced-plain-silent-w1": "facf88b215512a5c",
    "consistency-forced-plain-silent-w3": "442bb3ed8d1f74bd",
    "consistency-masking-clique-w1": "4a4067a6afe8cf80",
    "consistency-masking-clique-w3": "fa411d4fa7add849",
    "consistency-masking-crashes-w1": "874f654e179cd3ba",
    "consistency-masking-crashes-w3": "cf74fbc84f72c28d",
    "consistency-masking-forgers-w1": "5fb459604d9b4263",
    "consistency-masking-forgers-w3": "ecbb86188b562fc7",
    "consistency-masking-none-w1": "7cfad87ddd8edfff",
    "consistency-masking-none-w3": "aa5c06f5ce9b1e05",
    "consistency-masking-replay-w1": "2c0d609f2019dde9",
    "consistency-masking-replay-w3": "8a1c97592a7ec6d7",
    "consistency-masking-silent-w1": "874f654e179cd3ba",
    "consistency-masking-silent-w3": "cf74fbc84f72c28d",
    "consistency-plain-clique-w1": "9f457d13ca2383c7",
    "consistency-plain-clique-w3": "8a1c97592a7ec6d7",
    "consistency-plain-crashes-w1": "7cbf0458f478f447",
    "consistency-plain-crashes-w3": "8a1c97592a7ec6d7",
    "consistency-plain-forgers-w1": "b96dd907e0ac8225",
    "consistency-plain-forgers-w3": "6e2e68ff4bf7ca38",
    "consistency-plain-none-w1": "7179038a45113570",
    "consistency-plain-none-w3": "9d3160526147713d",
    "consistency-plain-replay-w1": "7cfad87ddd8edfff",
    "consistency-plain-replay-w3": "9ec199eb5835fb14",
    "consistency-plain-silent-w1": "7cbf0458f478f447",
    "consistency-plain-silent-w3": "8a1c97592a7ec6d7",
    "consistency-write-back-clique-w1": "9f457d13ca2383c7",
    "consistency-write-back-clique-w3": "8a1c97592a7ec6d7",
    "consistency-write-back-crashes-w1": "7cbf0458f478f447",
    "consistency-write-back-crashes-w3": "8a1c97592a7ec6d7",
    "consistency-write-back-forgers-w1": "b96dd907e0ac8225",
    "consistency-write-back-forgers-w3": "6e2e68ff4bf7ca38",
    "consistency-write-back-none-w1": "7179038a45113570",
    "consistency-write-back-none-w3": "9d3160526147713d",
    "consistency-write-back-replay-w1": "7cfad87ddd8edfff",
    "consistency-write-back-replay-w3": "9ec199eb5835fb14",
    "consistency-write-back-silent-w1": "7cbf0458f478f447",
    "consistency-write-back-silent-w3": "8a1c97592a7ec6d7",
    "legacy-factory": "d1838e4c4a9f6a48",
    "service-dissemination": "abec8be2828b7b54",
    "service-masking": "0d83f47f583ca0cd",
    "service-plain": "e020f9a077164d83",
    "staleness-dissemination-replay-g0": "9c6e3d2c93c9dba3",
    "staleness-forced-plain-clique-g0": "7f358e7e298dddc5",
    "staleness-masking-forgers-g0": "1b440d8554940c5d",
    "staleness-plain-crashes-g0": "fd24195c4448fe81",
    "staleness-plain-crashes-g1": "7f358e7e298dddc5",
    "staleness-write-back-none-g0": "93d4d1bd035019c9",
    "voting-masking": "255f8e017cf3ad38",
    "voting-plain": "bdf56d66c9301680",
    "voting-signed": "20071817ff3f0ee4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_pin(case):
    assert CASES[case]() == PINS[case]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
