"""Seeded parity pins for the batch engine's samplers and estimators.

Every case below runs one seeded call and hashes its complete output — the
outcome counts or the per-trial lags of an estimator, the boolean masks of
a sampler, the quorum tuples of a block draw — together with the next
uniform its generator yields, so a change in *which* servers a draw picks
and a change in *how many* draws it makes both move the digest.

The digests were recorded before the samplers were rewritten and must hold
unedited: a faster kernel that picks the same sets from the same draws
keeps every Monte-Carlo estimate bit-identical at every seed and chunk
size.  A changed pin means a changed estimate, not a stale pin.

The five estimator scenarios are the n=100 shapes of the benchmark's
``mc-batch`` workload (masking + 4 forgers, dissemination + 5 crashes, one
gossip round, three concurrent writers, a five-write gossiped history),
written out here so the tests do not import the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict

import numpy as np
import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.core.strategy import UniformSubsetStrategy
from repro.protocol.timestamps import Timestamp
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    estimate_staleness_distribution,
)
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec

SAMPLER_N = 13
SAMPLER_TRIALS = 257


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of ``parts`` dumped as JSON."""
    payload = json.dumps(parts, default=lambda array: array.tolist())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenarios() -> Dict[str, ScenarioSpec]:
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


def estimator_case(name: str, trials: int, seed: int) -> Callable[[], str]:
    def run() -> str:
        spec = scenarios()[name]
        if name == "staleness":
            report = estimate_staleness_distribution(
                spec, trials=trials, seed=seed, engine="batch"
            )
            return digest(report.trials, report.versions_behind)
        report = estimate_read_consistency(spec, trials=trials, seed=seed, engine="batch")
        return digest(
            report.trials, report.fresh, report.stale, report.empty, report.fabricated
        )

    return run


COUNT_KINDS: Dict[str, Callable[[int], FailureModel]] = {
    "random_crashes": FailureModel.random_crashes,
    "random_byzantine": FailureModel.random_byzantine,
    "colluding_forgers": lambda count: FailureModel.colluding_forgers(
        count, "F", Timestamp.forged_maximum()
    ),
    "timestamp_forging_clique": lambda count: FailureModel.timestamp_forging_clique(
        count, "F", Timestamp(1, 0)
    ),
    "gray_nodes": lambda count: FailureModel.gray_nodes(count, 0.3),
    "replay_attack": FailureModel.replay_attack,
}


def masks_case(kind: str, count: int) -> Callable[[], str]:
    def run() -> str:
        generator = np.random.default_rng(7000 + count)
        masks = COUNT_KINDS[kind](count).sample_masks(SAMPLER_N, SAMPLER_TRIALS, generator)
        return digest(
            masks.crashed, masks.silent, masks.forgers, masks.replay, generator.random()
        )

    return run


def membership_case(size: int, with_out: bool) -> Callable[[], str]:
    def run() -> str:
        generator = np.random.default_rng(8000 + size)
        strategy = UniformSubsetStrategy(SAMPLER_N, size)
        out = np.ones((SAMPLER_TRIALS, SAMPLER_N), dtype=bool) if with_out else None
        member = strategy.sample_batch_membership(
            SAMPLER_N, SAMPLER_TRIALS, generator, out=out
        )
        if with_out:
            assert member is out
        return digest(member, generator.random())

    return run


def block_case(source: str) -> Callable[[], str]:
    def run() -> str:
        system = ProbabilisticMaskingSystem(25, 10, 3)
        if source == "generator":
            generator = np.random.default_rng(9001)
            block = system.sample_quorum_block(count=32, generator=generator)
            return digest(block, generator.random())
        rng = random.Random(9002)
        block = system.sample_quorum_block(rng, count=32)
        return digest(block, rng.random())

    return run


CASES: Dict[str, Callable[[], str]] = {}
for _name in scenarios():
    for _trials in (1, 4097, 20000):
        for _seed in (0, 1, 55):
            CASES[f"estimate-{_name}-t{_trials}-s{_seed}"] = estimator_case(
                _name, _trials, _seed
            )
for _kind in COUNT_KINDS:
    for _count in (0, 1, SAMPLER_N - 1, SAMPLER_N):
        CASES[f"masks-{_kind}-c{_count}"] = masks_case(_kind, _count)
for _size in (1, SAMPLER_N - 1, SAMPLER_N):
    for _with_out in (False, True):
        CASES[f"membership-q{_size}-{'out' if _with_out else 'alloc'}"] = membership_case(
            _size, _with_out
        )
for _source in ("generator", "rng"):
    CASES[f"block-{_source}"] = block_case(_source)

PINS: Dict[str, str] = {
    "block-generator": "d78c8fb38a6bc5d6",
    "block-rng": "a6bf3c9694c7fdb9",
    "estimate-dissemination-t1-s0": "6670ff0d23736f36",
    "estimate-dissemination-t1-s1": "6670ff0d23736f36",
    "estimate-dissemination-t1-s55": "6670ff0d23736f36",
    "estimate-dissemination-t20000-s0": "15f79436fa393ec2",
    "estimate-dissemination-t20000-s1": "4d845e031472ef33",
    "estimate-dissemination-t20000-s55": "e6f745469029bb30",
    "estimate-dissemination-t4097-s0": "56d25a9514354143",
    "estimate-dissemination-t4097-s1": "e33e1405a4710c7b",
    "estimate-dissemination-t4097-s55": "5f47ab02551b4308",
    "estimate-gossiped-t1-s0": "6670ff0d23736f36",
    "estimate-gossiped-t1-s1": "6670ff0d23736f36",
    "estimate-gossiped-t1-s55": "6670ff0d23736f36",
    "estimate-gossiped-t20000-s0": "5f41fbfdd58437b2",
    "estimate-gossiped-t20000-s1": "e11a044290652a28",
    "estimate-gossiped-t20000-s55": "fa2198aa0cabf1e9",
    "estimate-gossiped-t4097-s0": "d20c6d11695128e5",
    "estimate-gossiped-t4097-s1": "c802b17e420da740",
    "estimate-gossiped-t4097-s55": "9d94d24a5f381314",
    "estimate-masking-t1-s0": "6670ff0d23736f36",
    "estimate-masking-t1-s1": "6670ff0d23736f36",
    "estimate-masking-t1-s55": "6670ff0d23736f36",
    "estimate-masking-t20000-s0": "ec1e496ae4c04988",
    "estimate-masking-t20000-s1": "28e41c1e4d3c47f9",
    "estimate-masking-t20000-s55": "ebad67c8747d06e5",
    "estimate-masking-t4097-s0": "d0e80e28afb48c1a",
    "estimate-masking-t4097-s1": "34141e9eeff33ca6",
    "estimate-masking-t4097-s55": "69b3e10054b88b8b",
    "estimate-multiwriter-t1-s0": "6670ff0d23736f36",
    "estimate-multiwriter-t1-s1": "6670ff0d23736f36",
    "estimate-multiwriter-t1-s55": "6670ff0d23736f36",
    "estimate-multiwriter-t20000-s0": "b054ca443f6665a4",
    "estimate-multiwriter-t20000-s1": "25fac6a5d1106422",
    "estimate-multiwriter-t20000-s55": "0276044ebfe65e3f",
    "estimate-multiwriter-t4097-s0": "8c431a4e4e6b34c1",
    "estimate-multiwriter-t4097-s1": "862c7f601f9c8f35",
    "estimate-multiwriter-t4097-s55": "46ad12006263c6e0",
    "estimate-staleness-t1-s0": "3a55f9bb0de19452",
    "estimate-staleness-t1-s1": "3a55f9bb0de19452",
    "estimate-staleness-t1-s55": "3a55f9bb0de19452",
    "estimate-staleness-t20000-s0": "896502add3d1204b",
    "estimate-staleness-t20000-s1": "37bd0f2ca220fd7a",
    "estimate-staleness-t20000-s55": "92f92dfc1ca616c4",
    "estimate-staleness-t4097-s0": "ea049440697823de",
    "estimate-staleness-t4097-s1": "3c1b1844ed3f841a",
    "estimate-staleness-t4097-s55": "397d7fb04135638e",
    "masks-colluding_forgers-c0": "355b719263f7be47",
    "masks-colluding_forgers-c1": "cd60eef1ab9ecda3",
    "masks-colluding_forgers-c12": "70c35955e00dcbec",
    "masks-colluding_forgers-c13": "27128113fdd1eda5",
    "masks-gray_nodes-c0": "90d215295eeebab8",
    "masks-gray_nodes-c1": "75019df92eee91bb",
    "masks-gray_nodes-c12": "4db24364ba7866e1",
    "masks-gray_nodes-c13": "f8a2c4106be43f99",
    "masks-random_byzantine-c0": "355b719263f7be47",
    "masks-random_byzantine-c1": "6a51f2db97507867",
    "masks-random_byzantine-c12": "f19b51bbdca844d4",
    "masks-random_byzantine-c13": "993ee1d9819d467a",
    "masks-random_crashes-c0": "355b719263f7be47",
    "masks-random_crashes-c1": "f1473e8ddc3ba7e3",
    "masks-random_crashes-c12": "4edbf69d49ccd92c",
    "masks-random_crashes-c13": "3a908504c415da96",
    "masks-replay_attack-c0": "355b719263f7be47",
    "masks-replay_attack-c1": "8940d60e750fdbb6",
    "masks-replay_attack-c12": "e1eb6709a90e1a99",
    "masks-replay_attack-c13": "584132b684e88335",
    "masks-timestamp_forging_clique-c0": "355b719263f7be47",
    "masks-timestamp_forging_clique-c1": "cd60eef1ab9ecda3",
    "masks-timestamp_forging_clique-c12": "70c35955e00dcbec",
    "masks-timestamp_forging_clique-c13": "27128113fdd1eda5",
    "membership-q1-alloc": "c5559ff81c3799fb",
    "membership-q1-out": "c5559ff81c3799fb",
    "membership-q12-alloc": "4c41938ab236dc8c",
    "membership-q12-out": "4c41938ab236dc8c",
    "membership-q13-alloc": "2ed9cd4d5700d6e6",
    "membership-q13-out": "2ed9cd4d5700d6e6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_pin(case):
    assert CASES[case]() == PINS[case]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
