"""Seeded parity pins for Byzantine runs of the batch engine's history kernels.

The batch engine's multi-version kernels — a gossiped single write,
concurrent writers, and staleness write histories — keep per-server version
matrices and classify a read by the best credible version against the
forged vote count.  ``test_batch_parity.py`` pins them only on benign
scenarios; this file pins them under the adversaries whose votes they
actually weigh: replay servers (voting from ``first_seen``), colluding
forgers at ``Timestamp.forged_maximum()``, forgers at an outranked
``Timestamp(0, 9)`` (a winning forgery that is stale, not fabricated) and
random crashes, on a plain, a masking (``k = 2``) and a dissemination system.

Each case runs one seeded batch estimate, chunked so the last chunk is
short, and hashes its complete output: the four outcome counts of a
consistency estimate, or every per-trial lag of a staleness estimate.  The
digests were recorded before the kernels were merged and must hold
unedited: a changed pin is a changed draw or a changed classification.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.timestamps import Timestamp
from repro.simulation.batch import BatchTrialEngine
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec

TRIALS = 1500
CHUNK_SIZE = 512

SYSTEMS = {
    "plain": UniformEpsilonIntersectingSystem(49, 6),
    "masking": ProbabilisticMaskingSystem(49, 10, 3),
    "dissemination": ProbabilisticDisseminationSystem(49, 6, 3),
}

MODELS = {
    "replay": FailureModel.replay_attack(3),
    "forged-maximum": FailureModel.colluding_forgers(
        3, "forged", Timestamp.forged_maximum()
    ),
    "outranked": FailureModel.colluding_forgers(3, "forged", Timestamp(0, 9)),
    "crashes": FailureModel.random_crashes(3),
}

#: kernel name -> (writers, anti-entropy) of a consistency estimate, or
#: (writes, gossip rounds between writes) of a staleness history.  One-push
#: gossip keeps the outcomes away from all-fresh, where a pin sees nothing.
CONSISTENCY = {
    "gossiped": (1, AntiEntropySpec(fanout=1, rounds=1)),
    "contention-w2": (2, None),
    "contention-w3": (3, None),
    "contention-w3-gossip": (3, AntiEntropySpec(fanout=1, rounds=1)),
}
STALENESS = {
    f"staleness-w{writes}-g{gossip}": (writes, gossip)
    for writes in (3, 4, 5)
    for gossip in (0, 1)
}


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of ``parts`` dumped as JSON."""
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def case(system: str, model: str, kernel: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        if kernel in CONSISTENCY:
            writers, anti_entropy = CONSISTENCY[kernel]
            spec = ScenarioSpec(
                system=SYSTEMS[system],
                failure_model=MODELS[model],
                writers=writers,
                anti_entropy=anti_entropy,
            )
            engine = BatchTrialEngine(spec, seed=seed, chunk_size=CHUNK_SIZE)
            report = engine.estimate_read_consistency(TRIALS)
            return digest(report.fresh, report.stale, report.empty, report.fabricated)
        writes, gossip = STALENESS[kernel]
        spec = ScenarioSpec(
            system=SYSTEMS[system],
            failure_model=MODELS[model],
            workload=WorkloadSpec(writes, gossip, gossip_fanout=1),
        )
        engine = BatchTrialEngine(spec, seed=seed, chunk_size=CHUNK_SIZE)
        report = engine.estimate_staleness_distribution(TRIALS)
        return digest(report.versions_behind)

    return run


CASES: Dict[str, Callable[[], str]] = {}
for _index, (_system, _model, _kernel) in enumerate(
    (system, model, kernel)
    for system in SYSTEMS
    for model in MODELS
    for kernel in (*CONSISTENCY, *STALENESS)
):
    CASES[f"{_kernel}-{_system}-{_model}"] = case(_system, _model, _kernel, seed=_index)

PINS: Dict[str, str] = {
    "contention-w2-dissemination-crashes": "4c799d66bc2a03b7",
    "contention-w2-dissemination-forged-maximum": "94dd7fa4d7a81a5a",
    "contention-w2-dissemination-outranked": "a341d45509a4b62b",
    "contention-w2-dissemination-replay": "8e168c1f1fa1235c",
    "contention-w2-masking-crashes": "eb7cfc0fd29e28a0",
    "contention-w2-masking-forged-maximum": "deaa96332b3b98c0",
    "contention-w2-masking-outranked": "1ee9bc6209b65843",
    "contention-w2-masking-replay": "f1970ceed9014475",
    "contention-w2-plain-crashes": "e71da4fd9ea7dda1",
    "contention-w2-plain-forged-maximum": "43d010bf09fb35f1",
    "contention-w2-plain-outranked": "4fbfbcadf0e65239",
    "contention-w2-plain-replay": "ee81f71a820d7a0b",
    "contention-w3-dissemination-crashes": "5e3ccc3fb77a26f2",
    "contention-w3-dissemination-forged-maximum": "de66d7cae7ab4e9e",
    "contention-w3-dissemination-outranked": "1e739fce876e70fa",
    "contention-w3-dissemination-replay": "3a2442993f9262d7",
    "contention-w3-gossip-dissemination-crashes": "de594e50d71c0da5",
    "contention-w3-gossip-dissemination-forged-maximum": "76e904717c299f80",
    "contention-w3-gossip-dissemination-outranked": "a49ce49d43f5ac77",
    "contention-w3-gossip-dissemination-replay": "e5af9cf8cf895137",
    "contention-w3-gossip-masking-crashes": "4da125b5ba30c207",
    "contention-w3-gossip-masking-forged-maximum": "44e897a57ed4d58e",
    "contention-w3-gossip-masking-outranked": "4cb1025dd47d5e74",
    "contention-w3-gossip-masking-replay": "8658e3d7fdacb3d0",
    "contention-w3-gossip-plain-crashes": "2d4ba439f3b9f1fb",
    "contention-w3-gossip-plain-forged-maximum": "012745029906189c",
    "contention-w3-gossip-plain-outranked": "3b776117b721f626",
    "contention-w3-gossip-plain-replay": "36d0a6820e243ed9",
    "contention-w3-masking-crashes": "60252f0de3b3f6ae",
    "contention-w3-masking-forged-maximum": "14c936b32a90177f",
    "contention-w3-masking-outranked": "60a12410454a764e",
    "contention-w3-masking-replay": "0b46bdfcaae57f0f",
    "contention-w3-plain-crashes": "d1b7dd3c83a6f36b",
    "contention-w3-plain-forged-maximum": "f293f7e0886e6cac",
    "contention-w3-plain-outranked": "e3078b7ccf7cc741",
    "contention-w3-plain-replay": "4fe341a6d7d16946",
    "gossiped-dissemination-crashes": "5c674cee17a4f5d6",
    "gossiped-dissemination-forged-maximum": "bf4cff7ae490c130",
    "gossiped-dissemination-outranked": "c69f1db8c8c17c22",
    "gossiped-dissemination-replay": "aeb220030c998c15",
    "gossiped-masking-crashes": "fd59064f1a149ab6",
    "gossiped-masking-forged-maximum": "11e9da743f125750",
    "gossiped-masking-outranked": "299e337644bd6293",
    "gossiped-masking-replay": "e2cf342f6319a2a4",
    "gossiped-plain-crashes": "591c5dd940a7a109",
    "gossiped-plain-forged-maximum": "66273e1ed3d6b431",
    "gossiped-plain-outranked": "a2d62b1bb76b56e3",
    "gossiped-plain-replay": "4e3e243d70306a05",
    "staleness-w3-g0-dissemination-crashes": "ef37b0a1e1e6c816",
    "staleness-w3-g0-dissemination-forged-maximum": "37c2a9bf7afb1242",
    "staleness-w3-g0-dissemination-outranked": "7c9304ae602c57ea",
    "staleness-w3-g0-dissemination-replay": "39c11e12a77daa20",
    "staleness-w3-g0-masking-crashes": "e33f6d2f10fd4ffd",
    "staleness-w3-g0-masking-forged-maximum": "1606871041d53434",
    "staleness-w3-g0-masking-outranked": "72843a91162d5bdd",
    "staleness-w3-g0-masking-replay": "f0f7bf4dcec65a65",
    "staleness-w3-g0-plain-crashes": "2c058e5ceff374ad",
    "staleness-w3-g0-plain-forged-maximum": "f1aa8f47aa72b03d",
    "staleness-w3-g0-plain-outranked": "22c381ab991f5fad",
    "staleness-w3-g0-plain-replay": "3940f7c805b04ae3",
    "staleness-w3-g1-dissemination-crashes": "a2a9e82617afb17a",
    "staleness-w3-g1-dissemination-forged-maximum": "7d1f6c42faa03b8f",
    "staleness-w3-g1-dissemination-outranked": "6c0cfb901f564a43",
    "staleness-w3-g1-dissemination-replay": "5deb058ebd6855e6",
    "staleness-w3-g1-masking-crashes": "910f61c72c54a4cb",
    "staleness-w3-g1-masking-forged-maximum": "e7ee7693ca049cbf",
    "staleness-w3-g1-masking-outranked": "4ed360d3894c5b22",
    "staleness-w3-g1-masking-replay": "75f24dac04527812",
    "staleness-w3-g1-plain-crashes": "312c4a3502ee946b",
    "staleness-w3-g1-plain-forged-maximum": "bf1dd2854d62ef6b",
    "staleness-w3-g1-plain-outranked": "a8899ab3ece2f95b",
    "staleness-w3-g1-plain-replay": "4a857f2fd3517e83",
    "staleness-w4-g0-dissemination-crashes": "db69fd0de8dfd730",
    "staleness-w4-g0-dissemination-forged-maximum": "93ec73e8546f47d3",
    "staleness-w4-g0-dissemination-outranked": "3e8e9c2fbb2db2e5",
    "staleness-w4-g0-dissemination-replay": "20e7acd24b798c46",
    "staleness-w4-g0-masking-crashes": "23e504fc526fb499",
    "staleness-w4-g0-masking-forged-maximum": "445b83f79f9ec6cb",
    "staleness-w4-g0-masking-outranked": "34b845d6cdfa928f",
    "staleness-w4-g0-masking-replay": "06a024f1c2d4681e",
    "staleness-w4-g0-plain-crashes": "d57abeccd487ef5e",
    "staleness-w4-g0-plain-forged-maximum": "633566b0018c8c14",
    "staleness-w4-g0-plain-outranked": "9386af095f560865",
    "staleness-w4-g0-plain-replay": "92dd30b6c904a630",
    "staleness-w4-g1-dissemination-crashes": "70b74bde549336af",
    "staleness-w4-g1-dissemination-forged-maximum": "1ec9fa548b5db0d7",
    "staleness-w4-g1-dissemination-outranked": "88f25fddf2aa0070",
    "staleness-w4-g1-dissemination-replay": "b1dcc6338a43e898",
    "staleness-w4-g1-masking-crashes": "49754d923ff53197",
    "staleness-w4-g1-masking-forged-maximum": "99facb8c2c97281e",
    "staleness-w4-g1-masking-outranked": "f4edb83f4fedf3d5",
    "staleness-w4-g1-masking-replay": "50b8910aa347b3cd",
    "staleness-w4-g1-plain-crashes": "d1f4894ee4c12ef0",
    "staleness-w4-g1-plain-forged-maximum": "0b922615e88d8adc",
    "staleness-w4-g1-plain-outranked": "7e3b614567ef4f66",
    "staleness-w4-g1-plain-replay": "6be7493a61a5cfe5",
    "staleness-w5-g0-dissemination-crashes": "db05eaef4d5cfa68",
    "staleness-w5-g0-dissemination-forged-maximum": "83383987a4e5fa3a",
    "staleness-w5-g0-dissemination-outranked": "df8cabe57758a100",
    "staleness-w5-g0-dissemination-replay": "83c15b1c51e2381b",
    "staleness-w5-g0-masking-crashes": "69b2f4f77b32e724",
    "staleness-w5-g0-masking-forged-maximum": "69235637aa2c40f8",
    "staleness-w5-g0-masking-outranked": "29faf1d19d0bcb9c",
    "staleness-w5-g0-masking-replay": "63c0444aef785b84",
    "staleness-w5-g0-plain-crashes": "60880e443a05c378",
    "staleness-w5-g0-plain-forged-maximum": "7a95485d8b423d86",
    "staleness-w5-g0-plain-outranked": "1b55c48e1c131c72",
    "staleness-w5-g0-plain-replay": "007b5effb4f98791",
    "staleness-w5-g1-dissemination-crashes": "ae6b27b157df8a77",
    "staleness-w5-g1-dissemination-forged-maximum": "8e0e22ca4288818f",
    "staleness-w5-g1-dissemination-outranked": "3db633a30fe4783c",
    "staleness-w5-g1-dissemination-replay": "1a22782623f0772c",
    "staleness-w5-g1-masking-crashes": "06b14d75c13c5c68",
    "staleness-w5-g1-masking-forged-maximum": "84956eb63d9f28ad",
    "staleness-w5-g1-masking-outranked": "1a6e18aff8d1cb52",
    "staleness-w5-g1-masking-replay": "1001e8722e02db02",
    "staleness-w5-g1-plain-crashes": "bb46fe1cc10f2b56",
    "staleness-w5-g1-plain-forged-maximum": "2d785734be6a8ba4",
    "staleness-w5-g1-plain-outranked": "cfa16865d3ad1ec5",
    "staleness-w5-g1-plain-replay": "26b08a65693a05c8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_pin(name):
    assert CASES[name]() == PINS[name]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
