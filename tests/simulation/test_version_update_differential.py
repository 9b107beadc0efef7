"""Differential test: the branch-free version update against masked writes.

The batch engine's multi-version kernels (staleness histories, concurrent
writers, gossiped consistency) store each honest write through one helper,
:func:`repro.simulation.batch._record_write`, which leans on the histories'
invariant — versions ascend, so every stored version is below the one
being written — to update ``latest`` and ``first_seen`` with a maximum and
an unsigned minimum.  :func:`reference_record_write` is the pair of masked
``np.copyto`` writes each kernel carried before, and
:func:`reference_best_credible_version` the ``np.where`` vote selection
that reads them; both are kept here as oracles.

Over random ascending histories (1–6 writes, with and without gossip
between writes) the helper must leave both matrices exactly as the masked
writes do.  End to end, every kernel run through the helper must return
the reference's outcomes bit for bit, including under replay servers,
whose votes come from ``first_seen``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.simulation import batch
from repro.simulation.batch import BatchTrialEngine, _record_write
from repro.simulation.diffusion import gossip_rounds_batch
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec


def reference_record_write(latest, first_seen, touched, version, scratch):
    """The masked form: ``first_seen`` only off -1, ``latest`` where touched."""
    np.copyto(first_seen, version, where=touched & (first_seen < 0))
    np.copyto(latest, version, where=touched)


def reference_best_credible_version(self, member_r, masks, latest, first_seen, writes):
    """``BatchTrialEngine._best_credible_version`` with ``np.where`` selects."""
    correct = ~(masks.crashed | masks.byzantine)
    honest = np.where(member_r & correct, latest, -1)
    replayed = np.where(member_r & masks.replay, first_seen, -1)
    threshold = self.semantics.threshold
    if threshold <= 1:
        return np.maximum(honest, replayed).max(axis=1)
    best = np.full(member_r.shape[0], -1, dtype=np.int64)
    for version in range(writes):
        votes = ((honest == version) | (replayed == version)).sum(axis=1)
        best = np.where(votes >= threshold, version, best)
    return best


class TestHelperMatchesMaskedWrites:
    @given(
        trials=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=2, max_value=16),
        writes=st.integers(min_value=1, max_value=6),
        gossip_rounds=st.integers(min_value=0, max_value=2),
        dtype=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_ascending_histories(self, trials, n, writes, gossip_rounds, dtype, seed):
        draws = np.random.default_rng(seed)
        # Replay servers store writes but never gossip; crashed ones do neither.
        crashed = draws.random((trials, n)) < 0.15
        replay = ~crashed & (draws.random((trials, n)) < 0.2)
        storers = ~crashed
        eligible = ~(crashed | replay)
        fanout = int(draws.integers(0, n))
        latest = np.full((trials, n), -1, dtype=dtype)
        first_seen = np.full((trials, n), -1, dtype=dtype)
        expected_latest, expected_first = latest.copy(), first_seen.copy()
        scratch = np.empty_like(latest)
        actual_rng = np.random.default_rng(seed + 1)
        expected_rng = np.random.default_rng(seed + 1)
        for version in range(writes):
            touched = storers & (draws.random((trials, n)) < 0.4)
            _record_write(latest, first_seen, touched, version, scratch)
            reference_record_write(expected_latest, expected_first, touched, version, None)
            assert np.array_equal(latest, expected_latest)
            assert np.array_equal(first_seen, expected_first)
            if gossip_rounds:
                latest = gossip_rounds_batch(latest, eligible, fanout, gossip_rounds, actual_rng)
                expected_latest = gossip_rounds_batch(
                    expected_latest, eligible, fanout, gossip_rounds, expected_rng
                )
        assert latest.dtype == first_seen.dtype == np.dtype(dtype)


def scenarios():
    masking = ProbabilisticMaskingSystem(25, 10, 5)
    dissemination = ProbabilisticDisseminationSystem(25, 5, 4)
    plain = UniformEpsilonIntersectingSystem(25, 6)
    return {
        "masking-replay": ScenarioSpec(
            system=masking, failure_model=FailureModel.replay_attack(5)
        ),
        "dissemination-replay": ScenarioSpec(
            system=dissemination, failure_model=FailureModel.replay_attack(4)
        ),
        "plain-crashes": ScenarioSpec(system=plain, failure_model=FailureModel.random_crashes(3)),
    }


def run_both(monkeypatch, run):
    """``run()`` through the engine, then again through the two oracles."""
    actual = run()
    with monkeypatch.context() as patched:
        patched.setattr(batch, "_record_write", reference_record_write)
        patched.setattr(
            BatchTrialEngine, "_best_credible_version", reference_best_credible_version
        )
        expected = run()
    return actual, expected


class TestKernelsMatchMaskedWrites:
    @pytest.mark.parametrize("name", sorted(scenarios()))
    @pytest.mark.parametrize("writes", range(1, 7))
    @pytest.mark.parametrize("gossip_rounds", [0, 1])
    def test_staleness_histories(self, monkeypatch, name, writes, gossip_rounds):
        spec = scenarios()[name]

        def run():
            engine = BatchTrialEngine.from_spec(spec, seed=writes, chunk_size=256)
            return engine.estimate_staleness_distribution(
                600, writes=writes, gossip_rounds_between_writes=gossip_rounds
            ).versions_behind

        actual, expected = run_both(monkeypatch, run)
        assert actual == expected

    @pytest.mark.parametrize("name", sorted(scenarios()))
    @pytest.mark.parametrize(
        "writers,anti_entropy",
        [
            (1, AntiEntropySpec(fanout=2, rounds=2)),
            (3, None),
            (3, AntiEntropySpec(fanout=2, rounds=1)),
        ],
    )
    def test_consistency_kernels(self, monkeypatch, name, writers, anti_entropy):
        base = scenarios()[name]
        spec = ScenarioSpec(
            system=base.system,
            failure_model=base.failure_model,
            writers=writers,
            anti_entropy=anti_entropy,
        )

        def run():
            engine = BatchTrialEngine.from_spec(spec, seed=writers, chunk_size=256)
            report = engine.estimate_read_consistency(600)
            return report.fresh, report.stale, report.empty, report.fabricated

        actual, expected = run_both(monkeypatch, run)
        assert actual == expected
