"""Tests for the batched Monte-Carlo trial engine.

Two kinds of guarantees are pinned down here:

* **equivalence** — the batch engine estimates the same probabilities as
  the sequential protocol-stack oracle.  The engines share no RNG stream,
  so agreement is statistical: by Hoeffding, each engine's estimate of a
  Bernoulli mean over ``m`` trials deviates from the truth by more than
  ``t = sqrt(ln(2/δ) / (2m))`` with probability at most ``δ``; the two
  estimates therefore differ by more than ``t_seq + t_bat`` with
  probability below ``2δ``.  With ``δ = 1e-9`` per side the tests are
  deterministic for all practical purposes while still failing loudly on
  any systematic bias;
* **invariants** — batched access-set sampling produces exactly the
  uniform size-``q`` subsets the strategy promises (property-tested with
  hypothesis), failure masks are disjoint and correctly sized, and the
  chunked substreams make runs reproducible.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.core.strategy import ExplicitStrategy, UniformSubsetStrategy
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.quorum.base import MASK_BLOCK_RANKS, sample_subset_batch, sample_subset_mask
from repro.quorum.measures import load_of_strategy
from repro.simulation import batch
from repro.simulation.batch import BatchTrialEngine, classify_threshold_votes
from repro.simulation.client import measure_system_load
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    estimate_staleness_distribution,
    history_values,
    multiwriter_values,
)
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec

EQUIVALENCE_TRIALS = 10_000


def hoeffding_tolerance(trials: int, delta: float = 1e-9) -> float:
    """Deviation bound ``t`` with ``P(|p̂ - p| > t) <= delta`` (Hoeffding)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


def two_sided_tolerance(trials_a: int, trials_b: int) -> float:
    """Tolerance for comparing two independent empirical means."""
    return hoeffding_tolerance(trials_a) + hoeffding_tolerance(trials_b)


#: Rows of one mask-kernel block at n = 100.
BLOCK_ROWS_AT_100 = MASK_BLOCK_RANKS // 100


def whole_matrix_mask(n: int, size: int, trials: int, generator) -> np.ndarray:
    """The k-of-n mask kernel over the whole matrix at once: the row-blocked kernel's oracle."""
    ranks = generator.random((trials, n))
    kth = np.partition(ranks, size - 1, axis=1)[:, size - 1 : size]
    mask = ranks <= kth
    if np.count_nonzero(mask) != trials * size:
        mask[:] = False
        np.put_along_axis(mask, np.argpartition(ranks, size - 1, axis=1)[:, :size], True, axis=1)
    return mask


class TestEngineEquivalence:
    """Batch and sequential engines agree within Chernoff-derived tolerance."""

    # A deliberately loose construction keeps the miss probability far from
    # 0/1, where disagreement is easiest to detect.
    SYSTEM = UniformEpsilonIntersectingSystem(25, 5)

    def _both(self, model, trials=EQUIVALENCE_TRIALS):
        spec = ScenarioSpec(system=self.SYSTEM, failure_model=model)
        sequential = estimate_read_consistency(spec, trials=trials, seed=42)
        batch = estimate_read_consistency(spec, trials=trials, seed=42, engine="batch")
        return sequential, batch

    def test_no_failures(self):
        sequential, batch = self._both(FailureModel.none())
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        assert batch.fabricated == sequential.fabricated == 0
        assert batch.stale == sequential.stale == 0

    def test_independent_crashes(self):
        sequential, batch = self._both(FailureModel.independent_crashes(0.3))
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        assert batch.fabricated == sequential.fabricated == 0

    def test_colluding_forgers(self):
        model = FailureModel.colluding_forgers(4, "FORGED", Timestamp.forged_maximum())
        sequential, batch = self._both(model)
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        assert batch.fabricated_fraction == pytest.approx(
            sequential.fabricated_fraction, abs=tol
        )

    def test_tying_forgery_agreement_pins_the_deterministic_rule(self):
        # PR 2 known-gap regression: a forged timestamp that *ties* the honest
        # write used to be reply-order dependent sequentially and rejected by
        # the batch engine.  Both engines now apply the shared deterministic
        # tie rule, so they must agree on every outcome class.  Three value
        # configurations cover both tiebreak branches and the collision case:
        # repr('FORGED') < repr('v') (honest wins exhausted ties),
        # repr('zFORGED') > repr('v') (forgery wins them), and a forged value
        # equal to the honest one (the pairs merge).
        for fabricated_value in ("FORGED", "zFORGED", "v"):
            model = FailureModel.colluding_forgers(4, fabricated_value, Timestamp(1, 0))
            sequential, batch = self._both(model)
            tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
            assert batch.fresh_fraction == pytest.approx(
                sequential.fresh_fraction, abs=tol
            ), fabricated_value
            assert batch.fabricated_fraction == pytest.approx(
                sequential.fabricated_fraction, abs=tol
            ), fabricated_value
            # A losing tie is not stale — the forgery carries the winning
            # timestamp — and an equal-value forgery cannot fabricate at all.
            assert batch.stale == sequential.stale == 0
            if fabricated_value == "v":
                assert batch.fabricated == sequential.fabricated == 0

    def test_silent_byzantine_and_replay(self):
        for model in (FailureModel.random_byzantine(4), FailureModel.replay_attack(4)):
            sequential, batch = self._both(model, trials=4_000)
            tol = two_sided_tolerance(4_000, 4_000)
            assert batch.fresh_fraction == pytest.approx(
                sequential.fresh_fraction, abs=tol
            )
            assert batch.fabricated == sequential.fabricated == 0

    def test_matches_analytical_epsilon(self):
        # The batch engine on its own must track the exact closed form.
        batch = estimate_read_consistency(
            ScenarioSpec(system=self.SYSTEM), trials=40_000, seed=7, engine="batch"
        )
        assert batch.error_fraction == pytest.approx(
            self.SYSTEM.epsilon, abs=hoeffding_tolerance(40_000)
        )

    def test_staleness_distribution_agrees(self):
        spec = ScenarioSpec(system=self.SYSTEM, workload=WorkloadSpec(writes=4))
        sequential = estimate_staleness_distribution(spec, trials=3_000, seed=9)
        batch = estimate_staleness_distribution(
            spec, trials=EQUIVALENCE_TRIALS, seed=9, engine="batch"
        )
        tol = two_sided_tolerance(3_000, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        # Mean lag over writes=4 is bounded by 4; scale the tolerance with it.
        assert batch.mean_lag == pytest.approx(sequential.mean_lag, abs=4 * tol)

    def test_gossip_drives_staleness_down_in_batch_mode(self):
        without = estimate_staleness_distribution(
            ScenarioSpec(system=self.SYSTEM, workload=WorkloadSpec(writes=4)),
            trials=4_000,
            seed=13,
            engine="batch",
        )
        gossiped = WorkloadSpec(writes=4, gossip_rounds_between_writes=3, gossip_fanout=3)
        with_gossip = estimate_staleness_distribution(
            ScenarioSpec(system=self.SYSTEM, workload=gossiped),
            trials=4_000,
            seed=13,
            engine="batch",
        )
        assert with_gossip.fresh_fraction > without.fresh_fraction
        assert with_gossip.mean_lag < without.mean_lag


class TestTyingForgeryEquivalence:
    """Forgeries tying an honest timestamp agree across engines at 10k trials.

    The version-history kernel resolves a forged timestamp equal to honest
    version ``t``'s as the read rule does: more votes win, an exhausted tie
    goes to the larger tiebreak key, and a forged value equal to version
    ``t``'s merges with it.  Each case runs the forged values ``"FORGED"``
    and ``"zFORGED"``, whose reprs open with a quote and so lose exhausted
    ties to the tuple values of histories and contention rounds (``"zFORGED"``
    beats the single write's ``"v"``), ``("zFORGED",)``, which beats those
    tuples, and the tied version's own value.  Twelve servers, quorums of
    four and four forgers make every outcome class frequent.
    """

    SYSTEM = UniformEpsilonIntersectingSystem(12, 4)
    TOLERANCE = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)

    def _spec(self, value, timestamp, **kwargs):
        model = FailureModel.colluding_forgers(4, value, timestamp)
        return ScenarioSpec(system=self.SYSTEM, failure_model=model, **kwargs)

    def _consistency_agrees(self, spec, label):
        sequential, batch = (
            estimate_read_consistency(spec, trials=EQUIVALENCE_TRIALS, seed=11, engine=engine)
            for engine in ("sequential", "batch")
        )
        for outcome in ("fresh", "stale", "empty", "fabricated"):
            assert getattr(batch, outcome) / EQUIVALENCE_TRIALS == pytest.approx(
                getattr(sequential, outcome) / EQUIVALENCE_TRIALS, abs=self.TOLERANCE
            ), (label, outcome)
        return batch

    @pytest.mark.parametrize("tied_version", [0, 1, 2])
    def test_staleness_history(self, tied_version):
        writes = 3
        own_value = history_values(writes)[tied_version]
        for value in ("FORGED", "zFORGED", ("zFORGED",), own_value):
            spec = self._spec(
                value, Timestamp(tied_version + 1, 0), workload=WorkloadSpec(writes=writes)
            )
            sequential, batch = (
                estimate_staleness_distribution(
                    spec, trials=EQUIVALENCE_TRIALS, seed=3, engine=engine
                ).lag_histogram()
                for engine in ("sequential", "batch")
            )
            for lag in range(writes + 1):
                assert batch.get(lag, 0) / EQUIVALENCE_TRIALS == pytest.approx(
                    sequential.get(lag, 0) / EQUIVALENCE_TRIALS, abs=self.TOLERANCE
                ), (value, lag)

    @pytest.mark.parametrize("tied_writer", [0, 2])
    def test_contention(self, tied_writer):
        # Tying the winner (writer 2) fabricates; tying a lower writer is stale.
        own_value = multiwriter_values("v", 3)[tied_writer]
        for value in ("FORGED", "zFORGED", ("zFORGED",), own_value):
            spec = self._spec(value, Timestamp(1, tied_writer), writers=3)
            batch = self._consistency_agrees(spec, value)
            if tied_writer < 2 or value == own_value:
                assert batch.fabricated == 0, value
            else:
                assert batch.fabricated > 0, value

    def test_gossiped_write(self):
        # The conformance grid's gossip shape (see ROADMAP on the gossip
        # round model, which one-push rounds expose).
        gossip = AntiEntropySpec(fanout=3, rounds=2)
        for value in ("FORGED", "zFORGED", "v"):
            spec = self._spec(value, Timestamp(1, 0), anti_entropy=gossip)
            batch = self._consistency_agrees(spec, value)
            assert batch.stale == 0, value


class TestByzantineEngineEquivalence:
    """Masking and dissemination scenarios agree across engines (Hoeffding).

    The systems are deliberately loose (mid-range epsilon) so every outcome
    class — fresh, stale/⊥ and, for masking, fabricated — has probability
    far from 0/1, where a systematic divergence is easiest to detect.
    """

    # Rk(25, 10) with b=5: threshold k = ceil(100/50) = 2.
    MASKING = ProbabilisticMaskingSystem(25, 10, 5)
    DISSEMINATION = ProbabilisticDisseminationSystem(25, 5, 4)

    def _both(self, spec, trials=EQUIVALENCE_TRIALS):
        sequential = estimate_read_consistency(spec, trials=trials, seed=42)
        batch = estimate_read_consistency(spec, trials=trials, seed=42, engine="batch")
        return sequential, batch

    def test_masking_colluding_forgers(self):
        spec = ScenarioSpec(
            system=self.MASKING,
            failure_model=FailureModel.colluding_forgers(
                5, "FORGED", Timestamp.forged_maximum()
            ),
        )
        assert spec.read_rule().threshold == 2
        sequential, batch = self._both(spec)
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        assert batch.fabricated_fraction == pytest.approx(
            sequential.fabricated_fraction, abs=tol
        )
        # The threshold must actually bite: fabrication needs >= 2 forgers in
        # the read quorum, so it is rarer than under the benign single-vote
        # read of the same system and failure model.
        benign = ScenarioSpec(
            system=self.MASKING,
            failure_model=spec.failure_model,
            register_kind="plain",
        )
        benign_batch = estimate_read_consistency(
            benign, trials=EQUIVALENCE_TRIALS, seed=42, engine="batch"
        )
        assert batch.fabricated < benign_batch.fabricated

    def test_masking_silent_and_crash_models(self):
        for model in (
            FailureModel.random_byzantine(5),
            FailureModel.independent_crashes(0.2),
        ):
            spec = ScenarioSpec(system=self.MASKING, failure_model=model)
            sequential, batch = self._both(spec, trials=4_000)
            tol = two_sided_tolerance(4_000, 4_000)
            assert batch.fresh_fraction == pytest.approx(
                sequential.fresh_fraction, abs=tol
            )
            assert batch.fabricated == sequential.fabricated == 0

    def test_dissemination_forgers_are_discarded(self):
        spec = ScenarioSpec(
            system=self.DISSEMINATION,
            failure_model=FailureModel.colluding_forgers(
                4, "FORGED", Timestamp.forged_maximum()
            ),
        )
        assert spec.read_rule().signatures is not None
        sequential, batch = self._both(spec)
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        # Signature verification makes fabrication impossible on both engines.
        assert batch.fabricated == sequential.fabricated == 0

    def test_dissemination_silent_and_replay(self):
        for model in (FailureModel.random_byzantine(4), FailureModel.replay_attack(4)):
            spec = ScenarioSpec(system=self.DISSEMINATION, failure_model=model)
            sequential, batch = self._both(spec, trials=4_000)
            tol = two_sided_tolerance(4_000, 4_000)
            assert batch.fresh_fraction == pytest.approx(
                sequential.fresh_fraction, abs=tol
            )
            assert batch.fabricated == sequential.fabricated == 0

    def test_masking_staleness_distribution_agrees(self):
        spec = ScenarioSpec(
            system=self.MASKING,
            failure_model=FailureModel.colluding_forgers(
                5, "FORGED", Timestamp.forged_maximum()
            ),
            workload=WorkloadSpec(writes=3),
        )
        sequential = estimate_staleness_distribution(spec, trials=3_000, seed=9)
        batch = estimate_staleness_distribution(
            spec, trials=EQUIVALENCE_TRIALS, seed=9, engine="batch"
        )
        tol = two_sided_tolerance(3_000, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        # Mean lag over writes=3 is bounded by 3; scale the tolerance with it.
        assert batch.mean_lag == pytest.approx(sequential.mean_lag, abs=3 * tol)

    def test_dissemination_staleness_distribution_agrees(self):
        spec = ScenarioSpec(
            system=self.DISSEMINATION,
            failure_model=FailureModel.replay_attack(4),
            workload=WorkloadSpec(writes=4),
        )
        sequential = estimate_staleness_distribution(spec, trials=3_000, seed=15)
        batch = estimate_staleness_distribution(
            spec, trials=EQUIVALENCE_TRIALS, seed=15, engine="batch"
        )
        tol = two_sided_tolerance(3_000, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(sequential.fresh_fraction, abs=tol)
        assert batch.mean_lag == pytest.approx(sequential.mean_lag, abs=4 * tol)


class TestThresholdVoteKernel:
    """Property tests for the threshold-vote classification kernel."""

    @given(
        votes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=1,
            max_size=64,
        ),
        threshold=st.integers(min_value=1, max_value=13),
        outranks=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_masks_partition_every_trial(self, votes, threshold, outranks):
        honest = np.array([h for h, _ in votes])
        forged = np.array([f for _, f in votes])
        fresh, stale, empty, fabricated = classify_threshold_votes(
            honest, forged, threshold, outranks
        )
        total = (
            fresh.astype(int) + stale.astype(int) + empty.astype(int) + fabricated.astype(int)
        )
        assert (total == 1).all()
        # Fabrication requires the forgery to clear the threshold AND outrank.
        assert not fabricated[forged < threshold].any()
        if not outranks:
            assert not fabricated.any()

    @given(
        votes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=64,
        ),
        outranks=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_k_equals_one_reduces_to_benign_classifier(self, votes, outranks):
        honest = np.array([h for h, _ in votes])
        forged = np.array([f for _, f in votes])
        fresh, stale, empty, fabricated = classify_threshold_votes(
            honest, forged, 1, outranks
        )
        # The benign Section 3.1 classifier, written as set membership.
        has_fresh = honest >= 1
        has_forged = forged >= 1
        assert (fresh == (has_fresh & ~(has_forged & outranks))).all()
        assert (fabricated == (has_forged & outranks)).all()
        assert (stale == (has_forged & ~outranks & ~has_fresh)).all()
        assert (empty == (~has_fresh & ~has_forged)).all()

    @given(
        votes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=1,
            max_size=32,
        ),
        threshold=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_threshold_never_increases_fabrication(self, votes, threshold):
        honest = np.array([h for h, _ in votes])
        forged = np.array([f for _, f in votes])
        _, _, _, fab_low = classify_threshold_votes(honest, forged, threshold, True)
        _, _, _, fab_high = classify_threshold_votes(honest, forged, threshold + 1, True)
        assert fab_high.sum() <= fab_low.sum()

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            classify_threshold_votes(np.array([1]), np.array([0]), 0, False)


class TestBatchSamplingInvariants:
    """Property tests: batched access sets respect the strategy's contract."""

    @given(
        n=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_subset_batch_rows_are_uniform_subsets(self, n, data):
        size = data.draw(st.integers(min_value=1, max_value=n))
        trials = data.draw(st.integers(min_value=0, max_value=40))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        generator = np.random.default_rng(seed)
        matrix = sample_subset_batch(n, size, trials, generator)
        assert matrix.shape == (trials, size)
        assert np.issubdtype(matrix.dtype, np.integer)
        if trials:
            assert matrix.min() >= 0 and matrix.max() < n
            # Every row is a subset: exactly `size` *distinct* server ids.
            for row in matrix:
                assert len(set(row.tolist())) == size
        # The mask kernel makes the same draws and marks the same sets.
        mask_generator = np.random.default_rng(seed)
        mask = sample_subset_mask(n, size, trials, mask_generator)
        expected = np.zeros((trials, n), dtype=bool)
        np.put_along_axis(expected, matrix, True, axis=1)
        assert mask.dtype == bool
        assert np.array_equal(mask, expected)
        assert mask_generator.random() == generator.random()

    def test_sample_subset_mask_ties_fall_back_to_the_argpartition_pick(self):
        # Uniforms tied at the threshold would mark more than `size` servers
        # by comparison alone; those rows must take argpartition's pick.
        ranks = np.array(
            [
                [0.5, 0.2, 0.5, 0.9, 0.5, 0.1],
                [0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                [0.6, 0.1, 0.4, 0.2, 0.8, 0.7],
            ]
        )

        class TiedGenerator:
            def random(self, shape):
                assert shape == ranks.shape
                return ranks.copy()

        size = 3
        out = np.ones(ranks.shape, dtype=bool)
        mask = sample_subset_mask(6, size, 3, TiedGenerator(), out=out)
        assert mask is out
        assert (mask.sum(axis=1) == size).all()
        expected = np.zeros(ranks.shape, dtype=bool)
        picks = np.argpartition(ranks, size - 1, axis=1)[:, :size]
        np.put_along_axis(expected, picks, True, axis=1)
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize(
        "n, size, trials",
        [
            (100, 30, BLOCK_ROWS_AT_100 - 1),
            (100, 30, BLOCK_ROWS_AT_100),
            (100, 30, BLOCK_ROWS_AT_100 + 1),
            (100, 30, 4097),
            (100, 1, 4097),
            (100, 99, 4097),
            # A block holds a single row once a row outgrows half a block.
            (MASK_BLOCK_RANKS // 2 + 1, 1000, 3),
            (MASK_BLOCK_RANKS + 5, 7, 2),
        ],
    )
    def test_sample_subset_mask_blocks_match_the_whole_matrix_kernel(self, n, size, trials):
        generator = np.random.default_rng(n * 7919 + trials)
        oracle_generator = np.random.default_rng(n * 7919 + trials)
        mask = sample_subset_mask(n, size, trials, generator)
        assert np.array_equal(mask, whole_matrix_mask(n, size, trials, oracle_generator))
        assert generator.random() == oracle_generator.random()

    def test_sample_subset_mask_ties_fall_back_block_by_block(self):
        # Uniforms rounded to tenths tie at almost every row's threshold, so
        # every block of the run takes the argpartition fallback on its own.
        class CoarseGenerator:
            def __init__(self, seed):
                self.generator = np.random.default_rng(seed)

            def random(self, shape=None):
                return np.round(self.generator.random(shape), 1)

        n, size, trials = 100, 30, 2 * BLOCK_ROWS_AT_100 + 17
        generator, oracle_generator = CoarseGenerator(5), CoarseGenerator(5)
        mask = sample_subset_mask(n, size, trials, generator)
        assert (mask.sum(axis=1) == size).all()
        assert np.array_equal(mask, whole_matrix_mask(n, size, trials, oracle_generator))
        assert generator.random() == oracle_generator.random()

    @given(
        n=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_strategy_membership_row_sums(self, n, data):
        size = data.draw(st.integers(min_value=1, max_value=n))
        trials = data.draw(st.integers(min_value=0, max_value=40))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        strategy = UniformSubsetStrategy(n, size)
        member = strategy.sample_batch_membership(n, trials, np.random.default_rng(seed))
        assert member.shape == (trials, n)
        assert member.dtype == bool
        assert (member.sum(axis=1) == size).all()

    def test_uniform_strategy_rejects_mismatched_universe(self):
        strategy = UniformSubsetStrategy(10, 3)
        with pytest.raises(ConfigurationError):
            strategy.sample_batch_membership(11, 5, np.random.default_rng(0))

    def test_explicit_strategy_membership_rows_come_from_support(self):
        quorums = [{0, 1, 2}, {2, 3}, {4}]
        strategy = ExplicitStrategy(quorums, weights=[0.5, 0.3, 0.2])
        member = strategy.sample_batch_membership(6, 200, np.random.default_rng(1))
        support = {frozenset(q) for q in quorums}
        for row in member:
            assert frozenset(np.flatnonzero(row).tolist()) in support

    def test_base_class_fallback_matches_membership_contract(self):
        # Strategies that do not override the batched sampler still work
        # through the AccessStrategy fallback (one sample() per trial).
        strategy = ExplicitStrategy([{0, 1}, {2}])
        fallback = super(ExplicitStrategy, strategy).sample_batch_membership
        member = fallback(4, 50, np.random.default_rng(2))
        assert member.shape == (50, 4)
        support = {frozenset({0, 1}), frozenset({2})}
        for row in member:
            assert frozenset(np.flatnonzero(row).tolist()) in support

    def test_failure_masks_are_disjoint_and_sized(self):
        model = FailureModel.colluding_forgers(7, "F", Timestamp.forged_maximum())
        masks = model.sample_masks(30, 100, np.random.default_rng(3))
        assert masks.forgers.sum() == 7 * 100
        assert not masks.crashed.any() and not masks.silent.any()
        crashes = FailureModel.random_crashes(5).sample_masks(
            30, 100, np.random.default_rng(4)
        )
        assert (crashes.crashed.sum(axis=1) == 5).all()
        independent = FailureModel.independent_crashes(0.25).sample_masks(
            30, 2_000, np.random.default_rng(5)
        )
        assert independent.crashed.mean() == pytest.approx(0.25, abs=0.02)

    def test_failure_model_plans_match_the_model(self):
        model = FailureModel.random_byzantine(3)
        plan = model.sample_plan_for(20, random.Random(0))
        assert len(plan.byzantine) == 3
        assert not plan.crashed


class TestEngineDispatchAndDeterminism:
    SPEC = ScenarioSpec(system=UniformEpsilonIntersectingSystem(25, 8))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(self.SPEC, trials=10, engine="warp")

    def test_sequential_engine_accepts_declarative_specs(self):
        spec = replace(self.SPEC, failure_model=FailureModel.independent_crashes(0.1))
        report = estimate_read_consistency(spec, trials=50, seed=1)
        assert report.trials == 50

    def test_batch_runs_are_reproducible(self):
        first = estimate_read_consistency(self.SPEC, trials=5_000, seed=21, engine="batch")
        second = estimate_read_consistency(self.SPEC, trials=5_000, seed=21, engine="batch")
        assert (first.fresh, first.stale, first.empty, first.fabricated) == (
            second.fresh,
            second.stale,
            second.empty,
            second.fabricated,
        )

    def test_chunked_execution_covers_every_trial(self):
        engine = BatchTrialEngine(self.SPEC, seed=0, chunk_size=700)
        report = engine.estimate_read_consistency(5_000)
        assert report.trials == 5_000
        assert report.fresh + report.stale + report.empty + report.fabricated == 5_000

    def test_trial_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(self.SPEC, trials=0, engine="batch")
        with pytest.raises(ConfigurationError):
            BatchTrialEngine(self.SPEC, chunk_size=0)

    def test_tying_forgery_is_modelled_for_single_write_scenarios(self):
        # A forgery whose timestamp equals the honest write's resolves through
        # the deterministic tie rule of repro.protocol.selection, so the
        # single-write estimator now models it instead of rejecting it.
        tying = FailureModel.colluding_forgers(3, "FORGED", Timestamp(1, 0))
        report = estimate_read_consistency(
            replace(self.SPEC, failure_model=tying), trials=100, engine="batch"
        )
        assert report.trials == 100

    def test_tying_forgery_is_still_fenced_for_write_histories(self):
        # Non-tying forgeries (the paper's forged_maximum) run; tying ones,
        # histories included, are TestTyingForgeryEquivalence's.
        forgers = FailureModel.colluding_forgers(3, "F", Timestamp.forged_maximum())
        report = estimate_read_consistency(
            replace(self.SPEC, failure_model=forgers), trials=100, engine="batch"
        )
        assert report.trials == 100


#: One-write scenarios whose chunks run concurrently: threshold votes, a
#: signature-checked read, and a forgery tying the honest timestamp.
CONCURRENT_SPECS = {
    "masking": ScenarioSpec(
        system=ProbabilisticMaskingSystem(60, 25, 3),
        failure_model=FailureModel.colluding_forgers(3, "forged", Timestamp.forged_maximum()),
    ),
    "dissemination": ScenarioSpec(
        system=ProbabilisticDisseminationSystem(60, 20, 4),
        failure_model=FailureModel.random_crashes(4),
    ),
    "tying": ScenarioSpec(
        system=ProbabilisticMaskingSystem(60, 25, 3),
        failure_model=FailureModel.colluding_forgers(3, "zz-forged", Timestamp(1, 0)),
    ),
}


def _counts(report) -> tuple:
    return (report.fresh, report.stale, report.empty, report.fabricated)


def _estimate_in_child(spec, trials, chunk_size, connection) -> None:
    engine = BatchTrialEngine(spec, seed=3, chunk_size=chunk_size)
    connection.send(_counts(engine.estimate_read_consistency(trials)))
    connection.close()


def _helper_threads() -> list:
    return [t for t in threading.enumerate() if t.name == "repro-batch-helper"]


class TestConcurrentChunks:
    """One-write chunks run on the calling thread and helpers, with unchanged results."""

    CHUNK = 500
    TRIALS = 2_300  # five chunks, the last one short

    def _engine(self, name: str) -> BatchTrialEngine:
        return BatchTrialEngine(CONCURRENT_SPECS[name], seed=3, chunk_size=self.CHUNK)

    @pytest.mark.parametrize("name", sorted(CONCURRENT_SPECS))
    def test_reports_do_not_depend_on_the_helper_count(self, name, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 0)
        alone = _counts(self._engine(name).estimate_read_consistency(self.TRIALS))
        # Two chunks must be in flight at once: the first two wait for each other.
        meet = threading.Barrier(2, timeout=30)
        started = []
        run_chunk = BatchTrialEngine._one_write

        def rendezvous(engine, generator, size, forgery):
            started.append(threading.current_thread().name)
            if len(started) <= 2:
                meet.wait()
            return run_chunk(engine, generator, size, forgery)

        monkeypatch.setattr(BatchTrialEngine, "_one_write", rendezvous)
        for helpers in (1, 3):
            monkeypatch.setattr(batch, "_helper_count", lambda helpers=helpers: helpers)
            started.clear()
            meet.reset()
            assert _counts(self._engine(name).estimate_read_consistency(self.TRIALS)) == alone
            assert len(started) == 5
            assert "repro-batch-helper" in started[:2]
        assert not _helper_threads()

    def test_concurrent_callers_each_get_their_solo_result(self, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 3)
        shared = self._engine("masking")
        gossiped = BatchTrialEngine(HISTORY_SPECS["gossiped"], seed=3, chunk_size=self.CHUNK)
        engines = [shared, shared, self._engine("dissemination"), self._engine("tying"), gossiped]
        solo = [_counts(engine.estimate_read_consistency(self.TRIALS)) for engine in engines]
        results = [[] for _ in engines]
        start = threading.Barrier(len(engines), timeout=30)

        def call(index):
            start.wait()
            for _ in range(3):
                results[index].append(
                    _counts(engines[index].estimate_read_consistency(self.TRIALS))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(engines))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [[expected] * 3 for expected in solo]
        assert not _helper_threads()

    def test_a_failing_helper_chunk_propagates_and_no_helper_survives(self, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 1)
        helper_failed = threading.Event()
        started = []
        run_chunk = BatchTrialEngine._one_write

        def failing_on_helpers(engine, generator, size, forgery):
            started.append(threading.current_thread().name)
            if threading.current_thread().name == "repro-batch-helper":
                helper_failed.set()
                raise RuntimeError("helper chunk failed")
            assert helper_failed.wait(timeout=30)
            return run_chunk(engine, generator, size, forgery)

        monkeypatch.setattr(BatchTrialEngine, "_one_write", failing_on_helpers)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            self._engine("masking").estimate_read_consistency(self.TRIALS)
        # After the failure no thread starts another chunk: at most the
        # calling thread's one in flight ran besides the failed one.
        assert started.count("repro-batch-helper") == 1
        assert len(started) <= 2
        assert not _helper_threads()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_a_forked_child_repeats_the_estimate(self, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 2)
        spec = CONCURRENT_SPECS["masking"]
        expected = _counts(self._engine("masking").estimate_read_consistency(self.TRIALS))
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_estimate_in_child, args=(spec, self.TRIALS, self.CHUNK, sender)
        )
        child.start()
        try:
            assert receiver.poll(timeout=60), "the forked child hung"
            assert receiver.recv() == expected
            child.join(timeout=30)
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()


#: Version-history estimates whose chunks run concurrently: a staleness
#: history with gossip between writes, three concurrent writers and a write
#: followed by anti-entropy rounds, over replaying and forging servers.
HISTORY_SYSTEM = ProbabilisticMaskingSystem(60, 25, 3)
HISTORY_SPECS = {
    "staleness": ScenarioSpec(
        system=UniformEpsilonIntersectingSystem(60, 8),
        failure_model=FailureModel.random_crashes(4),
        workload=WorkloadSpec(writes=4, gossip_rounds_between_writes=1),
    ),
    "multiwriter": ScenarioSpec(
        system=HISTORY_SYSTEM, failure_model=FailureModel.replay_attack(3), writers=3
    ),
    "gossiped": ScenarioSpec(
        system=HISTORY_SYSTEM,
        failure_model=FailureModel.colluding_forgers(3, "forged", Timestamp.forged_maximum()),
        anti_entropy=AntiEntropySpec(fanout=2, rounds=1),
    ),
}


def _history_outcome(name: str, chunk_size: int, trials: int) -> tuple:
    """The report of one history estimate: lags in trial order, or outcome counts."""
    engine = BatchTrialEngine(HISTORY_SPECS[name], seed=5, chunk_size=chunk_size)
    if name == "staleness":
        report = engine.estimate_staleness_distribution(trials)
        return tuple(report.versions_behind)
    return _counts(engine.estimate_read_consistency(trials))


def _wrap_chunks(monkeypatch, wrapper) -> None:
    """Run every chunk of the chunk runner as ``wrapper(work, generator, size)``."""
    run_chunks = batch._run_chunks

    def wrapped(seed, trials, chunk_size, work):
        return run_chunks(seed, trials, chunk_size, functools.partial(wrapper, work))

    monkeypatch.setattr(batch, "_run_chunks", wrapped)


class TestConcurrentHistories:
    """Version-history chunks run on the calling thread and helpers, with unchanged results."""

    CHUNK = 500
    TRIALS = 2_300  # five chunks, the last one short

    @pytest.mark.parametrize("name", sorted(HISTORY_SPECS))
    def test_reports_do_not_depend_on_the_helper_count(self, name, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 0)
        alone = _history_outcome(name, self.CHUNK, self.TRIALS)
        # Two chunks must be in flight at once: the first two wait for each other.
        meet = threading.Barrier(2, timeout=30)
        started = []

        def rendezvous(work, generator, size):
            started.append(threading.current_thread().name)
            if len(started) <= 2:
                meet.wait()
            return work(generator, size)

        _wrap_chunks(monkeypatch, rendezvous)
        for helpers in (1, 3):
            monkeypatch.setattr(batch, "_helper_count", lambda helpers=helpers: helpers)
            started.clear()
            meet.reset()
            assert _history_outcome(name, self.CHUNK, self.TRIALS) == alone
            assert len(started) == 5
            assert "repro-batch-helper" in started[:2]
        assert not _helper_threads()

    def test_versions_behind_keep_trial_order_when_chunks_finish_out_of_order(
        self, monkeypatch
    ):
        monkeypatch.setattr(batch, "_helper_count", lambda: 0)
        alone = _history_outcome("staleness", self.CHUNK, self.TRIALS)
        # The lags differ between chunks, so a reordering would show.
        chunk_lags = [alone[at : at + self.CHUNK] for at in range(0, self.TRIALS, self.CHUNK)]
        assert len(set(chunk_lags)) == len(chunk_lags)
        # The first chunk taken finishes only after every other chunk has.
        others_done = threading.Event()
        started, finished = [], []
        lock = threading.Lock()

        def first_finishes_last(work, generator, size):
            with lock:
                index = len(started)
                started.append(index)
            if index == 0:
                assert others_done.wait(timeout=30)
            result = work(generator, size)
            with lock:
                finished.append(index)
                if len(finished) == len(chunk_lags) - 1:
                    others_done.set()
            return result

        _wrap_chunks(monkeypatch, first_finishes_last)
        monkeypatch.setattr(batch, "_helper_count", lambda: 1)
        assert _history_outcome("staleness", self.CHUNK, self.TRIALS) == alone
        assert finished[-1] == 0
        assert not _helper_threads()

    def test_a_failing_helper_chunk_propagates_and_no_helper_survives(self, monkeypatch):
        monkeypatch.setattr(batch, "_helper_count", lambda: 1)
        helper_failed = threading.Event()
        started = []

        def failing_on_helpers(work, generator, size):
            started.append(threading.current_thread().name)
            if threading.current_thread().name == "repro-batch-helper":
                helper_failed.set()
                raise RuntimeError("helper chunk failed")
            assert helper_failed.wait(timeout=30)
            return work(generator, size)

        _wrap_chunks(monkeypatch, failing_on_helpers)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            _history_outcome("staleness", self.CHUNK, self.TRIALS)
        # After the failure no thread starts another chunk.
        assert started.count("repro-batch-helper") == 1
        assert len(started) <= 2
        assert not _helper_threads()


class TestBatchLoadMeasurement:
    def test_measure_system_load_engines_agree(self):
        system = UniformEpsilonIntersectingSystem(50, 10)
        sequential = measure_system_load(system, accesses=6_000, seed=1)
        batch = measure_system_load(system, accesses=6_000, seed=1, engine="batch")
        assert batch.accesses == 6_000
        assert sum(batch.per_server_counts) == 6_000 * 10
        # Analytical load is q/n = 0.2 for every server.
        assert batch.max_load == pytest.approx(0.2, abs=0.03)
        assert batch.mean_load == pytest.approx(sequential.mean_load, abs=1e-9)

    def test_load_of_strategy_empirical_mode(self):
        quorums = [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
        weights = [0.6, 0.4]
        exact = load_of_strategy(quorums, weights, 5)
        for engine in ("batch", "sequential"):
            empirical = load_of_strategy(
                quorums, weights, 5, empirical_trials=20_000, seed=3, engine=engine
            )
            assert empirical == pytest.approx(exact, abs=hoeffding_tolerance(20_000))
        with pytest.raises(ConfigurationError):
            load_of_strategy(quorums, weights, 5, empirical_trials=0)
        with pytest.raises(ConfigurationError):
            load_of_strategy(quorums, weights, 5, empirical_trials=100, engine="warp")
