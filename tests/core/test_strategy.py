"""Tests for access strategies."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strategy as strategy_module
from repro.core.epsilon_intersecting import EpsilonIntersectingSystem
from repro.core.strategy import ExplicitStrategy, UniformSubsetStrategy
from repro.exceptions import ConfigurationError, StrategyError
from repro.quorum.base import membership_matrix
from repro.simulation.batch import BatchTrialEngine


class TestUniformSubsetStrategy:
    def test_samples_have_fixed_size(self, rng):
        strategy = UniformSubsetStrategy(40, 7)
        for _ in range(30):
            quorum = strategy.sample(rng)
            assert len(quorum) == 7
            assert all(0 <= s < 40 for s in quorum)

    def test_expected_quorum_size(self):
        assert UniformSubsetStrategy(40, 7).expected_quorum_size() == 7.0

    def test_weight_of(self):
        strategy = UniformSubsetStrategy(6, 2)
        assert strategy.weight_of(frozenset({0, 1})) == pytest.approx(1 / math.comb(6, 2))
        assert strategy.weight_of(frozenset({0, 1, 2})) == 0.0
        assert strategy.weight_of(frozenset({0, 9})) == 0.0

    def test_per_server_load(self):
        assert UniformSubsetStrategy(100, 23).per_server_load() == pytest.approx(0.23)

    def test_sampling_is_roughly_uniform_over_servers(self):
        strategy = UniformSubsetStrategy(10, 3)
        rng = random.Random(5)
        counts = Counter()
        draws = 6000
        for _ in range(draws):
            for server in strategy.sample(rng):
                counts[server] += 1
        expected = draws * 3 / 10
        for server in range(10):
            assert counts[server] == pytest.approx(expected, rel=0.12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformSubsetStrategy(0, 1)
        with pytest.raises(ConfigurationError):
            UniformSubsetStrategy(5, 0)
        with pytest.raises(ConfigurationError):
            UniformSubsetStrategy(5, 6)

    def test_describe(self):
        assert "UniformSubsets" in UniformSubsetStrategy(5, 2).describe()


class TestExplicitStrategy:
    def test_uniform_by_default(self):
        strategy = ExplicitStrategy([{0, 1}, {1, 2}])
        assert strategy.weights == pytest.approx((0.5, 0.5))
        assert strategy.expected_quorum_size() == pytest.approx(2.0)

    def test_weights_normalised(self):
        strategy = ExplicitStrategy([{0}, {1}, {2}], weights=[1, 1, 2])
        assert strategy.weights == pytest.approx((0.25, 0.25, 0.5))

    def test_weight_of_duplicates_are_merged_by_lookup(self):
        strategy = ExplicitStrategy([{0, 1}, {0, 1}], weights=[0.25, 0.75])
        assert strategy.weight_of(frozenset({0, 1})) == pytest.approx(1.0)

    def test_sampling_respects_weights(self):
        strategy = ExplicitStrategy([{0}, {1}], weights=[0.9, 0.1])
        rng = random.Random(3)
        counts = Counter(tuple(sorted(strategy.sample(rng))) for _ in range(4000))
        assert counts[(0,)] > counts[(1,)] * 4

    def test_per_server_load_and_load(self):
        strategy = ExplicitStrategy([{0, 1}, {1, 2}], weights=[0.5, 0.5])
        assert strategy.per_server_load(3) == pytest.approx([0.5, 1.0, 0.5])
        assert strategy.load(3) == pytest.approx(1.0)

    def test_per_server_load_validates_universe(self):
        strategy = ExplicitStrategy([{0, 7}])
        with pytest.raises(ConfigurationError):
            strategy.per_server_load(3)

    def test_restrict_to(self):
        strategy = ExplicitStrategy([{0, 1}, {1, 2}, {2, 3}], weights=[0.2, 0.3, 0.5])
        restricted = strategy.restrict_to([frozenset({1, 2}), frozenset({2, 3})])
        assert restricted.weight_of(frozenset({1, 2})) == pytest.approx(0.3 / 0.8)
        assert restricted.weight_of(frozenset({0, 1})) == 0.0

    def test_restrict_to_empty_raises(self):
        strategy = ExplicitStrategy([{0, 1}])
        with pytest.raises(StrategyError):
            strategy.restrict_to([frozenset({5, 6})])

    def test_validation(self):
        with pytest.raises(StrategyError):
            ExplicitStrategy([])
        with pytest.raises(StrategyError):
            ExplicitStrategy([set()])
        with pytest.raises(StrategyError):
            ExplicitStrategy([{0}], weights=[1.0, 2.0])
        with pytest.raises(StrategyError):
            ExplicitStrategy([{0}], weights=[-1.0])
        with pytest.raises(StrategyError):
            ExplicitStrategy([{0}, {1}], weights=[0.0, 0.0])

    def test_batch_membership_draws_are_unchanged_across_chunks(self):
        quorums = [{0, 1, 2}, {2, 3}, {4}, {1, 4, 5}]
        weights = [0.4, 0.3, 0.2, 0.1]
        strategy = ExplicitStrategy(quorums, weights=weights)
        generator, oracle = np.random.default_rng(11), np.random.default_rng(11)
        for n, trials, buffered in [(6, 50, False), (6, 50, True), (8, 7, True), (6, 3, False)]:
            out = np.empty((trials, n), dtype=bool) if buffered else None
            drawn = strategy.sample_batch_membership(n, trials, generator, out=out)
            chosen = oracle.choice(len(quorums), size=trials, p=np.asarray(weights))
            assert np.array_equal(drawn, membership_matrix(quorums, n)[chosen])
            assert drawn.flags.writeable
        assert generator.random() == oracle.random()

    def test_batch_membership_builds_the_support_matrix_once(self, monkeypatch):
        built = []

        def counting(quorums, n):
            built.append(n)
            return membership_matrix(quorums, n)

        monkeypatch.setattr(strategy_module, "membership_matrix", counting)
        system = EpsilonIntersectingSystem(6, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}])
        engine = BatchTrialEngine(system, seed=2, chunk_size=100)
        report = engine.estimate_read_consistency(450)  # five chunks, two draws each
        assert report.trials == 450
        assert built == [6]

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_weights_always_sum_to_one(self, quorums):
        strategy = ExplicitStrategy(quorums)
        assert sum(strategy.weights) == pytest.approx(1.0)
        assert strategy.sample(random.Random(0)) in set(strategy.quorums)
