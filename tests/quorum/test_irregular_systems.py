"""Exact measures on irregular strict systems built as explicit quorum lists.

Threshold and grid systems are symmetric: every server carries the same
load and the uniform strategy is optimal.  The systems here are not — a
crumbling wall (Peleg & Wool: one full row plus one server from every row
below it), Gifford-style weighted voting and the singleton — so they exercise
the generic machinery that :class:`ExplicitQuorumSystem` delegates to (the
load LP, the exact minimum hitting set, Monte-Carlo ``Fp``, greedy probing)
against closed forms derived independently for each structure.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.failure_probability import (
    majority_failure_probability,
    singleton_failure_probability,
)
from repro.quorum.base import ExplicitQuorumSystem
from repro.quorum.measures import (
    fault_tolerance_exact,
    load_of_strategy,
    optimal_load,
    optimal_strategy,
)
from repro.quorum.probe import GreedyProbeStrategy, oracle_from_alive_set
from repro.quorum.verification import verify_intersection_property

WALL_LAYOUTS = ([2, 3, 2], [3, 3, 3], [1, 4, 4], [4, 3], [5])


def wall_rows(widths):
    """Partition ``0 .. sum(widths)-1`` into consecutive rows of the given widths."""
    rows, start = [], 0
    for width in widths:
        rows.append(frozenset(range(start, start + width)))
        start += width
    return rows


def wall_quorums(widths):
    """Every crumbling-wall quorum: one full row plus one server per lower row."""
    rows = wall_rows(widths)
    quorums = []
    for index, row in enumerate(rows):
        for representatives in itertools.product(*(sorted(r) for r in rows[index + 1 :])):
            quorums.append(row | frozenset(representatives))
    return quorums


def wall(widths):
    return ExplicitQuorumSystem(sum(widths), wall_quorums(widths))


def wall_fault_tolerance(widths):
    """Cheapest wall transversal: one server per row, or row ``i`` plus one per lower row."""
    r = len(widths)
    return min([r] + [width + (r - 1 - i) for i, width in enumerate(widths)])


def voting_quorums(votes, threshold):
    """The minimal vote-sets reaching ``threshold`` (every server is needed)."""
    quorums = []
    for size in range(1, len(votes) + 1):
        for combo in itertools.combinations(range(len(votes)), size):
            total = sum(votes[s] for s in combo)
            if total >= threshold and all(total - votes[s] < threshold for s in combo):
                quorums.append(frozenset(combo))
    return quorums


def voting(votes, threshold=None):
    if threshold is None:
        threshold = sum(votes) // 2 + 1
    return ExplicitQuorumSystem(len(votes), voting_quorums(votes, threshold))


def exact_failure_probability(system, p):
    """``Fp`` by summing over all ``2^n`` crash patterns (small ``n`` only)."""
    total = 0.0
    for alive_mask in range(1 << system.n):
        alive = {s for s in range(system.n) if alive_mask >> s & 1}
        if system.find_live_quorum(alive) is None:
            total += (1 - p) ** len(alive) * p ** (system.n - len(alive))
    return total


class TestCrumblingWall:
    @pytest.mark.parametrize("widths", WALL_LAYOUTS[:4])
    def test_quorums_intersect(self, widths):
        quorums = wall_quorums(widths)
        verify_intersection_property(quorums)
        assert len(set(quorums)) == len(quorums)

    @pytest.mark.parametrize("widths", WALL_LAYOUTS)
    def test_fault_tolerance_matches_transversal_formula(self, widths):
        assert wall(widths).fault_tolerance() == wall_fault_tolerance(widths)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_fault_tolerance_formula_property(self, widths):
        quorums = wall_quorums(widths)
        assert fault_tolerance_exact(quorums, sum(widths)) == wall_fault_tolerance(widths)

    def test_min_quorum_size(self):
        # widths [2,3,2]: row 0 + 2 reps = 4; row 1 + 1 rep = 4; row 2 alone = 2.
        assert wall([2, 3, 2]).min_quorum_size() == 2

    def test_find_live_quorum(self):
        system = wall([3, 3, 3])
        assert system.find_live_quorum(set(range(9))) is not None
        # One crash per row: no full row survives.
        assert system.find_live_quorum(set(range(9)) - {0, 3, 6}) is None
        # A crashed middle row leaves the bottom row alone as a quorum.
        live = set(range(9)) - {3, 4, 5}
        assert system.find_live_quorum(live) == frozenset({6, 7, 8})

    def test_uniform_row_strategy_load_formula(self):
        # Uniform full row, uniform representatives: a server in row i of
        # width w_i is hit with probability 1/r + i/(r w_i).
        widths = [2, 3, 2]
        r, quorums = len(widths), wall_quorums(widths)
        rows = wall_rows(widths)
        weights = []
        for quorum in quorums:
            top = next(i for i, row in enumerate(rows) if row <= quorum)
            weights.append(1 / (r * math.prod(widths[top + 1 :])))
        expected = max(1 / r + i / (r * w) for i, w in enumerate(widths))
        assert load_of_strategy(quorums, weights, sum(widths)) == pytest.approx(expected)

    def test_lp_load_beats_uniform_row_strategy_by_bounded_factor(self):
        widths = [3, 3, 3]
        uniform_row = max(1 / 3 + i / (3 * w) for i, w in enumerate(widths))
        lp = wall(widths).load()
        assert lp <= uniform_row + 1e-9
        assert uniform_row <= 2.5 * lp

    def test_optimal_strategy_achieves_lp_load(self):
        quorums = wall_quorums([2, 3, 2])
        weights, load = optimal_strategy(quorums, 7)
        assert sum(weights) == pytest.approx(1.0)
        assert min(weights) >= 0.0
        assert load == pytest.approx(optimal_load(quorums, 7), abs=1e-9)
        assert load_of_strategy(quorums, weights, 7) == pytest.approx(load, abs=1e-6)

    def test_lp_load_respects_naor_wool_bound(self):
        system = wall([1, 4, 4])
        c = system.min_quorum_size()
        assert system.load() >= max(1 / c, c / system.n) - 1e-9

    def test_greedy_probe_assembles_a_wall_quorum(self):
        system = wall([3, 3, 3])
        alive = set(range(9)) - {0, 4}
        result = GreedyProbeStrategy(system).probe(oracle_from_alive_set(alive))
        assert result.found
        assert result.quorum <= alive
        assert result.quorum in system.quorums


class TestWeightedVoting:
    def test_minimal_quorums_intersect(self):
        quorums = voting_quorums([3, 2, 2, 1, 1], 5)
        assert quorums
        verify_intersection_property(quorums)

    def test_minimal_quorums_are_minimal(self):
        votes, threshold = [3, 2, 2, 1, 1], 5
        for quorum in voting_quorums(votes, threshold):
            assert sum(votes[s] for s in quorum) >= threshold
            for server in quorum:
                assert sum(votes[s] for s in quorum - {server}) < threshold

    def test_uniform_votes_reduce_to_majority(self):
        system = voting([1] * 7)
        assert set(system.quorums) == {frozenset(c) for c in itertools.combinations(range(7), 4)}
        assert system.fault_tolerance() == 4
        assert system.load() == pytest.approx(4 / 7, abs=1e-6)

    def test_dominant_server_behaves_like_singleton(self):
        system = voting([10, 1, 1, 1, 1])
        assert system.quorums == (frozenset({0}),)
        assert system.fault_tolerance() == 1
        assert system.load() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "votes, threshold",
        [([5, 1, 1, 1, 1], 5), ([3, 2, 2, 1, 1], 5), ([2, 2, 1, 1, 1], 4), ([1] * 6, 4)],
    )
    def test_fault_tolerance_crashes_heaviest_servers(self, votes, threshold):
        # The cheapest way to disable every quorum is to crash the heaviest
        # servers until the survivors hold fewer than `threshold` votes.
        remaining, crashes = sum(votes), 0
        for weight in sorted(votes, reverse=True):
            if remaining < threshold:
                break
            remaining -= weight
            crashes += 1
        assert voting(votes, threshold).fault_tolerance() == crashes

    def test_find_live_quorum(self):
        system = voting([3, 2, 2, 1], threshold=5)
        assert system.find_live_quorum({0, 1}) == frozenset({0, 1})
        assert system.find_live_quorum({3}) is None
        assert system.find_live_quorum({1, 2, 3}) == frozenset({1, 2, 3})

    def test_heavy_server_load(self):
        # Votes [2,1,1,1], T=3: quorums {0,i} (weight a each) and {1,2,3}
        # (weight b).  Server 0 carries 3a, the others a+b = 1-2a, so the
        # optimum balances at a = 1/5 with load 3/5.
        system = voting([2, 1, 1, 1], threshold=3)
        assert len(system) == 4
        assert system.load() == pytest.approx(3 / 5, abs=1e-6)


class TestSingleton:
    def test_measures(self):
        system = ExplicitQuorumSystem(10, [{3}])
        assert system.min_quorum_size() == 1
        assert system.load() == pytest.approx(1.0)
        assert system.fault_tolerance() == 1
        assert system.find_live_quorum({1, 2, 3}) == frozenset({3})
        assert system.find_live_quorum({0, 1, 2}) is None

    @pytest.mark.parametrize("p", [0.1, 0.42, 0.8])
    def test_failure_probability_is_p(self, p):
        system = ExplicitQuorumSystem(5, [{2}])
        assert exact_failure_probability(system, p) == pytest.approx(p)
        assert singleton_failure_probability(p) == p

    def test_beats_majority_for_large_p(self):
        # Footnote 3: for p >= 1/2 no strict system beats the singleton.
        singleton = ExplicitQuorumSystem(5, [{0}])
        majority = voting([1] * 5)
        for p in (0.6, 0.8, 0.95):
            assert exact_failure_probability(singleton, p) <= exact_failure_probability(
                majority, p
            )


class TestFailureProbability:
    def test_enumeration_matches_majority_closed_form(self):
        majority = voting([1] * 7)
        for p in (0.1, 0.3, 0.5):
            assert exact_failure_probability(majority, p) == pytest.approx(
                majority_failure_probability(7, p)
            )

    @pytest.mark.parametrize(
        "system",
        [wall([2, 3, 2]), voting([3, 2, 2, 1, 1], 5), ExplicitQuorumSystem(4, [{1}])],
        ids=["wall", "voting", "singleton"],
    )
    def test_monte_carlo_matches_enumeration(self, system):
        p, trials = 0.3, 20_000
        exact = exact_failure_probability(system, p)
        estimate = system.failure_probability(p, trials=trials, seed=11)
        standard_error = math.sqrt(exact * (1 - exact) / trials)
        assert abs(estimate - exact) <= 5 * standard_error
