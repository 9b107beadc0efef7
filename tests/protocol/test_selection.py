"""Tests for the shared deterministic reply-selection rule."""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.selection import (
    ReadRule,
    select_credible_value,
    selection_order,
    tiebreak_key,
)
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.service.client import AsyncQuorumClient
from repro.service.gossip import scenario_verifier
from repro.service.node import ServiceNode
from repro.service.register import async_register_for
from repro.service.transport import AsyncTransport
from repro.simulation.batch import BatchTrialEngine
from repro.simulation.cluster import Cluster
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import StoredValue


def _replies(*entries):
    """Build a reply map from ``(server, value, counter)`` triples in order."""
    return {
        server: StoredValue(value=value, timestamp=Timestamp(counter))
        for server, value, counter in entries
    }


class TestSelectCredibleValue:
    def test_highest_timestamp_wins(self):
        replies = _replies((0, "old", 1), (1, "new", 2), (2, "old", 1))
        selected = select_credible_value(replies)
        assert selected.value == "new"
        assert selected.timestamp == Timestamp(2)
        assert selected.servers == frozenset({1})
        assert selected.votes == 1

    def test_empty_and_valueless_replies_yield_none(self):
        assert select_credible_value({}) is None
        silent = {0: StoredValue(value=None, timestamp=None)}
        assert select_credible_value(silent) is None

    def test_threshold_filters_candidates(self):
        # "new" has the highest timestamp but only one vote; with k=2 the
        # twice-vouched older value is the only candidate.
        replies = _replies((0, "old", 1), (1, "old", 1), (2, "new", 2))
        selected = select_credible_value(replies, threshold=2)
        assert selected.value == "old"
        assert selected.votes == 2
        assert select_credible_value(replies, threshold=3) is None
        with pytest.raises(ConfigurationError):
            select_credible_value(replies, threshold=0)

    def test_timestamp_tie_broken_by_vote_count(self):
        replies = _replies((0, "a", 5), (1, "b", 5), (2, "b", 5))
        selected = select_credible_value(replies)
        assert selected.value == "b"
        assert selected.votes == 2

    def test_exhausted_tie_broken_by_tiebreak_key(self):
        replies = _replies((0, "alpha", 5), (1, "beta", 5))
        selected = select_credible_value(replies)
        assert tiebreak_key("beta") > tiebreak_key("alpha")
        assert selected.value == "beta"

    def test_selection_is_independent_of_reply_order(self):
        # The PR 2 known gap: the old registers resolved ties by dict
        # iteration order.  Every insertion order must now pick one winner.
        entries = [(0, "a", 5), (1, "b", 5), (2, "c", 5), (3, "a", 4)]
        import itertools

        winners = set()
        for permutation in itertools.permutations(entries):
            selected = select_credible_value(_replies(*permutation))
            winners.add((selected.value, selected.timestamp, selected.servers))
        assert len(winners) == 1

    def test_unhashable_values_are_supported(self):
        # Grouping is by repr, so plain registers keep accepting list payloads.
        replies = {
            0: StoredValue(value=[1, 2], timestamp=Timestamp(3)),
            1: StoredValue(value=[1, 2], timestamp=Timestamp(3)),
        }
        selected = select_credible_value(replies, threshold=2)
        assert selected.value == [1, 2]
        assert selected.votes == 2


class TestReadRule:
    SCHEME = SignatureScheme(b"rule")
    MASKING = ProbabilisticMaskingSystem(25, 10, 3)

    def signed(self, value, timestamp, signed_value=None):
        signature = self.SCHEME.sign(
            "x", value if signed_value is None else signed_value, Timestamp(1)
        )
        return StoredValue(value=value, timestamp=timestamp, signature=signature)

    def test_unsigned_credible_is_the_mapping_it_was_given(self):
        replies = _replies((0, "a", 1), (1, "b", 2))
        replies[2] = StoredValue(value=None, timestamp=None)
        for rule in (ReadRule(), ReadRule(threshold=2)):
            assert rule.credible("x", replies) is replies
            assert rule.sign("x", "a", Timestamp(1)) is None

    def test_signed_credible_drops_forged_unsigned_and_untyped_replies(self):
        rule = ReadRule(signatures=self.SCHEME)
        replies = {
            0: self.signed("v", Timestamp(1)),
            1: self.signed("forged", Timestamp(1), signed_value="v"),  # bad signature
            2: StoredValue(value="v", timestamp=Timestamp(1)),  # no signature
            3: self.signed("v", 1),  # timestamp is not a Timestamp
            4: StoredValue(value=None, timestamp=None),  # empty copy
        }
        assert set(rule.credible("x", replies)) == {0}
        assert rule.verifies("x", replies[0])
        assert not any(rule.verifies("x", replies[server]) for server in (1, 2, 3, 4))
        assert rule.sign("x", "v", Timestamp(1)) == replies[0].signature

    def test_select_and_enumerate_apply_the_rule_threshold(self):
        replies = _replies((0, "old", 1), (1, "old", 1), (2, "new", 2))
        assert ReadRule().select(replies).value == "new"
        assert ReadRule(threshold=2).select(replies).value == "old"
        assert ReadRule(threshold=3).select(replies) is None
        assert [r.value for r in ReadRule(threshold=2).enumerate(replies)] == ["old"]
        assert len(ReadRule().enumerate(replies)) == 2
        with pytest.raises(ConfigurationError):
            ReadRule(threshold=0)

    def test_selection_order_picks_the_select_winner(self):
        replies = _replies((0, "a", 5), (1, "b", 5), (2, "b", 5), (3, "z", 4), (4, "c", 5))
        winner = max(ReadRule().enumerate(replies), key=selection_order)
        assert winner == ReadRule().select(replies)

    def test_unsigned_rules_have_no_gossip_verifier(self):
        assert ReadRule().verifier is None
        assert ReadRule(threshold=2).verifier is None
        rule = ReadRule(signatures=self.SCHEME)
        assert rule.verifier == rule.verifies
        plain = UniformEpsilonIntersectingSystem(25, 8)
        assert scenario_verifier(ScenarioSpec(system=plain)) is None
        assert scenario_verifier(ScenarioSpec(system=self.MASKING)) is None

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(system=UniformEpsilonIntersectingSystem(25, 8)),
            ScenarioSpec(system=ProbabilisticDisseminationSystem(25, 7, 3)),
            ScenarioSpec(system=MASKING),
            ScenarioSpec(system=MASKING, register_kind="plain"),
            ScenarioSpec(
                system=UniformEpsilonIntersectingSystem(25, 8), register_kind="write-back"
            ),
        ],
        ids=["plain", "dissemination", "masking", "forced-plain", "write-back"],
    )
    def test_the_scenario_rule_reaches_every_layer(self, spec):
        # The batch engine, the sequential register and the async frontend
        # each carry the rule the scenario resolves.  A SignatureScheme
        # compares by identity, so the check is behavioural: the threshold,
        # the signature a write carries, and which replies stay credible.
        expected = spec.read_rule()
        signed = expected.signatures is not None
        client = AsyncQuorumClient(
            spec.system, [ServiceNode(server) for server in range(spec.n)], AsyncTransport()
        )
        layers = {
            "batch": BatchTrialEngine(spec).rule,
            "register": spec.register_factory()(Cluster(spec.n), random.Random(0)).rule,
            "frontend": async_register_for(spec, client).rule,
        }
        value, timestamp = "v", Timestamp(1)
        genuine = SignatureScheme(spec.signing_key).sign("x", value, timestamp)
        replies = {
            0: StoredValue(value=value, timestamp=timestamp, signature=genuine),
            1: StoredValue(
                value=value,
                timestamp=timestamp,
                signature=SignatureScheme(b"forger").sign("x", value, timestamp),
            ),
        }
        for layer, rule in layers.items():
            assert rule.threshold == expected.threshold, layer
            assert rule.sign("x", value, timestamp) == (genuine if signed else None), layer
            assert set(rule.credible("x", replies)) == ({0} if signed else {0, 1}), layer
