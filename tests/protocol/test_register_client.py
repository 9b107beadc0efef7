"""The register protocol with no driver: ``RegisterClient`` on hand-built ops.

Every case finishes a one-round :class:`QuorumOp` by hand — the members
listed in ``replies`` answer with their entry, the rest miss — and hands
it to the client, so what is checked here is the protocol each driver
(the sequential oracle, the service, the explorer) shares.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError
from repro.obs.trace import QuorumTrace
from repro.protocol.quorum_op import QuorumOp
from repro.protocol.register import ReadOutcome, RegisterClient
from repro.protocol.selection import ReadRule
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue

SCHEME = SignatureScheme(b"writer")
RULES = {
    "plain": ReadRule(),
    "dissemination": ReadRule(signatures=SCHEME),
    "masking": ReadRule(threshold=2),
}


def finished_op(quorum, replies):
    """One finished round over ``quorum``: ``replies[server]`` answers, the rest miss."""
    op = QuorumOp(quorum)
    for server in op.start():
        if server in replies:
            op.on_reply(server, replies[server])
        else:
            op.on_miss(server)
    assert op.round_end() == ()
    return op


def written(client, value, quorum=(0, 1, 2), acks=(0, 1, 2)):
    """Run one write of ``value`` that ``acks`` acknowledge."""
    args = client.write_args(value)
    return client.write_outcome(finished_op(quorum, dict.fromkeys(acks, True)), args)


class TestWrite:
    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_arguments_carry_a_fresh_timestamp_and_the_rule_s_signature(self, kind):
        rule = RULES[kind]
        client = RegisterClient("x", writer_id=3, rule=rule)
        first = client.write_args("a")
        second = client.write_args("b")
        assert first[:3] == ("x", "a", Timestamp(1, 3))
        assert second[:3] == ("x", "b", Timestamp(2, 3))
        for name, value, timestamp, signature in (first, second):
            if kind == "dissemination":
                assert signature == SCHEME.sign(name, value, timestamp)
                assert SCHEME.verify(name, value, timestamp, signature)
            else:
                assert signature is None

    def test_an_explicit_timestamp_is_signed_and_issues_none(self):
        client = RegisterClient("x", rule=RULES["dissemination"])
        args = client.write_args("v", Timestamp(7, 2))
        assert args == ("x", "v", Timestamp(7, 2), SCHEME.sign("x", "v", Timestamp(7, 2)))
        assert client.write_args("w")[2] == Timestamp(1, 0)

    def test_the_outcome_rests_on_the_op_and_becomes_the_last_write(self):
        client = RegisterClient("x")
        assert client.last_write is None
        outcome = written(client, "v", quorum=(0, 1, 2), acks=(0, 2))
        assert outcome.quorum == frozenset({0, 1, 2})
        assert outcome.acknowledged == frozenset({0, 2})
        assert outcome.timestamp == Timestamp(1)
        assert client.last_write is outcome
        assert client.writes_performed == 1


class TestRead:
    def test_an_unsigned_rule_lets_the_very_mapping_compete(self):
        replies = {0: StoredValue("v", Timestamp(1)), 1: StoredValue("w", object())}
        for kind in ("plain", "masking"):
            client = RegisterClient("x", rule=RULES[kind])
            assert client.credible(replies) is replies
            assert client.forged_replies_rejected == 0

    def test_a_signed_rule_drops_forged_replies_and_counts_them(self):
        client = RegisterClient("x", rule=RULES["dissemination"])
        genuine = StoredValue("v", Timestamp(1), SCHEME.sign("x", "v", Timestamp(1)))
        forged = StoredValue("FORGED", Timestamp.forged_maximum(), b"forged")
        op = finished_op([0, 1, 2, 3], {0: genuine, 1: forged, 2: forged, 3: None})
        outcome = client.read_outcome(op)
        assert client.forged_replies_rejected == 2
        assert (outcome.value, outcome.timestamp) == ("v", Timestamp(1))
        assert outcome.reporting_servers == frozenset({0})
        assert outcome.replies == 3  # value-bearing replies, forged ones included
        assert client.reads_performed == 1

    def test_no_pair_clearing_k_reads_bottom(self):
        client = RegisterClient("x", rule=RULES["masking"])
        op = finished_op(
            [0, 1, 2],
            {0: StoredValue("a", Timestamp(1)), 1: StoredValue("b", Timestamp(2)), 2: None},
        )
        outcome = client.read_outcome(op)
        assert outcome == ReadOutcome(None, None, frozenset({0, 1, 2}), frozenset(), 2, 0, 2)
        assert outcome.is_empty and not outcome.passed_threshold

    def test_stored_replies_keep_only_value_bearing_answers_in_order(self):
        op = finished_op([0, 1, 2], {2: StoredValue("v", Timestamp(1)), 0: None})
        assert list(RegisterClient.stored_replies(op)) == [2]

    def test_a_sampled_trace_records_the_rule_s_inputs_and_verdict(self):
        client = RegisterClient("x", rule=RULES["masking"])
        stored = StoredValue("v", Timestamp(1))
        trace = QuorumTrace(0, "read")
        client.read_outcome(finished_op([0, 1, 2], {0: stored, 1: stored}), trace)
        assert trace.selection == {
            "signed": False, "threshold": 2, "replies": 2, "competing": 2,
            "verdict": "selected", "votes": 2,
        }

    def test_judging_a_read_before_any_write_is_a_protocol_error(self):
        client = RegisterClient("x")
        outcome = client.read_outcome(finished_op([0], {0: StoredValue("v", Timestamp(1))}))
        with pytest.raises(ProtocolError):
            client.classify_read(outcome)
        with pytest.raises(ProtocolError):
            client.read_is_fresh(outcome)
        written(client, "v")
        assert client.classify_read(outcome) == "fresh" and client.read_is_fresh(outcome)


class TestLaggards:
    @staticmethod
    def outcome(quorum, winners, value="v", counter=5):
        return ReadOutcome(
            value=value,
            timestamp=Timestamp(counter),
            quorum=frozenset(quorum),
            reporting_servers=frozenset(winners),
            replies=len(winners),
        )

    def test_laggards_order_stale_before_unknown(self):
        client = RegisterClient("x")
        quorum = [0, 1, 2, 3, 4]
        replies = {
            0: StoredValue("v", Timestamp(5)),  # the winner
            1: StoredValue("old", Timestamp(1)),  # provably stale
            # 2 never replied: plausible laggard
            3: StoredValue("junk", object()),  # uncomparable forgery residue
            4: None,  # an empty copy: plausible laggard
        }
        op = finished_op(quorum, replies)
        assert client.laggards(op, self.outcome(quorum, winners=[0])) == [1, 2, 4]

    def test_winners_are_never_targets(self):
        client = RegisterClient("x")
        stored = StoredValue("v", Timestamp(5))
        op = finished_op([0, 1, 2], {0: stored, 1: stored, 2: StoredValue("old", Timestamp(1))})
        assert client.laggards(op, self.outcome([0, 1, 2], winners=[0, 1])) == [2]
        assert client.laggards(op, self.outcome([0, 1, 2], winners=[0, 1, 2])) == []

    def test_a_forged_timestamp_that_does_not_compare_is_never_targeted(self):
        client = RegisterClient("x")
        op = finished_op(
            [0, 1], {0: StoredValue("v", Timestamp(5)), 1: StoredValue("FORGED", "999")}
        )
        assert client.laggards(op, self.outcome([0, 1], winners=[0])) == []

    def test_bottom_has_no_laggards(self):
        client = RegisterClient("x")
        op = finished_op([0, 1], {})
        empty = ReadOutcome(None, None, frozenset({0, 1}), frozenset(), 0)
        assert client.laggards(op, empty) == []
