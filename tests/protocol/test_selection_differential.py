"""Differential test: the one-pass read rule against the sorted reference.

:func:`repro.protocol.selection.select_credible_value` groups replies by
object identity in reply order, then ranks each distinct pair once, by the
integer pair ``(counter, writer_id)`` when every timestamp is exactly a
:class:`Timestamp`, computing the tie-break token only where two or more
identity groups share a rank.  ``selection_oracle.py`` keeps the rule it
replaced.
Hypothesis draws reply maps in the shapes where the two could part:

* replicas sharing one stored pair, and equal-but-distinct copies of it
  (as after crossing the wire), and a copy sharing only one of the objects;
* timestamp ties between distinct values, and vote ties;
* :meth:`Timestamp.forged_maximum`;
* unhashable list values;
* replies without a timestamp;
* all-int and mixed opaque timestamps (int with ``Timestamp`` or ``str``),
  where both must raise the same exception type;
* every threshold from 1 to the number of replies, and any reply order;
* three to five identity groups at one rank, interleaved with other ranks,
  with server ids drawn apart from arrival order (``tied_reply_maps``);
* hand-built tied ranks: a forged tie, equal values held as distinct
  objects, and a tie whose first arrival holds the higher server id.

Both must return the same result, with the winner's ``value`` and
``timestamp`` the *same objects* (``is``).  CI runs this file on a pinned
hypothesis seed and on a fresh one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import selection
from repro.protocol.selection import enumerate_credible_values, select_credible_value
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue
from tests.protocol import selection_oracle as oracle

#: Timestamp families: each spec builds a *fresh* (equal-but-distinct) object.
TIMESTAMP_SPECS = {
    "timestamp": st.one_of(
        st.tuples(st.just("ts"), st.integers(0, 2), st.integers(0, 1)),
        st.just(("forged",)),
    ),
    "int": st.tuples(st.just("int"), st.integers(0, 2)),
    "int+timestamp": st.one_of(
        st.tuples(st.just("int"), st.integers(0, 2)),
        st.tuples(st.just("ts"), st.integers(0, 2), st.integers(0, 1)),
    ),
    "int+str": st.one_of(
        st.tuples(st.just("int"), st.integers(0, 2)),
        st.tuples(st.just("str"), st.integers(0, 2)),
    ),
}
VALUE_SPECS = st.one_of(
    st.tuples(st.just("bytes"), st.integers(0, 2)),
    st.tuples(st.just("list"), st.integers(0, 2)),
    st.just(("none",)),
)


def build_timestamp(spec):
    kind = spec[0]
    if kind == "ts":
        return Timestamp(spec[1], spec[2])
    if kind == "forged":
        return Timestamp.forged_maximum()
    if kind == "int":
        return 10**6 + spec[1]  # above the small-int cache: a fresh object
    return "t" + str(spec[1])


def build_value(spec):
    kind = spec[0]
    if kind == "bytes":
        return b"v%d" % spec[1]
    if kind == "list":
        return [spec[1], "x"]
    return None


@st.composite
def free_reply_maps(draw):
    """A reply map over a few versions, shared or copied, in any server order."""
    family = draw(st.sampled_from(sorted(TIMESTAMP_SPECS)))
    versions = draw(
        st.lists(st.tuples(TIMESTAMP_SPECS[family], VALUE_SPECS), min_size=1, max_size=4)
    )
    shared = [StoredValue(build_value(v), build_timestamp(t)) for t, v in versions]
    servers = draw(st.lists(st.integers(0, 40), min_size=0, max_size=12, unique=True))
    replies = {}
    for server in servers:
        index = draw(st.integers(-1, len(versions) - 1))
        if index < 0:
            replies[server] = StoredValue(value=None, timestamp=None)
            continue
        share = draw(st.sampled_from(["record", "both", "timestamp", "value", "neither"]))
        (timestamp_spec, value_spec), record = versions[index], shared[index]
        replies[server] = (
            record
            if share == "record"
            else StoredValue(
                record.value if share in ("both", "value") else build_value(value_spec),
                record.timestamp
                if share in ("both", "timestamp")
                else build_timestamp(timestamp_spec),
            )
        )
    threshold = draw(st.integers(1, max(1, len(replies))))
    return replies, threshold


@st.composite
def tied_reply_maps(draw):
    """A reply map in which three or more identity groups share one rank.

    Every tied record has its own objects, so each is an identity group of
    its own until a copy of the same record (a shared reference) joins it;
    records at other ranks are interleaved in any order, and server ids are
    drawn apart from arrival order, so the group that arrives first at the
    tied rank may hold the highest id.
    """
    family = draw(st.sampled_from(sorted(TIMESTAMP_SPECS)))
    tied = draw(TIMESTAMP_SPECS[family])
    records = [
        StoredValue(build_value(value), build_timestamp(tied))
        for value in draw(st.lists(VALUE_SPECS, min_size=3, max_size=5))
    ]
    records += [
        StoredValue(build_value(value), build_timestamp(timestamp))
        for timestamp, value in draw(
            st.lists(st.tuples(TIMESTAMP_SPECS[family], VALUE_SPECS), max_size=3)
        )
    ]
    records += [records[i] for i in draw(st.lists(st.integers(0, len(records) - 1), max_size=4))]
    records = draw(st.permutations(records))
    servers = draw(
        st.lists(st.integers(0, 40), min_size=len(records), max_size=len(records), unique=True)
    )
    replies = dict(zip(servers, records))
    threshold = draw(st.integers(1, len(replies)))
    return replies, threshold


def reply_maps():
    """Free reply maps, and maps with one rank shared by three or more groups."""
    return st.one_of(free_reply_maps(), tied_reply_maps())


def outcome(rule, replies, threshold):
    """The rule's result, or the type of the exception it raised."""
    try:
        return rule(replies, threshold), None
    except Exception as error:  # the exception *type* is part of the contract
        return None, type(error)


def assert_same_selection(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.value is expected.value
    assert got.timestamp is expected.timestamp
    assert got.servers == expected.servers
    assert got.votes == expected.votes


@given(reply_maps())
@settings(max_examples=600, deadline=None)
def test_select_matches_the_sorted_reference(case):
    replies, threshold = case
    got, got_error = outcome(select_credible_value, replies, threshold)
    expected, expected_error = outcome(oracle.select_credible_value, replies, threshold)
    assert got_error is expected_error
    assert_same_selection(got, expected)


@given(reply_maps())
@settings(max_examples=400, deadline=None)
def test_enumerate_matches_the_sorted_reference(case):
    replies, threshold = case
    got, got_error = outcome(enumerate_credible_values, replies, threshold)
    expected, expected_error = outcome(oracle.enumerate_credible_values, replies, threshold)
    assert got_error is expected_error
    if expected is not None:
        assert len(got) == len(expected)
        for mine, theirs in zip(got, expected):
            assert_same_selection(mine, theirs)


def test_a_live_shaped_read_compares_no_timestamp_objects(monkeypatch):
    # The shape of a live inproc-read: 10 replies over 4 versions.  Ranking
    # by (counter, writer_id) must not call one Timestamp comparison or hash.
    versions = [StoredValue(b"v%d" % c, Timestamp(c, 1)) for c in (7, 6, 5, 4)]
    replies = {server: versions[min(server // 2, 3)] for server in range(10)}
    calls = []
    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        method = getattr(Timestamp, name)

        def counted(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Timestamp, name, counted)
    selected = select_credible_value(replies, threshold=2)
    assert selected.timestamp is versions[0].timestamp and selected.votes == 2
    assert calls == []
    monkeypatch.undo()
    assert_same_selection(selected, oracle.select_credible_value(replies, threshold=2))


def tied_rank_reads():
    """Reads whose highest rank is held by two or more identity groups."""
    forged = Timestamp.forged_maximum()
    honest = StoredValue(b"v1", Timestamp(1, 0))
    # Two forgers claim the same forged timestamp for different values, and a
    # third repeats one of them with its own (equal but distinct) objects.
    forged_tie = {
        0: honest, 1: honest, 2: honest,
        3: StoredValue(b"forged-a", forged),
        4: StoredValue(b"forged-b", Timestamp.forged_maximum()),
        5: StoredValue(b"forged-%s" % b"a", Timestamp.forged_maximum()),
    }
    # Equal values that are distinct objects at one rank, as after decoding
    # each reply from the wire: one pair, three identity groups.
    copies = {server: StoredValue(b"v%d" % 2, Timestamp(2, 1)) for server in (4, 1, 7)}
    copies[0] = StoredValue(b"v1", Timestamp(1, 1))
    # A tie whose vote counts differ, over list values (no hashing).
    lists = {
        0: StoredValue([1, "x"], Timestamp(3)), 1: StoredValue([1, "x"], Timestamp(3)),
        2: StoredValue([2, "x"], Timestamp(3)),
    }
    # The group that arrives first at the tied rank holds the highest id: it
    # is held alone, re-keyed when server 2's rival arrives, and then merged
    # with server 5's equal copy, whose record (the lower id) must win.
    late_low = {
        9: StoredValue(b"a", Timestamp(4, 1)),
        3: StoredValue(b"old", Timestamp(2, 1)),
        2: StoredValue(b"b", Timestamp(4, 1)),
        5: StoredValue(b"%s" % b"a", Timestamp(4, 1)),
        1: StoredValue(b"c", Timestamp(4, 1)),
    }
    return {
        "forged tie": forged_tie,
        "distinct equal copies": copies,
        "list tie": lists,
        "first arrival has the higher id": late_low,
    }


@pytest.mark.parametrize("name", sorted(tied_rank_reads()))
@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_tied_ranks_match_the_sorted_reference(name, threshold):
    replies = tied_rank_reads()[name]
    for rule, reference in (
        (select_credible_value, oracle.select_credible_value),
        (enumerate_credible_values, oracle.enumerate_credible_values),
    ):
        got, expected = rule(replies, threshold), reference(replies, threshold)
        if rule is select_credible_value:
            assert_same_selection(got, expected)
        else:
            assert len(got) == len(expected)
            for mine, theirs in zip(got, expected):
                assert_same_selection(mine, theirs)


def test_the_tiebreak_token_is_computed_only_for_a_shared_rank(monkeypatch):
    # A live tcp-write-1k read: 10 replies over 5 versions of 1 KiB, each at
    # its own timestamp.  No token can matter, so none is computed.
    versions = [StoredValue(bytes([c]) * 1024, Timestamp(c, 1)) for c in (8, 7, 6, 5, 4)]
    replies = {server: versions[server // 2] for server in range(10)}
    tokens = []

    def counted(value):
        tokens.append(value)
        return repr(value)

    monkeypatch.setattr(selection, "tiebreak_key", counted)
    assert select_credible_value(replies, threshold=2).timestamp is versions[0].timestamp
    assert len(enumerate_credible_values(replies, threshold=1)) == 5
    assert tokens == []
    # Three identity groups at the top rank (two rivals, one of them an
    # equal copy of the held value): one token per group, none elsewhere.
    replies[8] = StoredValue(b"rival", Timestamp(8, 1))
    replies[9] = StoredValue(bytes([8]) * 1024, Timestamp(8, 1))
    selected = select_credible_value(replies, threshold=1)
    assert selected.value is versions[0].value and selected.votes == 3
    assert sorted(map(len, tokens)) == [5, 1024, 1024]
