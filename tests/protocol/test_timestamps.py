"""Tests for writer-local timestamps."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.protocol.timestamps import Timestamp, TimestampGenerator


class TestTimestamp:
    def test_ordering_by_counter_then_writer(self):
        assert Timestamp(1, 0) < Timestamp(2, 0)
        assert Timestamp(2, 0) > Timestamp(1, 5)
        assert Timestamp(3, 1) < Timestamp(3, 2)
        assert Timestamp(3, 2) == Timestamp(3, 2)

    def test_hashable_and_usable_as_dict_key(self):
        values = {Timestamp(1, 0): "a", Timestamp(2, 0): "b"}
        assert values[Timestamp(1, 0)] == "a"

    def test_next(self):
        ts = Timestamp(4, 7)
        assert ts.next() == Timestamp(5, 7)

    def test_zero_and_forged(self):
        assert Timestamp.zero(3) == Timestamp(0, 3)
        forged = Timestamp.forged_maximum()
        assert forged > Timestamp(10**9, 10**6)

    def test_negative_counter_rejected(self):
        with pytest.raises(ProtocolError):
            Timestamp(-1, 0)

    def test_comparison_with_other_types(self):
        assert Timestamp(1, 0).__eq__("x") is NotImplemented
        assert Timestamp(1, 0).__ne__("x") is NotImplemented
        assert Timestamp(1, 0).__lt__("x") is NotImplemented
        assert Timestamp(1, 0) != "x"
        assert not Timestamp(1, 0) == "x"

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_not_equal_is_the_negation_of_equal(self, c1, w1, c2, w2):
        a, b = Timestamp(c1, w1), Timestamp(c2, w2)
        assert (a != b) == (not a == b)
        assert (b != a) == (not b == a)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_order(self, c1, w1, c2, w2):
        a, b = Timestamp(c1, w1), Timestamp(c2, w2)
        assert (a < b) or (b < a) or (a == b)
        # Antisymmetry.
        assert not ((a < b) and (b < a))

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_six_comparisons_follow_tuple_order(self, c1, w1, c2, w2):
        a, b = Timestamp(c1, w1), Timestamp(c2, w2)
        x, y = (c1, w1), (c2, w2)
        assert (a < b) == (x < y)
        assert (a <= b) == (x <= y)
        assert (a > b) == (x > y)
        assert (a >= b) == (x >= y)
        assert (a == b) == (x == y)
        assert (a != b) == (x != y)

    @pytest.mark.parametrize("name", ["lt", "le", "gt", "ge"])
    def test_ordering_against_other_types_is_not_implemented(self, name):
        stamp = Timestamp(1, 0)
        assert getattr(stamp, f"__{name}__")((1, 0)) is NotImplemented
        with pytest.raises(TypeError):
            getattr(operator, name)(stamp, 1)

    @given(
        st.integers(min_value=0, max_value=2**62 - 1),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=50, deadline=None)
    def test_forged_maximum_outranks_every_honest_timestamp(self, counter, writer):
        honest, forged = Timestamp(counter, writer), Timestamp.forged_maximum()
        assert forged > honest and forged >= honest
        assert honest < forged and honest <= forged and honest != forged


class TestTimestampGenerator:
    def test_strictly_increasing(self):
        generator = TimestampGenerator(writer_id=2)
        previous = None
        for _ in range(100):
            current = generator.next()
            if previous is not None:
                assert current > previous
            assert current.writer_id == 2
            previous = current

    def test_last_issued(self):
        generator = TimestampGenerator(writer_id=1)
        assert generator.last_issued is None
        first = generator.next()
        assert generator.last_issued == first

    def test_observe_fast_forwards(self):
        generator = TimestampGenerator(writer_id=1)
        generator.observe(Timestamp(50, 9))
        assert generator.next().counter == 51

    def test_observe_never_rewinds(self):
        generator = TimestampGenerator(writer_id=1, start=100)
        generator.observe(Timestamp(10, 0))
        assert generator.next().counter == 101

    def test_negative_start_rejected(self):
        with pytest.raises(ProtocolError):
            TimestampGenerator(writer_id=0, start=-1)
