"""The read rule as a scalar oracle for the batch engine's vote kernels.

The batch engine never builds a reply: it classifies a read from counts —
per trial, how many read-quorum servers vouch for each honest version and
how many forge.  Every object reader selects through
:class:`repro.protocol.selection.ReadRule` instead.  Each example below
draws the replies of some read quorums as labels (no reply, an honest
version, a replayed version, the forgery) and builds both inputs from the
same draw: the vote counts or version matrices a kernel consumes, and the
reply map ``ReadRule(threshold=k).select`` consumes.  Every row a kernel
classifies must name the rule's winner — over timestamp ties, forged
values colliding with honest ones, forged columns and ``k`` in {1, 2, q}.

Three kernels are checked: :func:`classify_threshold_votes` and
:func:`classify_tying_votes` (one write, labelled by the shared
:func:`classify_read_outcome`), and the version-history kernel's read
(``BatchTrialEngine._read_versions``), whose verdict is the version read
or the forgery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.classification import OUTCOME_LABELS, classify_read_outcome
from repro.protocol.selection import ReadRule, tiebreak_key
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.simulation.batch import (
    BatchTrialEngine,
    classify_threshold_votes,
    classify_tying_votes,
)
from repro.simulation.failures import BatchFailureMasks, FailureModel
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import StoredValue

WRITTEN = ("v", Timestamp(1, 0))
SYSTEM = UniformEpsilonIntersectingSystem(8, 4)


@st.composite
def read_quorums(draw, labels):
    """``(k, rows)``: up to ten read quorums of one size q, with k in {1, 2, q}."""
    quorum = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.sampled_from(labels), min_size=quorum, max_size=quorum)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    return draw(st.sampled_from(sorted({1, 2, quorum}))), rows


def rule_winner(row, pairs, threshold):
    """``ReadRule(threshold).select`` over the replies a row of labels names."""
    replies = {
        server: StoredValue(*pairs[label]) for server, label in enumerate(row) if label in pairs
    }
    return ReadRule(threshold=threshold).select(replies)


def rule_label(winner):
    """The shared classifier's label for a one-write read the rule decided."""
    outcome = ReadOutcome.from_selection(winner, frozenset(), 0, 1)
    write = WriteOutcome(frozenset(), WRITTEN[1], frozenset())
    return classify_read_outcome(outcome, write, expected_value=WRITTEN[0], check_value=True)


def kernel_labels(masks):
    """Per row, the one label whose mask is set (the masks partition rows)."""
    stacked = np.stack([np.asarray(mask, dtype=bool) for mask in masks])
    assert (stacked.sum(axis=0) == 1).all()
    return [OUTCOME_LABELS[index] for index in stacked.argmax(axis=0)]


def one_write_votes(rows):
    honest = np.array([row.count("honest") for row in rows])
    forged = np.array([row.count("forged") for row in rows])
    return honest, forged


@given(
    quorums=read_quorums(["none", "honest", "forged"]),
    forged_timestamp=st.sampled_from(
        [Timestamp(0, 9), Timestamp(2, 0), Timestamp.forged_maximum()]
    ),
)
@settings(max_examples=200, deadline=None)
def test_threshold_kernel_names_the_rule_winner(quorums, forged_timestamp):
    threshold, rows = quorums
    pairs = {"honest": WRITTEN, "forged": ("FORGED", forged_timestamp)}
    honest, forged = one_write_votes(rows)
    masks = classify_threshold_votes(honest, forged, threshold, WRITTEN[1] < forged_timestamp)
    expected = [rule_label(rule_winner(row, pairs, threshold)) for row in rows]
    assert kernel_labels(masks) == expected


@given(
    quorums=read_quorums(["none", "honest", "forged"]),
    forged_value=st.sampled_from(["FORGED", "zFORGED", WRITTEN[0]]),
)
@settings(max_examples=200, deadline=None)
def test_tying_kernel_names_the_rule_winner(quorums, forged_value):
    threshold, rows = quorums
    pairs = {"honest": WRITTEN, "forged": (forged_value, WRITTEN[1])}
    model = FailureModel.colluding_forgers(1, forged_value, WRITTEN[1])
    _, tie, forged_key_wins, values_collide = BatchTrialEngine(
        ScenarioSpec(system=SYSTEM, failure_model=model)
    )._forgery([WRITTEN[1]], [WRITTEN[0]])
    assert tie == 0
    honest, forged = one_write_votes(rows)
    masks = classify_tying_votes(honest, forged, threshold, forged_key_wins, values_collide)
    expected = [rule_label(rule_winner(row, pairs, threshold)) for row in rows]
    assert kernel_labels(masks) == expected


@st.composite
def histories(draw):
    """A history of 1-4 versions, a forged pair placed among them, and read quorums."""
    versions = draw(st.integers(min_value=1, max_value=4))
    timestamps = [Timestamp(version + 1, 0) for version in range(versions)]
    values = [("value", version) for version in range(versions)]
    forged_timestamp = draw(
        st.sampled_from(
            timestamps  # a tie with some version
            + [Timestamp(rank, 5) for rank in range(versions + 1)]  # between versions
            + [Timestamp.forged_maximum()]
        )
    )
    # Below every tuple key, above every tuple key, or some version's value.
    forged_value = draw(st.sampled_from(["FORGED", ("zFORGED",)] + values))
    labels = (
        ["none", "forged"]
        + [("latest", version) for version in range(versions)]
        + [("replay", version) for version in range(versions)]
    )
    return timestamps, values, (forged_value, forged_timestamp), draw(read_quorums(labels))


@given(history=histories())
@settings(max_examples=400, deadline=None)
def test_history_read_names_the_rule_winner(history):
    timestamps, values, forged_pair, (threshold, rows) = history
    versions = len(timestamps)
    shape = (len(rows), len(rows[0]))
    # Replay servers answer with the first version they accepted, correct
    # ones with their latest; both reply with that version's honest pair.
    version_of = np.full(shape, -1, dtype=np.int32)
    masks = BatchFailureMasks(
        crashed=np.zeros(shape, dtype=bool),
        silent=np.zeros(shape, dtype=bool),
        forgers=np.zeros(shape, dtype=bool),
        replay=np.zeros(shape, dtype=bool),
    )
    pairs = {"forged": forged_pair}
    for trial, row in enumerate(rows):
        for server, label in enumerate(row):
            if label == "none":
                masks.crashed[trial, server] = True
            elif label == "forged":
                masks.forgers[trial, server] = True
            else:
                kind, version = label
                version_of[trial, server] = version
                masks.replay[trial, server] = kind == "replay"
                pairs[label] = (values[version], timestamps[version])
    # The kernels read only the rule of the system: a masking system with
    # b = 1 and an explicit k carries ReadRule(threshold=k).
    engine = BatchTrialEngine(
        ScenarioSpec(
            system=ProbabilisticMaskingSystem(8, 4, 1, threshold=threshold),
            failure_model=FailureModel.colluding_forgers(1, *forged_pair),
        )
    )
    assert engine.rule == ReadRule(threshold=threshold)
    read, forged_wins = engine._read_versions(
        np.ones(shape, dtype=bool),
        masks,
        version_of,
        version_of.copy(),
        versions,
        engine._forgery(timestamps, values),
    )
    honest_keys = {
        (timestamp, tiebreak_key(value)): version
        for version, (timestamp, value) in enumerate(zip(timestamps, values))
    }
    for index, row in enumerate(rows):
        winner = rule_winner(row, pairs, threshold)
        if winner is None:
            expected = -1
        else:
            # A forged pair equal to a version's pair is that version.
            expected = honest_keys.get((winner.timestamp, tiebreak_key(winner.value)), "forged")
        assert ("forged" if forged_wins[index] else int(read[index])) == expected, row
