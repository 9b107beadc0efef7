"""Shared read-outcome classification for the Monte-Carlo harness.

The sequential estimators, the register classes and the batched trial
engine all need to agree on what a read outcome *means* relative to the
last write: ``fresh`` (the latest written value), ``stale`` (an older but
genuinely written value), ``empty`` (⊥ — nobody produced an acceptable
value) or ``fabricated`` (a value that was never written, possible only
when Byzantine servers defeat the protocol's filter).  Before this module
each consumer re-implemented the comparison, which is exactly how the two
engines could drift apart silently; now there is a single labelling
function and the batch kernels are tested against it.

The rule mirrors the highest-timestamp-wins reads of Sections 3.1, 4
and 5: an outcome whose timestamp equals the last write's is fresh; ⊥ is
empty; an honest ``Timestamp`` strictly below the last write's is stale;
anything else (a timestamp that outranks the write, or one of a foreign
type) can only come from a forgery and is fabricated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.protocol.timestamps import Timestamp

if TYPE_CHECKING:
    from repro.protocol.register import ReadOutcome, WriteOutcome

#: The four labels, in the order the reports tally them.
OUTCOME_LABELS: Tuple[str, ...] = ("fresh", "stale", "empty", "fabricated")


def classify_read_outcome(
    outcome: ReadOutcome,
    last_write: WriteOutcome,
    expected_value: object = None,
    check_value: bool = False,
) -> str:
    """Label a read outcome against the last completed write.

    With ``check_value=True`` the outcome must also carry ``expected_value``
    to count as fresh — a matching timestamp with a different value means a
    forgery won a timestamp tie, which the consistency estimator counts as
    fabricated.
    """
    if outcome.is_empty:
        return "empty"
    if outcome.timestamp == last_write.timestamp:
        if check_value and outcome.value != expected_value:
            return "fabricated"
        return "fresh"
    if isinstance(outcome.timestamp, Timestamp) and outcome.timestamp < last_write.timestamp:
        return "stale"
    return "fabricated"
