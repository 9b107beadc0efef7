"""The reference read rule: the sorted, per-reply selection the fast one replaced.

Selection once walked the replies in server order, grouped them by object
identity, then by ``(timestamp, tiebreak_key(value))`` with the timestamps
themselves as keys, and picked the winner with ``max(key=...)``.  It is kept
only as the oracle ``test_selection_differential.py`` holds
:func:`repro.protocol.selection.select_credible_value` and
:func:`~repro.protocol.selection.enumerate_credible_values` to: the same
result, down to which ``value`` and ``timestamp`` objects come back, and the
same exception type where the timestamps cannot be compared.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.protocol.selection import SelectedValue, tiebreak_key
from repro.simulation.server import StoredValue
from repro.types import ServerId


def select_credible_value(
    replies: Mapping[ServerId, StoredValue],
    threshold: int = 1,
) -> Optional[SelectedValue]:
    """Apply the deterministic highest-timestamp-wins rule to a reply map.

    ``threshold=1`` is the benign Section 3.1 (and post-verification
    Section 4) read; a larger threshold is the Section 5 masking read.
    Returns ``None`` when no pair clears the threshold (the read is ⊥).
    """
    if threshold < 1:
        raise ConfigurationError(f"vote threshold must be positive, got {threshold}")
    # Identity pre-aggregation: replicas that store the *same* pair hold
    # references to the one (value, timestamp) the writer (or a colluding
    # forger) sent, so grouping first by object identity makes the per-reply
    # work two ``id()`` calls; the semantic grouping below then runs over
    # the distinct pairs, not over every reply.
    # Distinct-but-equal pairs still merge there, so the result is
    # unchanged.
    ident: Dict[Tuple[int, int], Tuple[Any, List[ServerId]]] = {}
    for server in sorted(replies):
        stored = replies[server]
        timestamp = stored.timestamp
        if timestamp is None:
            continue
        key = (id(timestamp), id(stored.value))
        entry = ident.get(key)
        if entry is None:
            ident[key] = (stored, [server])
        else:
            entry[1].append(server)
    if not ident:
        return None
    if len(ident) == 1:
        # One distinct pair: the grouping reduces to a threshold check.
        stored, servers = next(iter(ident.values()))
        if len(servers) < threshold:
            return None
        return SelectedValue(
            value=stored.value,
            timestamp=stored.timestamp,
            servers=frozenset(servers),
            votes=len(servers),
        )
    groups: Dict[Tuple[Any, str], List[ServerId]] = {}
    values: Dict[Tuple[Any, str], Any] = {}
    for stored, servers in ident.values():
        key = (stored.timestamp, tiebreak_key(stored.value))
        existing = groups.get(key)
        if existing is None:
            groups[key] = list(servers)
        else:
            existing.extend(servers)
        values.setdefault(key, stored.value)
    candidates = [key for key, servers in groups.items() if len(servers) >= threshold]
    if not candidates:
        return None
    # Rules 2–3 over the group keys (timestamp, tiebreak_key): selection_order.
    winner = max(candidates, key=lambda key: (key[0], len(groups[key]), key[1]))
    return SelectedValue(
        value=values[winner],
        timestamp=winner[0],
        servers=frozenset(groups[winner]),
        votes=len(groups[winner]),
    )


def enumerate_credible_values(
    replies: Mapping[ServerId, StoredValue],
    threshold: int = 1,
) -> List[SelectedValue]:
    """Every value/timestamp pair clearing the vote threshold, not just the winner.

    The register protocols only ever need :func:`select_credible_value` —
    highest timestamp wins, the rest is garbage.  A reader that asks
    whether *any* credible record exists (the voting service's lock check)
    needs the losers too.  Grouping and thresholding are identical to
    :func:`select_credible_value`; the returned order is unspecified (pairs
    with incomparable timestamps cannot be sorted).
    """
    if threshold < 1:
        raise ConfigurationError(f"vote threshold must be positive, got {threshold}")
    groups: Dict[Tuple[Any, str], List[ServerId]] = {}
    values: Dict[Tuple[Any, str], Any] = {}
    for server in sorted(replies):
        stored = replies[server]
        if stored.timestamp is None:
            continue
        key = (stored.timestamp, tiebreak_key(stored.value))
        existing = groups.get(key)
        if existing is None:
            groups[key] = [server]
        else:
            existing.append(server)
        values.setdefault(key, stored.value)
    return [
        SelectedValue(
            value=values[key],
            timestamp=key[0],
            servers=frozenset(servers),
            votes=len(servers),
        )
        for key, servers in groups.items()
        if len(servers) >= threshold
    ]
