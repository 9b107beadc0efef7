"""The one read rule shared by every read protocol.

All three read protocols of the paper end the same way: among the candidate
value/timestamp pairs that survive the protocol's filter (any reply for the
Section 3.1 read, signature-verified replies for Section 4, pairs with at
least ``k`` vouching votes for Section 5), the highest timestamp wins.  They
differ only in whether a reply must verify under the writer's signature and
in ``k``; :class:`ReadRule` is those two values.  Every object reader (the
registers, the async frontends, the gossip verifiers, the lock, the voting
service and the interleaving explorer) signs, filters and selects through
it, and the batch engine's vectorised kernels read its two values.

An honest writer never reuses a timestamp, so two *distinct* values at the
highest timestamp mean a faulty server; the selection resolves that tie
without looking at reply order, for every reader and the batched engine:

1. only pairs with at least ``threshold`` vouching votes are candidates;
2. among candidates, the highest timestamp wins;
3. a timestamp tie between distinct values is broken by the larger vote
   count, and a remaining tie by the larger :func:`tiebreak_key` — a pure
   function of the value (:func:`selection_order` is rules 2–3 as a key).

Grouping is by timestamp, and by ``tiebreak_key(value)`` only where two or
more distinct pairs share a timestamp, so values only need a stable
``repr``, not hashability, and a read whose timestamps all differ computes
no token at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue
from repro.types import ServerId


#: The order-independent token that breaks exhausted ties (rule 3): ``repr``
#: itself, not a wrapper, since a read calls it once per distinct pair at a
#: shared timestamp.
tiebreak_key: Callable[[Any], str] = repr


@dataclass(frozen=True)
class SelectedValue:
    """The winning value/timestamp pair of a read, with its supporters."""

    value: Any
    timestamp: Any
    servers: frozenset
    votes: int


def _identity_groups(replies: Mapping[ServerId, StoredValue]) -> List[Tuple[StoredValue, list]]:
    """Pass 1: ``(record, servers)`` per object identity, replies without a timestamp dropped.

    Replicas storing the same pair share the writer's (or a forger's) objects.
    """
    ident: Dict[Tuple[int, int], List[ServerId]] = {}
    for server, stored in replies.items():
        key = (id(stored.timestamp), id(stored.value))
        servers = ident.get(key)
        if servers is None:
            ident[key] = [server]
        else:
            servers.append(server)
    return [
        (stored, servers)
        for servers in ident.values()
        if (stored := replies[servers[0]]).timestamp is not None
    ]


def _distinct_pairs(pairs: List[Tuple[StoredValue, list]]) -> Dict[Tuple[Any, Optional[str]], list]:
    """Pass 2: identity groups merged into ``{(rank, token): [record, servers]}``, in one pass.

    ``rank`` is ``(counter, writer_id)`` when every timestamp is exactly a
    :class:`Timestamp` (the same equality, hash and order), else the
    timestamp itself.  A rank held by one identity group is keyed
    ``(rank, None)``: nothing merges with it, and ``max`` over ``(rank,
    votes, token)`` decides on its rank before reaching the token.  When a
    second group reaches a held rank, the held group is re-keyed by
    ``tiebreak_key(value)`` and the rank joins ``shared``; every later group
    at a shared rank is keyed by its token too, so a rank's keys are one
    ``None`` or all tokens.  A merged group keeps the record of its lowest
    server id, so reply order never picks the objects a read returns.
    """
    exact = True
    for stored, _ in pairs:
        if type(stored.timestamp) is not Timestamp:
            exact = False
            break
    groups: Dict[Tuple[Any, Optional[str]], list] = {}
    shared = set()
    for stored, servers in pairs:
        timestamp = stored.timestamp
        rank = (timestamp.counter, timestamp.writer_id) if exact else timestamp
        held = groups.get((rank, None))
        if held is None:
            if not shared or rank not in shared:
                groups[rank, None] = [stored, servers]
                continue
        else:  # a second group at a held rank: from now on it is keyed by token
            del groups[rank, None]
            groups[rank, tiebreak_key(held[0].value)] = held
            shared.add(rank)
        key = (rank, tiebreak_key(stored.value))
        group = groups.get(key)
        if group is None:
            groups[key] = [stored, servers]
        else:
            if min(servers) < min(group[1]):
                group[0] = stored
            group[1] = group[1] + servers
    return groups


def _selected(stored: StoredValue, servers: list) -> SelectedValue:
    return SelectedValue(stored.value, stored.timestamp, frozenset(servers), len(servers))


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
    pairs = _identity_groups(replies)
    if len(pairs) == 1:
        # One distinct pair (7 % of byz-churn's reads): a threshold check.
        stored, servers = pairs[0]
    else:
        # A live 10-reply read carries a median of 4 distinct pairs (a read
        # quorum meets the latest write quorum in about q²/n servers); rules
        # 2–3 (selection_order) rank them as plain (rank, votes, token)
        # tuples, where token is None for a rank no other pair shares.
        groups = _distinct_pairs(pairs)
        orders = [
            (rank, len(servers), token)
            for (rank, token), (_, servers) in groups.items() if len(servers) >= threshold
        ]
        if not orders:
            return None
        rank, _, token = max(orders)
        stored, servers = groups[rank, token]
    return _selected(stored, servers) if len(servers) >= threshold else None


def enumerate_credible_values(
    replies: Mapping[ServerId, StoredValue],
    threshold: int = 1,
) -> List[SelectedValue]:
    """Every value/timestamp pair clearing the vote threshold, not just the winner.

    The register protocols only ever need :func:`select_credible_value` —
    highest timestamp wins, the rest is garbage.  A reader that asks
    whether *any* credible record exists (the voting service's lock check)
    needs the losers too.  Grouping and thresholding are identical to
    :func:`select_credible_value`; pairs come in the order of their lowest
    server id (pairs with incomparable timestamps cannot be sorted).
    """
    if threshold < 1:
        raise ConfigurationError(f"vote threshold must be positive, got {threshold}")
    groups = _distinct_pairs(_identity_groups(replies)).values()
    return [
        _selected(stored, servers)
        for stored, servers in sorted(groups, key=lambda group: min(group[1]))
        if len(servers) >= threshold
    ]


def selection_order(candidate: SelectedValue) -> Tuple[Any, int, str]:
    """Rules 2–3 as a key: ``max(candidates, key=selection_order)`` is the winner."""
    return (candidate.timestamp, candidate.votes, tiebreak_key(candidate.value))


@dataclass(frozen=True)
class ReadRule:
    """A read protocol as two values: the vote threshold and the signature scheme.

    ``ReadRule()`` is the Section 3.1 read, ``ReadRule(signatures=s)`` the
    Section 4 read and ``ReadRule(threshold=k)`` the Section 5 read; a
    scenario's is :meth:`~repro.simulation.scenario.ScenarioSpec.read_rule`.
    A rule may be signed *and* thresholded (the voting service and the
    quorum lock allow it).  Readers pass :meth:`credible`'s result to :meth:`select` or
    :meth:`enumerate`.
    """

    threshold: int = 1
    signatures: Optional[SignatureScheme] = None

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ConfigurationError(f"vote threshold must be positive, got {self.threshold}")

    def sign(self, variable: str, value: Any, timestamp: Timestamp) -> Optional[bytes]:
        """The writer's signature on a pair, or ``None`` when the rule is unsigned."""
        if self.signatures is None:
            return None
        return self.signatures.sign(variable, value, timestamp)

    def verifies(self, variable: str, stored: StoredValue) -> bool:
        """Whether a record's timestamp is a :class:`Timestamp` and its signature verifies."""
        return isinstance(stored.timestamp, Timestamp) and self.signatures.verify(
            variable, stored.value, stored.timestamp, stored.signature
        )

    @property
    def verifier(self) -> Optional[Callable[[str, StoredValue], bool]]:
        """The gossip payload verifier: :meth:`verifies`, or ``None`` when unsigned."""
        return None if self.signatures is None else self.verifies

    def credible(
        self, variable: str, replies: Mapping[ServerId, StoredValue]
    ) -> Mapping[ServerId, StoredValue]:
        """The replies that may compete: all of them (the very mapping) unless signed."""
        if self.signatures is None:
            return replies
        return {s: stored for s, stored in replies.items() if self.verifies(variable, stored)}

    def select(self, credible: Mapping[ServerId, StoredValue]) -> Optional[SelectedValue]:
        """The winning pair among credible replies, or ``None`` (the read is ⊥)."""
        return select_credible_value(credible, self.threshold)

    def enumerate(self, credible: Mapping[ServerId, StoredValue]) -> List[SelectedValue]:
        """Every credible pair clearing the threshold, winner included."""
        return enumerate_credible_values(credible, self.threshold)
