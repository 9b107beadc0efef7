"""Gossip / anti-entropy diffusion of updates (Section 1.1).

The paper notes that a probabilistic quorum system "can be strengthened by a
properly designed diffusion mechanism, which propagates updates to
replicated data lazily, outside the critical path of client operations":
when updates are sufficiently dispersed in time, gossip drives the
probability of reading a stale value further toward zero.

:class:`DiffusionEngine` implements a simple push anti-entropy protocol over
a :class:`~repro.simulation.cluster.Cluster`: in each round every *correct*
server pushes its copy of every variable to ``fanout`` uniformly chosen
peers, which adopt it when the timestamp is newer.  Crashed servers neither
push nor receive; Byzantine servers ignore gossip (the most adversarial
choice for freshness) but their own pushes are also ignored by correct
servers when ``verify`` rejects their payloads (self-verifying data).
A round delivers only pushes that can adopt (see
:meth:`DiffusionEngine.run_round`), so its peers, adoptions, verifier calls
and message count are those of the plain merge-every-push loop.

The ablation benchmark ``benchmarks/test_ablation_diffusion.py`` measures
how quickly the fraction of up-to-date servers approaches one as rounds
accumulate, which is the mechanism behind the paper's claim.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import is_not
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.exceptions import ConfigurationError
from repro.quorum.base import MASK_BLOCK_RANKS
from repro.simulation.cluster import Cluster
from repro.simulation.server import StoredValue
from repro.types import ServerId

#: Signature-verification callback: (variable, stored) -> bool.
Verifier = Callable[[str, StoredValue], bool]


class DiffusionEngine:
    """Push anti-entropy gossip over a cluster.

    Parameters
    ----------
    cluster:
        The cluster whose servers gossip.
    fanout:
        How many peers each server pushes to per round.
    verify:
        Optional verifier for self-verifying data; gossip payloads failing
        verification are discarded by correct recipients (so a Byzantine
        server cannot poison the diffusion).
    rng:
        Random source for peer selection.
    """

    def __init__(
        self,
        cluster: Cluster,
        fanout: int = 2,
        verify: Optional[Verifier] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if fanout < 0:
            raise ConfigurationError(
                f"gossip fanout must be non-negative, got {fanout}"
            )
        if fanout >= cluster.n:
            raise ConfigurationError(
                f"gossip fanout must be smaller than the cluster size {cluster.n}, got {fanout}"
            )
        self.cluster = cluster
        self.fanout = int(fanout)
        self.verify = verify
        self.rng = rng or random.Random(0)
        self.rounds_run = 0
        self.messages_pushed = 0
        #: Per-server peer candidates: every other server id.
        self._candidates: List[List[ServerId]] = [
            [s for s in range(cluster.n) if s != server.server_id]
            for server in cluster.servers
        ]

    # -- core gossip --------------------------------------------------------------

    def run_round(self, variables: Optional[Iterable[str]] = None) -> int:
        """Run one gossip round; return how many replicas adopted a newer value.

        Every correct server, in server order, draws ``fanout`` distinct
        peers and pushes each of its (verified) copies to all of them; a
        correct peer adopts a copy iff its own is missing or older.  One
        pass at round start finds the variables not :func:`_settled`; that
        is exactly what a lazy check at each variable's first push would
        find, since no variable adopts anything before its own first push.
        Only those are delivered, skipping peers that hold the very record.
        Without a verifier, pushes are counted in bulk; with one, every
        held copy is still verified in the plain loop's order.  So peers,
        adoptions, ``verify`` calls, ``messages_pushed`` and the RNG stream
        are those of the plain merge-every-push loop.
        """
        adopted = 0
        if self.fanout == 0:
            # fanout=0 is the identity: a round happens, nothing moves.
            self.rounds_run += 1
            return adopted
        # Crashed and Byzantine servers neither push nor accept gossip.
        receivers: List[Optional[Dict[str, StoredValue]]] = [
            None if server.is_crashed or server.is_byzantine else server.storage
            for server in self.cluster.servers
        ]
        open_storages = [storage for storage in receivers if storage is not None]
        fixed_names = list(variables) if variables is not None else None
        moving: Set[str] = set()
        if open_storages:
            known = set(fixed_names) if fixed_names is not None else set().union(*open_storages)
            moving = {name for name in known if not _settled(open_storages, name)}
        sample, fanout, verify = self.rng.sample, self.fanout, self.verify
        for storage, candidates in zip(receivers, self._candidates):
            if storage is None:
                continue
            names = fixed_names if fixed_names is not None else storage
            if not names:
                continue
            targets = [receivers[peer] for peer in sample(candidates, fanout)]
            if verify is None:
                held = storage.values() if fixed_names is None else map(storage.get, fixed_names)
                self.messages_pushed += fanout * sum(map(is_not, held, repeat(None)))
                names = moving
            for variable in names:
                stored = storage.get(variable)
                if stored is None:
                    continue
                if verify is not None:
                    if not verify(variable, stored):
                        continue
                    self.messages_pushed += fanout
                    if variable not in moving:
                        continue
                timestamp = stored.timestamp
                for target in targets:
                    if target is None:
                        continue
                    current = target.get(variable)
                    if current is stored:
                        continue
                    if current is None or timestamp > current.timestamp:
                        target[variable] = stored
                        adopted += 1
        self.rounds_run += 1
        return adopted

    def run_rounds(self, rounds: int, variables: Optional[Iterable[str]] = None) -> int:
        """Run several gossip rounds; return the total number of adoptions."""
        if rounds < 0:
            raise ConfigurationError(f"round count must be non-negative, got {rounds}")
        names = list(variables) if variables is not None else None
        total = 0
        for _ in range(rounds):
            total += self.run_round(names)
        return total

    def run_until_quiescent(
        self, variables: Optional[Iterable[str]] = None, max_rounds: int = 1_000
    ) -> int:
        """Gossip until a round adopts nothing new; return rounds run."""
        names = list(variables) if variables is not None else None
        for round_index in range(1, max_rounds + 1):
            if self.run_round(names) == 0:
                return round_index
        return max_rounds

    # -- measurement ----------------------------------------------------------------

    def coverage(self, variable: str, value) -> float:
        """Fraction of *correct* servers whose copy of ``variable`` equals ``value``.

        This is the quantity the diffusion ablation tracks round by round:
        the read staleness probability of a quorum of size ``q`` drops
        roughly like ``(1 - coverage)^q`` once gossip has spread the update.
        """
        correct = [
            self.cluster.server(s) for s in sorted(self.cluster.correct_servers())
        ]
        if not correct:
            return 0.0
        holding = 0
        for server in correct:
            stored = server.storage.get(variable)
            if stored is not None and stored.value == value:
                holding += 1
        return holding / len(correct)

    def freshness_profile(self, variable: str, value, rounds: int) -> List[float]:
        """Coverage after each of ``rounds`` gossip rounds (index 0 = before gossip)."""
        profile = [self.coverage(variable, value)]
        for _ in range(rounds):
            self.run_round([variable])
            profile.append(self.coverage(variable, value))
        return profile


def _settled(storages: List[Dict[str, StoredValue]], variable: str) -> bool:
    """Whether every storage (at least one) holds ``variable`` at one timestamp.

    A push of a settled variable between these replicas can never adopt
    (adoption needs a strictly newer timestamp), and since nothing adopts
    it the variable stays settled for the rest of the round.  Identity is
    checked first: replicas of one write share its timestamp object (one
    args tuple reaches every node), and a pushed copy is the sender's very
    record.  Only a distinct timestamp object is compared by value.
    """
    first = storages[0].get(variable)
    if first is None:
        return False
    timestamp = first.timestamp
    for storage in storages:
        current = storage.get(variable)
        if current is first:
            continue
        if current is None:
            return False
        other = current.timestamp
        if other is not timestamp and other != timestamp:
            return False
    return True


# ---------------------------------------------------------------------------
# Batched gossip kernel
# ---------------------------------------------------------------------------


def gossip_rounds_batch(
    versions: np.ndarray,
    eligible: np.ndarray,
    fanout: int,
    rounds: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """Run push anti-entropy over a whole batch of independent trials at once.

    ``versions`` is an integer ``(trials, n)`` matrix holding, per trial,
    the newest version each server stores (``-1`` = nothing, so every entry
    is at least ``-1``); versions are totally ordered, so "adopt if newer"
    is an elementwise maximum.  ``eligible`` is a boolean mask of the same
    shape marking the servers that participate — correct, non-crashed
    replicas; crashed servers neither push nor receive and Byzantine
    servers ignore gossip, exactly as in :meth:`DiffusionEngine.run_round`.
    A mask of any other shape is refused rather than broadcast.

    Each eligible server pushes to ``fanout`` uniformly chosen peers
    (excluding itself).  Unlike the object engine, peers are drawn *with*
    replacement and rounds are synchronous (adoptions become visible to the
    next round, not later in the same one).  The synchronous rounds spread
    a write more slowly: one fanout-2 round after a write to 5 of 25
    servers reaches about 48% of them here against about 67% in the object
    engine (a strict xfail in ``tests/simulation/test_diffusion.py``), so
    gossiped estimates of the two engines agree only once gossip nearly
    saturates.

    A round draws its peers in row blocks of about
    :data:`~repro.quorum.base.MASK_BLOCK_RANKS` integers (at least one row):
    the C-order stream of a ``(rows, n, fanout)`` draw, shifted past each
    sender and offset to its trial's row in place, then one
    ``np.maximum.at`` scatter per fanout column, and the block's rows adopt.
    Rows are independent trials and the generator keeps a half-used word in
    its state, so the blocks draw exactly what one whole-round draw would.
    Ineligible senders push ``-1`` and ineligible receivers take ``-1``,
    both written branch-free as ``v * e - ~e`` rather than as masked writes,
    so the adopt step is one unmasked ``np.maximum``.

    Returns the updated version matrix (a new array of the input's dtype;
    the input is not mutated).
    """
    trials, n = versions.shape
    if fanout < 0:
        raise ConfigurationError(f"gossip fanout must be non-negative, got {fanout}")
    if fanout >= n:
        raise ConfigurationError(
            f"gossip fanout must be smaller than the cluster size {n}, got {fanout}"
        )
    if rounds < 0:
        raise ConfigurationError(f"round count must be non-negative, got {rounds}")
    eligible = np.asarray(eligible, dtype=bool)
    if eligible.shape != versions.shape:
        raise ConfigurationError(
            f"eligibility mask shape {eligible.shape} does not match the "
            f"version matrix shape {versions.shape}"
        )
    current = versions.copy()
    if trials == 0 or rounds == 0 or fanout == 0:
        return current
    ineligible = ~eligible
    rows = max(1, MASK_BLOCK_RANKS // (n * fanout))
    # Sender of each drawn column, and each block row's first flat index.
    senders = np.repeat(np.arange(n), fanout)
    row_offset = np.arange(0, min(rows, trials) * n, n)[:, None]
    for _ in range(rounds):
        for start in range(0, trials, rows):
            block = current[start : start + rows]
            held, lacking = eligible[start : start + rows], ineligible[start : start + rows]
            # Uniform peer != self: draw from n-1 and shift past the sender.
            peers = generator.integers(0, n - 1, size=(len(block), n * fanout))
            peers += peers >= senders
            peers += row_offset[: len(block)]
            pushed = block * held
            pushed -= lacking
            incoming = np.full_like(block, -1)
            # Draw column f of every sender lines up with the pushed rows, so
            # each scatter reads them as they are: no fanout-fold copy.
            for column in range(fanout):
                np.maximum.at(incoming.ravel(), peers[:, column::fanout].ravel(), pushed.ravel())
            incoming *= held
            incoming -= lacking
            np.maximum(block, incoming, out=block)
    return current
