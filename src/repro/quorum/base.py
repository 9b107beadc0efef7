"""The strict quorum system abstraction (Definitions 2.1 and 2.2).

A strict quorum system over a universe ``U`` of ``n`` servers is a set of
subsets of ``U`` (the *quorums*), every two of which intersect.  Concrete
constructions fall into two families:

* *implicit* systems whose quorums are described by a rule (every subset of
  size ``m``, one grid row plus one grid column, ...) and may be far too
  numerous to enumerate — these subclass :class:`QuorumSystem` directly and
  override the analytic measures with closed forms;
* *explicit* systems given by an enumerated list of quorums —
  :class:`ExplicitQuorumSystem` — for which the measures are computed exactly
  (LP-optimal load, minimum-hitting-set fault tolerance, Monte-Carlo failure
  probability).

The interface is deliberately small: the protocol and simulation layers only
ever need to *sample* a quorum according to the system's access strategy and
to *find a live quorum* among a set of currently reachable servers.
"""

from __future__ import annotations

import abc
import itertools
import random
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.exceptions import ConfigurationError, QuorumPropertyError
from repro.types import Quorum, QuorumCollection, ServerId, SystemProfile, make_quorum

#: Enumerating more quorums than this raises instead of exhausting memory.
ENUMERATION_LIMIT = 2_000_000

#: Uniforms :func:`sample_subset_mask` ranks per row block (256 KB of
#: doubles), so a block's draw, partition and comparison stay in cache.
MASK_BLOCK_RANKS = 32768


class QuorumSystem(abc.ABC):
    """Abstract base class for strict quorum systems.

    Subclasses must implement quorum sampling, live-quorum discovery and the
    minimum quorum size; they should override the measure methods
    (:meth:`load`, :meth:`fault_tolerance`, :meth:`failure_probability`)
    whenever a closed form exists.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"universe must contain at least one server, got n={n}")
        self._n = int(n)

    # -- structural properties ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of servers in the universe."""
        return self._n

    @property
    def universe(self) -> Quorum:
        """The full universe ``{0, ..., n-1}``."""
        return frozenset(range(self._n))

    @property
    def name(self) -> str:
        """Human readable name of the construction."""
        return type(self).__name__

    @abc.abstractmethod
    def min_quorum_size(self) -> int:
        """Size of the smallest quorum, ``c(Q)`` in the paper's notation."""

    @abc.abstractmethod
    def sample_quorum(self, rng: Optional[random.Random] = None) -> Quorum:
        """Draw one quorum according to the system's access strategy.

        For strict systems the canonical strategy is uniform over quorums (or
        over a symmetric subfamily); subclasses document their choice.
        """

    @abc.abstractmethod
    def find_live_quorum(self, alive: Set[ServerId]) -> Optional[Quorum]:
        """Return a quorum entirely contained in ``alive``, or ``None``.

        Used by the failure-probability estimators and by the protocol layer
        when retrying an operation around crashed servers.
        """

    def enumerate_quorums(self) -> Iterator[Quorum]:
        """Yield every quorum of the system.

        Implicit systems with astronomically many quorums raise
        :class:`NotImplementedError`; callers that need exhaustive access
        should check :meth:`is_enumerable` first.
        """
        raise NotImplementedError(f"{self.name} does not support quorum enumeration")

    def is_enumerable(self) -> bool:
        """Whether :meth:`enumerate_quorums` is supported and tractable."""
        try:
            iterator = self.enumerate_quorums()
        except NotImplementedError:
            return False
        # Peek a single element to make sure the generator actually works.
        next(iter(iterator), None)
        return True

    def is_quorum_available(self, alive: Set[ServerId]) -> bool:
        """Whether some quorum survives when only ``alive`` servers are up."""
        return self.find_live_quorum(alive) is not None

    # -- quality measures ------------------------------------------------------

    @abc.abstractmethod
    def load(self) -> float:
        """The load ``L(Q)`` of the system (Definition 2.4)."""

    @abc.abstractmethod
    def fault_tolerance(self) -> int:
        """The fault tolerance ``A(Q)`` of the system (Definition 2.5)."""

    @abc.abstractmethod
    def failure_probability(self, p: float) -> float:
        """The failure probability ``Fp(Q)`` (Definition 2.6)."""

    def profile(self) -> SystemProfile:
        """Summarise the system's quality measures in a :class:`SystemProfile`."""
        return SystemProfile(
            name=self.describe(),
            n=self.n,
            quorum_size=self.min_quorum_size(),
            load=self.load(),
            fault_tolerance=self.fault_tolerance(),
            epsilon=0.0,
            byzantine_threshold=getattr(self, "byzantine_threshold", 0),
        )

    def describe(self) -> str:
        """A short parameterised description, e.g. ``Majority(n=100)``."""
        return f"{self.name}(n={self.n})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()


class ExplicitQuorumSystem(QuorumSystem):
    """A strict quorum system given by an explicit list of quorums.

    Parameters
    ----------
    n:
        Universe size.
    quorums:
        The quorums.  Every quorum must be a non-empty subset of the
        universe.
    validate:
        When true (the default), verify the pairwise intersection property of
        Definition 2.2 and raise :class:`QuorumPropertyError` if it fails.
        Pass ``False`` to build a plain set system (e.g. as raw material for
        the probabilistic wrappers, which do not require strict
        intersection).
    """

    def __init__(
        self,
        n: int,
        quorums: Iterable[Iterable[ServerId]],
        validate: bool = True,
    ) -> None:
        super().__init__(n)
        normalised: List[Quorum] = []
        seen = set()
        for raw in quorums:
            quorum = make_quorum(raw)
            if not quorum:
                raise ConfigurationError("quorums must be non-empty")
            if not quorum <= self.universe:
                raise ConfigurationError(
                    f"quorum {sorted(quorum)} is not contained in the universe of size {n}"
                )
            if quorum not in seen:
                seen.add(quorum)
                normalised.append(quorum)
        if not normalised:
            raise ConfigurationError("a quorum system must contain at least one quorum")
        self._quorums: QuorumCollection = tuple(normalised)
        if validate:
            self._validate_intersection()

    def _validate_intersection(self) -> None:
        for first, second in itertools.combinations(self._quorums, 2):
            if not first & second:
                raise QuorumPropertyError(
                    f"quorums {sorted(first)} and {sorted(second)} do not intersect"
                )

    # -- structural properties ------------------------------------------------

    @property
    def quorums(self) -> QuorumCollection:
        """The explicit tuple of quorums."""
        return self._quorums

    def __len__(self) -> int:
        return len(self._quorums)

    def enumerate_quorums(self) -> Iterator[Quorum]:
        return iter(self._quorums)

    def min_quorum_size(self) -> int:
        return min(len(q) for q in self._quorums)

    def sample_quorum(self, rng: Optional[random.Random] = None) -> Quorum:
        rng = rng or random.Random()
        return rng.choice(self._quorums)

    def find_live_quorum(self, alive: Set[ServerId]) -> Optional[Quorum]:
        alive_set = frozenset(alive)
        for quorum in self._quorums:
            if quorum <= alive_set:
                return quorum
        return None

    # -- quality measures ------------------------------------------------------

    def load(self) -> float:
        """LP-optimal load over all access strategies (Definition 2.4)."""
        from repro.quorum.measures import optimal_load

        return optimal_load(self._quorums, self.n)

    def fault_tolerance(self) -> int:
        """Exact fault tolerance via a minimum hitting set (Definition 2.5)."""
        from repro.quorum.measures import fault_tolerance_exact

        return fault_tolerance_exact(self._quorums, self.n)

    def failure_probability(self, p: float, trials: int = 20_000, seed: int = 0) -> float:
        """Monte-Carlo failure probability (Definition 2.6)."""
        from repro.analysis.failure_probability import monte_carlo_failure_probability

        return monte_carlo_failure_probability(self._quorums, self.n, p, trials=trials, seed=seed)

    def describe(self) -> str:
        return f"Explicit(n={self.n}, m={len(self._quorums)})"


def enumerate_subsets_of_size(n: int, size: int) -> Iterator[Quorum]:
    """Yield every subset of ``{0..n-1}`` of the given size as a quorum.

    Raises :class:`ConfigurationError` if the number of subsets exceeds
    :data:`ENUMERATION_LIMIT`, to protect callers from accidentally asking
    for an astronomically large enumeration.
    """
    import math

    if not 0 < size <= n:
        raise ConfigurationError(f"subset size must lie in (0, {n}], got {size}")
    count = math.comb(n, size)
    if count > ENUMERATION_LIMIT:
        raise ConfigurationError(
            f"refusing to enumerate {count} subsets of size {size} from a universe of {n}"
        )
    for combo in itertools.combinations(range(n), size):
        yield frozenset(combo)


def sample_subset(n: int, size: int, rng: Optional[random.Random] = None) -> Quorum:
    """Sample a uniformly random subset of ``{0..n-1}`` of the given size."""
    if not 0 < size <= n:
        raise ConfigurationError(f"subset size must lie in (0, {n}], got {size}")
    rng = rng or random.Random()
    return frozenset(rng.sample(range(n), size))


def membership_matrix(quorums: Sequence[Iterable[int]], n: int) -> "np.ndarray":
    """Boolean ``(len(quorums), n)`` matrix marking each quorum's servers.

    The shared kernel of every batched path that reduces quorum logic to
    array membership (strategy sampling, empirical load, Monte-Carlo
    failure probability).  Rejects server ids outside ``{0..n-1}``.
    """
    import numpy as np

    member = np.zeros((len(quorums), n), dtype=bool)
    for idx, quorum in enumerate(quorums):
        for server in quorum:
            if not 0 <= server < n:
                raise ConfigurationError(
                    f"server {server} outside the universe of size {n}"
                )
            member[idx, server] = True
    return member


def sample_subset_batch(n: int, size: int, trials: int, generator) -> "np.ndarray":
    """Sample ``trials`` uniformly random size-``size`` subsets in one call.

    Returns an ``(trials, size)`` integer matrix whose rows are the sampled
    access sets (distinct ids, unordered).  Each row is drawn by ranking a
    row of i.i.d. uniforms and keeping the ``size`` smallest ranks, which is
    exactly a uniform draw without replacement — the vectorised equivalent
    of :func:`sample_subset`.  ``generator`` is a
    :class:`numpy.random.Generator`.  This is the service's block draw; the
    batch engine draws the same sets as masks with :func:`sample_subset_mask`.
    """
    import numpy as np

    if not 0 < size <= n:
        raise ConfigurationError(f"subset size must lie in (0, {n}], got {size}")
    if trials < 0:
        raise ConfigurationError(f"trial count must be non-negative, got {trials}")
    if size == n:
        return np.broadcast_to(np.arange(n), (trials, n)).copy()
    ranks = generator.random((trials, n))
    return np.argpartition(ranks, size - 1, axis=1)[:, :size].copy()


def sample_subset_mask(
    n: int, size: int, trials: int, generator, out: "Optional[np.ndarray]" = None
) -> "np.ndarray":
    """The k-of-n mask kernel: ``trials`` uniform size-``size`` subsets as masks.

    Marks, in a boolean ``(trials, n)`` matrix (``out`` when given), the
    sets :func:`sample_subset_batch` picks from the same draws (none when
    ``size`` is ``0`` or ``n``): each row's entries at or below its
    ``size``-th smallest uniform, one partition and one comparison in place
    of an index matrix and a scatter.  Rows tied at that threshold mark too
    many servers; the count catches them and ``argpartition`` re-picks.

    The rows run in blocks of about :data:`MASK_BLOCK_RANKS` uniforms (at
    least one row).  The generator fills its stream in order, so drawing
    block after block yields the numbers one whole-matrix draw would, and
    every row's pick depends on its own uniforms only.
    """
    import numpy as np

    if not 0 <= size <= n:
        raise ConfigurationError(f"subset size must lie in [0, {n}], got {size}")
    if trials < 0:
        raise ConfigurationError(f"trial count must be non-negative, got {trials}")
    if out is None:
        out = np.empty((trials, n), dtype=bool)
    if size == 0 or size == n:
        out.fill(size == n)
        return out
    rows = max(1, MASK_BLOCK_RANKS // n)
    for start in range(0, trials, rows):
        block = out[start : start + rows]
        ranks = generator.random(block.shape)
        kth = np.partition(ranks, size - 1, axis=1)[:, size - 1 : size]
        np.less_equal(ranks, kth, out=block)
        if np.count_nonzero(block) != block.shape[0] * size:
            block.fill(False)
            picks = np.argpartition(ranks, size - 1, axis=1)[:, :size]
            np.put_along_axis(block, picks, True, axis=1)
    return out
