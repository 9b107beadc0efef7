"""Common machinery for probabilistic quorum systems ``⟨Q, w⟩``.

A probabilistic quorum system pairs a set system with an access strategy and
guarantees an intersection-style property only *with high probability* over
the strategy.  The three concrete classes —
:class:`~repro.core.epsilon_intersecting.EpsilonIntersectingSystem`,
:class:`~repro.core.dissemination.ProbabilisticDisseminationSystem` and
:class:`~repro.core.masking.ProbabilisticMaskingSystem` — share the
interface defined here: sampling, the ε guarantee (exact and closed-form
bound), and the three probabilistic quality measures of Section 3.2.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from repro.core.strategy import AccessStrategy
from repro.exceptions import ConfigurationError
from repro.types import Quorum, ServerId, SystemProfile


class ProbabilisticQuorumSystem(abc.ABC):
    """Base class for ``⟨Q, w⟩`` pairs with a probabilistic guarantee.

    Subclasses define what "the guarantee" means (non-empty intersection,
    intersection outside a Byzantine set, or the masking threshold event) and
    provide its probability of failure ε, both exactly and via the paper's
    closed-form bounds.
    """

    #: Whether the protocol this system is built for reads self-verifying
    #: (signed) data — the Section 4 read.  Only the dissemination
    #: construction says so; the vote threshold lives on the masking
    #: system's ``read_threshold``.
    signed_reads = False

    def __init__(self, n: int, strategy: AccessStrategy) -> None:
        if n < 1:
            raise ConfigurationError(f"universe size must be positive, got {n}")
        self._n = int(n)
        self._strategy = strategy

    # -- structure -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of servers in the universe."""
        return self._n

    @property
    def strategy(self) -> AccessStrategy:
        """The access strategy ``w`` — clients must sample through it."""
        return self._strategy

    @property
    def name(self) -> str:
        """Name of the construction."""
        return type(self).__name__

    def sample_quorum(self, rng: Optional[random.Random] = None) -> Quorum:
        """Draw a quorum according to the access strategy."""
        return self._strategy.sample(rng)

    def sample_quorum_block(
        self,
        rng: Optional[random.Random] = None,
        count: int = 1,
        generator: Optional["np.random.Generator"] = None,
    ) -> List[Tuple[int, ...]]:
        """Draw ``count`` i.i.d. strategy quorums at once (sorted id tuples).

        The vectorised counterpart of calling :meth:`sample_quorum` in a
        loop: each returned tuple is an independent draw from the access
        strategy, so consumers that *pool* quorums (the service layer's
        :class:`~repro.service.client.AsyncQuorumClient`) keep the exact load
        profile and ε guarantee of per-operation sampling while amortising
        the sampling cost.  The uniform and explicit strategies vectorise the
        draw through the same kernels the batched Monte-Carlo engine uses.
        A persistent NumPy ``generator`` (when given) skips the per-call
        bit-generator construction the ``rng``-seeded path pays.
        """
        return self._strategy.sample_block(count, rng, generator=generator)

    @abc.abstractmethod
    def find_live_quorum(self, alive: Set[ServerId]) -> Optional[Quorum]:
        """A quorum fully contained in ``alive``, or ``None`` if none exists."""

    # -- the probabilistic guarantee --------------------------------------------

    @property
    @abc.abstractmethod
    def epsilon(self) -> float:
        """The exact probability that the system's guarantee fails for one pair.

        For ε-intersecting systems this is ``P(Q ∩ Q' = ∅)``; for
        dissemination systems ``P(Q ∩ Q' ⊆ B)`` for a worst-case ``B``; for
        masking systems the complement of the Definition 5.1 event.
        """

    @abc.abstractmethod
    def epsilon_bound(self) -> float:
        """The paper's closed-form upper bound on :attr:`epsilon`."""

    # -- quality measures --------------------------------------------------------

    @abc.abstractmethod
    def load(self) -> float:
        """Load under the system's strategy (Definition 3.3)."""

    @abc.abstractmethod
    def fault_tolerance(self) -> int:
        """Probabilistic fault tolerance (Definition 3.7)."""

    @abc.abstractmethod
    def failure_probability(self, p: float) -> float:
        """Probabilistic failure probability (Definition 3.8)."""

    @property
    def byzantine_threshold(self) -> int:
        """Number of Byzantine failures the guarantee accounts for (0 if none)."""
        return 0

    def profile(self) -> SystemProfile:
        """Summarise the system in a :class:`~repro.types.SystemProfile`."""
        return SystemProfile(
            name=self.describe(),
            n=self.n,
            quorum_size=round(self._strategy.expected_quorum_size()),
            load=self.load(),
            fault_tolerance=self.fault_tolerance(),
            epsilon=self.epsilon,
            byzantine_threshold=self.byzantine_threshold,
        )

    def describe(self) -> str:
        """Short parameterised description of the construction."""
        return f"{self.name}(n={self.n})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
