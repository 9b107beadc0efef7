"""(b, ε)-dissemination quorum systems (Section 4).

Definition 4.1: ``⟨Q, w⟩`` is a *(b, ε)-dissemination quorum system* if its
probabilistic fault tolerance exceeds ``b`` and, for every set ``B`` of ``b``
servers, two strategy-drawn quorums intersect *outside* ``B`` with
probability at least ``1 - ε``.  With self-verifying data this is exactly
what a reader needs: at least one correct server in the overlap holds (and
can prove) the latest written value.

The paper's construction is the same ``R(n, ℓ√n)`` as in Section 3; only the
analysis changes.  For ``b = n/3`` Lemma 4.3 gives ``ε <= 2 e^{-ℓ²/6}``
(Theorem 4.4), and for any constant fraction ``b = αn`` Lemma 4.5 /
Theorem 4.6 gives a (larger, but still vanishing for appropriate ``ℓ``)
closed-form bound — breaking the ``b <= ⌊(n-1)/3⌋`` resilience ceiling and
the ``Ω(√(b/n))`` load lower bound of strict dissemination systems.

Two practical remarks from the paper are reflected in the API:

* the requirement ``n - q > b`` (otherwise the fault-tolerance condition of
  Definition 4.1 fails) limits the achievable ε for a given ``n`` and ``b``;
* the construction does not depend on ``b``, so :meth:`epsilon_for` reports
  the *graceful degradation* guarantee for any smaller number of actual
  faults.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.analysis.chernoff import crash_failure_bound
from repro.analysis.failure_probability import crash_failure_probability_uniform
from repro.analysis.intersection import (
    dissemination_epsilon_bound,
    dissemination_epsilon_exact,
)
from repro.core.calibration import (
    ell_for_quorum_size,
    minimal_quorum_size_for_dissemination,
    quorum_size_for_ell,
)
from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.core.strategy import UniformSubsetStrategy
from repro.exceptions import ConfigurationError
from repro.types import Quorum, ServerId


class ProbabilisticDisseminationSystem(ProbabilisticQuorumSystem):
    """``R(n, q)`` analysed as a (b, ε)-dissemination quorum system.

    Parameters
    ----------
    n:
        Universe size.
    quorum_size:
        Quorum size ``q``; must satisfy ``q <= n - b`` so that the
        probabilistic fault tolerance ``n - q + 1`` exceeds ``b``.
    b:
        Number of Byzantine server failures tolerated.  Unlike strict
        dissemination systems, ``b`` may be any constant fraction of ``n``
        (Theorem 4.6).
    """

    #: Section 4 reads verify the writer's signature and discard forgeries.
    signed_reads = True

    def __init__(self, n: int, quorum_size: int, b: int) -> None:
        strategy = UniformSubsetStrategy(n, quorum_size)
        super().__init__(n, strategy)
        if not 1 <= b < n:
            raise ConfigurationError(f"Byzantine threshold must lie in [1, {n}), got {b}")
        if quorum_size > n - b:
            raise ConfigurationError(
                f"Definition 4.1 requires fault tolerance > b: need q <= n - b "
                f"({n - b}), got q={quorum_size}"
            )
        self._q = int(quorum_size)
        self._b = int(b)

    # -- alternative constructors ------------------------------------------------

    @classmethod
    def from_ell(cls, n: int, ell: float, b: int) -> "ProbabilisticDisseminationSystem":
        """Build ``R(n, ⌈ℓ√n⌉)`` for the given Byzantine threshold."""
        return cls(n, quorum_size_for_ell(n, ell), b)

    @classmethod
    def for_epsilon(
        cls, n: int, b: int, epsilon: float
    ) -> "ProbabilisticDisseminationSystem":
        """Smallest construction meeting a target ε for the given ``b``.

        Raises :class:`ConfigurationError` if no quorum size ``q <= n - b``
        achieves the target (the regime flagged in the remark after
        Theorem 4.6).
        """
        q = minimal_quorum_size_for_dissemination(n, b, epsilon)
        if q is None:
            raise ConfigurationError(
                f"no quorum size achieves epsilon={epsilon} for n={n}, b={b}"
            )
        return cls(n, q, b)

    # -- structure ----------------------------------------------------------------

    @property
    def quorum_size(self) -> int:
        """The common quorum size ``q``."""
        return self._q

    @property
    def ell(self) -> float:
        """The paper's ``ℓ = q / √n``."""
        return ell_for_quorum_size(self.n, self._q)

    @property
    def byzantine_threshold(self) -> int:
        """The Byzantine threshold ``b`` the guarantee is stated for."""
        return self._b

    @property
    def byzantine_fraction(self) -> float:
        """``α = b / n`` — the fraction of servers that may be Byzantine."""
        return self._b / self.n

    def find_live_quorum(self, alive: Set[ServerId]) -> Optional[Quorum]:
        live = sorted(s for s in alive if 0 <= s < self.n)
        if len(live) < self._q:
            return None
        return frozenset(live[: self._q])

    # -- the probabilistic guarantee ----------------------------------------------

    @property
    def epsilon(self) -> float:
        """Exact worst-case ``P(Q ∩ Q' ⊆ B)`` over sets ``B`` of size ``b``."""
        return dissemination_epsilon_exact(self.n, self._q, self._b)

    def epsilon_bound(self) -> float:
        """The closed-form bound of Lemma 4.3 (b <= n/3) or Lemma 4.5 (b = αn)."""
        return dissemination_epsilon_bound(self.n, self._q, self._b)

    def epsilon_for(self, actual_faults: int) -> float:
        """Graceful degradation: the exact ε when only ``actual_faults`` occur.

        The construction does not depend on ``b`` (remark after Theorem 4.6),
        so if fewer servers actually misbehave the intersection guarantee is
        strictly better.
        """
        if not 0 <= actual_faults <= self._b:
            raise ConfigurationError(
                f"actual fault count must lie in [0, {self._b}], got {actual_faults}"
            )
        if actual_faults == 0:
            from repro.analysis.intersection import intersection_epsilon_exact

            return intersection_epsilon_exact(self.n, self._q)
        return dissemination_epsilon_exact(self.n, self._q, actual_faults)

    # -- quality measures ------------------------------------------------------------

    def load(self) -> float:
        """Load ``q/n = ℓ/√n`` — below the strict ``Ω(√(b/n))`` bound for large b."""
        return self._q / self.n

    def fault_tolerance(self) -> int:
        """Probabilistic (crash) fault tolerance ``n - q + 1``."""
        return self.n - self._q + 1

    def failure_probability(self, p: float) -> float:
        """Exact crash failure probability ``P(Bin(n, p) > n - q)``."""
        return crash_failure_probability_uniform(self.n, self._q, p)

    def failure_probability_bound(self, p: float) -> float:
        """The Chernoff bound ``e^{-2n(1 - q/n - p)²}`` quoted after Theorem 4.4."""
        return crash_failure_bound(self.n, self._q, p)

    def describe(self) -> str:
        return f"DisseminationR(n={self.n}, q={self._q}, b={self._b})"
