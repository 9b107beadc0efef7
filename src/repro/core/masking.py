"""(b, ε)-masking quorum systems ``Rk(n, q)`` (Section 5).

With data that is *not* self-verifying, a reader cannot recognise the
correct value; it must be returned by enough servers to out-vote the
Byzantine ones.  Definition 5.1 therefore adds a read threshold ``k`` to the
system: ``⟨Q, w, k⟩`` is a (b, ε)-masking quorum system if, for every
Byzantine set ``B`` of size ``b`` and two strategy-drawn quorums ``Q`` (read)
and ``Q'`` (previous write),

``P(|Q ∩ B| < k   and   |Q ∩ Q' \\ B| >= k)  >=  1 - ε``.

The construction ``Rk(n, q)`` (Definition 5.6) again uses all subsets of
size ``q`` with the uniform strategy, and the paper's threshold choice is
``k = q²/(2n)`` — strictly between the expected number of faulty servers in
a quorum, ``E[|Q ∩ B|] = qb/n``, and the expected number of correct
up-to-date servers, ``E[|Q ∩ Q' \\ B|] = (n-b)q²/n²`` (Section 5.3), provided
``ℓ = q/b > 2``.  Theorem 5.10 bounds ε by
``2 exp(-(q²/n)·min{ψ₁(ℓ), ψ₂(ℓ)})``.

The headline consequence (Section 5.5): choosing ``ℓ`` constant when
``b = ω(√n)`` gives load ``O(b/n)``, beating the ``Ω(√(b/n))`` load lower
bound of every *strict* masking system, and the construction tolerates any
``b < n/2`` Byzantine failures while strict masking systems stop at
``⌊(n-1)/4⌋``.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.analysis.chernoff import crash_failure_bound, lemma_5_7_bound, lemma_5_9_bound
from repro.analysis.failure_probability import crash_failure_probability_uniform
from repro.analysis.intersection import (
    MaskingErrorDecomposition,
    default_masking_threshold,
    masking_epsilon_bound,
    masking_epsilon_exact,
    masking_error_decomposition,
    masking_expectations,
)
from repro.core.calibration import (
    ell_for_quorum_size,
    minimal_quorum_size_for_masking,
    quorum_size_for_ell,
)
from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.core.strategy import UniformSubsetStrategy
from repro.exceptions import ConfigurationError
from repro.types import Quorum, ServerId


class ProbabilisticMaskingSystem(ProbabilisticQuorumSystem):
    """The ``Rk(n, q)`` construction: uniform size-``q`` quorums plus a read threshold.

    Parameters
    ----------
    n:
        Universe size.
    quorum_size:
        Quorum size ``q``; must satisfy ``q <= n - b`` (fault tolerance
        condition of Definition 5.1).
    b:
        Number of Byzantine failures masked; any ``b < n/2`` is admissible
        for suitable ``q`` (Section 5), far beyond the strict ``(n-1)/4``.
    threshold:
        The real-valued threshold ``k``.  Defaults to the paper's
        ``q²/(2n)``.  A reader accepts a value only if at least ``⌈k⌉``
        servers of its quorum returned it (see
        :attr:`read_threshold`).
    """

    def __init__(
        self,
        n: int,
        quorum_size: int,
        b: int,
        threshold: Optional[float] = None,
    ) -> None:
        strategy = UniformSubsetStrategy(n, quorum_size)
        super().__init__(n, strategy)
        if not 1 <= b < n:
            raise ConfigurationError(f"Byzantine threshold must lie in [1, {n}), got {b}")
        if quorum_size > n - b:
            raise ConfigurationError(
                f"Definition 5.1 requires fault tolerance > b: need q <= n - b "
                f"({n - b}), got q={quorum_size}"
            )
        self._q = int(quorum_size)
        self._b = int(b)
        self._k = default_masking_threshold(n, quorum_size) if threshold is None else float(threshold)
        if self._k <= 0:
            raise ConfigurationError(f"threshold k must be positive, got {self._k}")

    # -- alternative constructors ------------------------------------------------

    @classmethod
    def from_ell_times_b(cls, n: int, ell: float, b: int) -> "ProbabilisticMaskingSystem":
        """Build ``Rk(n, ℓ·b)`` — the parameterisation of Theorem 5.10 (``ℓ = q/b``)."""
        if ell <= 2.0:
            raise ConfigurationError(f"Theorem 5.10 requires q/b > 2, got {ell}")
        quorum_size = math.ceil(ell * b)
        return cls(n, quorum_size, b)

    @classmethod
    def from_ell(cls, n: int, ell: float, b: int) -> "ProbabilisticMaskingSystem":
        """Build ``Rk(n, ⌈ℓ√n⌉)`` — the ``ℓ`` convention used in Table 4."""
        return cls(n, quorum_size_for_ell(n, ell), b)

    @classmethod
    def for_epsilon(cls, n: int, b: int, epsilon: float) -> "ProbabilisticMaskingSystem":
        """Smallest construction (with ``k = q²/2n``) meeting a target ε."""
        q = minimal_quorum_size_for_masking(n, b, epsilon)
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
    def byzantine_threshold(self) -> int:
        """The Byzantine threshold ``b``."""
        return self._b

    @property
    def threshold(self) -> float:
        """The real-valued threshold ``k`` (``q²/2n`` by default)."""
        return self._k

    @property
    def read_threshold(self) -> int:
        """The integer vote count a reader requires: ``⌈k⌉``."""
        return math.ceil(self._k)

    @property
    def ell_over_b(self) -> float:
        """The ratio ``ℓ = q/b`` used by the Section 5 analysis."""
        return self._q / self._b

    @property
    def ell_over_sqrt_n(self) -> float:
        """The ratio ``q/√n`` — the ``ℓ`` convention of Table 4."""
        return ell_for_quorum_size(self.n, self._q)

    def find_live_quorum(self, alive: Set[ServerId]) -> Optional[Quorum]:
        live = sorted(s for s in alive if 0 <= s < self.n)
        if len(live) < self._q:
            return None
        return frozenset(live[: self._q])

    def expectations(self) -> tuple:
        """``(E[|Q ∩ B|], E[|Q ∩ Q' \\ B|])`` — Eqs. (13) and (14)."""
        return masking_expectations(self.n, self._q, self._b)

    def threshold_is_separating(self) -> bool:
        """Whether ``k`` lies strictly between the two expectations (Section 5.3)."""
        e_faulty, e_correct = self.expectations()
        return e_faulty < self._k < e_correct

    # -- the probabilistic guarantee ----------------------------------------------

    @property
    def epsilon(self) -> float:
        """Exact masking error probability for a worst-case Byzantine set."""
        return masking_epsilon_exact(self.n, self._q, self._b, self._k)

    def epsilon_bound(self) -> float:
        """Theorem 5.10 bound (requires ``q/b > 2``); falls back to the exact value.

        The theorem's closed form only applies to the paper's default
        threshold ``k = q²/2n`` and ratio ``ℓ = q/b > 2``; outside that
        regime the exact value is returned so that callers always get a
        valid upper bound.
        """
        uses_default_threshold = abs(self._k - default_masking_threshold(self.n, self._q)) < 1e-12
        if self._q / self._b > 2.0 and uses_default_threshold:
            return masking_epsilon_bound(self.n, self._q, self._b)
        return self.epsilon

    def error_decomposition(self) -> MaskingErrorDecomposition:
        """The two failure modes (too many faulty / too few correct) and their sizes."""
        return masking_error_decomposition(self.n, self._q, self._b, self._k)

    def lemma_bounds(self) -> tuple:
        """The individual bounds of Lemmas 5.7 and 5.9 (requires ``q/b > 2``)."""
        ell = self._q / self._b
        return (
            lemma_5_7_bound(self.n, self._q, ell),
            lemma_5_9_bound(self.n, self._q, ell),
        )

    # -- quality measures ------------------------------------------------------------

    def load(self) -> float:
        """Load ``q/n`` (Definition 5.3 inherits Definition 3.3)."""
        return self._q / self.n

    def fault_tolerance(self) -> int:
        """Probabilistic (crash) fault tolerance ``n - q + 1``."""
        return self.n - self._q + 1

    def failure_probability(self, p: float) -> float:
        """Exact crash failure probability ``P(Bin(n, p) > n - q)``."""
        return crash_failure_probability_uniform(self.n, self._q, p)

    def failure_probability_bound(self, p: float) -> float:
        """The Chernoff bound ``e^{-2n(1 - q/n - p)²}`` of Section 5.5."""
        return crash_failure_bound(self.n, self._q, p)

    def describe(self) -> str:
        return (
            f"Rk(n={self.n}, q={self._q}, b={self._b}, k={self.read_threshold})"
        )
